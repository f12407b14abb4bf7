package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/advisor"
	"repro/internal/spec"
	"repro/internal/store"
)

// sameSteps compares replay steps with floats bit for bit.
func sameSteps(a, b []advisor.ReplayStep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Advised != y.Advised || x.Event.Kind != y.Event.Kind || x.Event.Unit != y.Event.Unit ||
			math.Float64bits(x.Event.Time) != math.Float64bits(y.Event.Time) ||
			math.Float64bits(x.Event.Work) != math.Float64bits(y.Event.Work) {
			return false
		}
	}
	return true
}

// FuzzWireSteps pins the replay response's steps codec to the strict
// JSON decode it shortcuts. On arbitrary payloads the fast path either
// declines or decodes exactly what the strict decoder does, and the
// full decoder agrees with the strict one on accept/reject, values and
// error. On arbitrary events the encoder writes json.Marshal's bytes
// for the matching []*advisor.Event (or fails with its error), and the
// fast path reads its own output back.
func FuzzWireSteps(f *testing.F) {
	for _, p := range []string{
		`[]`,
		`[null]`,
		`[null,{"kind":"progress","time":12.5,"work":3}]`,
		`[{"kind":"failure","time":1e-7,"unit":3},null]`,
		`[{"kind":"failure","time":1,"unit":1.5}]`,
		`[{"kind":"failure","time":1,"extra":1}]`,
		`[ null ]`,
		`[null,]`,
		`[,null]`,
		`[{"kind":"a<b","time":1}]`,
		`[{"kind":"progress","time":1e999}]`,
		`[true]`,
		`null`,
		`{}`,
		`[null]x`,
		``,
	} {
		f.Add([]byte(p), "progress", math.Float64bits(100.25), uint64(0), int64(0), uint8(0))
	}
	for _, x := range []float64{math.Copysign(0, -1), 5e-324, 1e-6, math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.NaN(), math.Inf(-1)} {
		f.Add([]byte(`[]`), "recovered", math.Float64bits(x), math.Float64bits(-x), int64(math.MinInt64), uint8(5))
	}
	f.Add([]byte(`[]`), "x\"< \xff", uint64(0), uint64(0), int64(1), uint8(2))

	check := func(t *testing.T, payload []byte) {
		t.Helper()
		want, werr := decodeWireStepsStrict(payload)
		if steps, ok := parseWireSteps(payload); ok {
			if werr != nil {
				t.Fatalf("fast path accepted %q, strict refused: %v", payload, werr)
			}
			if !sameSteps(steps, want) {
				t.Fatalf("fast path decoded %q as %+v, strict as %+v", payload, steps, want)
			}
		}
		got, gerr := decodeWireSteps(payload)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decode %q: error %v, strict error %v", payload, gerr, werr)
		}
		if gerr != nil {
			var ce *store.CorruptError
			if !errors.As(gerr, &ce) || gerr.Error() != werr.Error() {
				t.Fatalf("decode %q: error %v, strict error %v", payload, gerr, werr)
			}
			return
		}
		if !sameSteps(got, want) {
			t.Fatalf("decode %q = %+v, strict %+v", payload, got, want)
		}
	}

	f.Fuzz(func(t *testing.T, payload []byte, kind string, timeBits, workBits uint64, unit int64, mask uint8) {
		check(t, payload)

		ev := advisor.Event{
			Kind: advisor.EventKind(kind),
			Time: math.Float64frombits(timeBits),
			Work: math.Float64frombits(workBits),
			Unit: int(unit),
		}
		// Up to eight steps; a set mask bit makes that step a marker.
		n := int(mask>>5) + 1
		steps := make([]advisor.ReplayStep, n)
		evs := make([]*advisor.Event, n)
		for i := range steps {
			if mask&(1<<i) != 0 {
				steps[i] = advisor.ReplayStep{Advised: true}
			} else {
				steps[i] = advisor.ReplayStep{Event: ev}
				evs[i] = &ev
			}
		}
		want, werr := json.Marshal(evs)
		got, gerr := appendWireSteps(nil, steps)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("steps %+v: encoder error %v, json.Marshal error %v", steps, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if string(got) != string(want) {
			t.Fatalf("steps %+v: encoder wrote %s, json.Marshal %s", steps, got, want)
		}
		// An event the store codec reads on its fast path keeps the array
		// on the fast path too. (With every step a marker, ev may be one
		// json.Marshal refuses.)
		evJSON, err := json.Marshal(ev)
		if _, rest, ok := store.CutEventJSON(evJSON); err == nil && ok && len(rest) == 0 {
			if _, ok := parseWireSteps(got); !ok {
				t.Fatalf("fast path refused its own encoding %s", got)
			}
		}
		check(t, got)
	})
}

// TestReplayResponseFrames: a successful replay answers a header frame
// and a steps frame, an error answers the header alone, and a damaged
// or missing steps frame is corruption.
func TestReplayResponseFrames(t *testing.T) {
	steps := []advisor.ReplayStep{{Advised: true}, {Event: advisor.Event{Kind: advisor.EventFailure, Time: 5, Unit: 2}}}
	ok := &wireResponse{Spec: &spec.SessionSpec{Name: "s"}, steps: steps}
	body, err := encodeResponse(opReplay, ok)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(opReplay, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Spec == nil || resp.Spec.Name != "s" || !sameSteps(resp.steps, steps) {
		t.Fatalf("decoded %+v", resp)
	}

	notFound := &wireResponse{Err: &wireError{Kind: kindNoSession}}
	errBody, err := encodeResponse(opReplay, notFound)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := decodeResponse(opReplay, errBody); err != nil || resp.Err == nil || resp.Err.Kind != kindNoSession {
		t.Fatalf("error response decoded as %+v, %v", resp, err)
	}

	head := body[:bytes.IndexByte(body, '\n')+1]
	for name, bad := range map[string][]byte{
		"missing steps frame":    head,
		"truncated steps frame":  body[:len(body)-1],
		"flipped steps byte":     flip(body, len(body)-3),
		"extra frame":            append(append([]byte(nil), body...), body[len(head):]...),
		"steps after an error":   append(append([]byte(nil), errBody...), body[len(head):]...),
		"not an array of steps":  encodeFrames(t, ok, `{"steps":1}`),
		"whitespace inside null": encodeFrames(t, ok, `[nu ll]`),
	} {
		var ce *store.CorruptError
		if _, err := decodeResponse(opReplay, bad); !errors.As(err, &ce) {
			t.Errorf("%s: %v, want *store.CorruptError", name, err)
		}
	}
	var ce *store.CorruptError
	if _, err := decodeResponse(opGet, body); !errors.As(err, &ce) {
		t.Errorf("two frames answering a get: %v, want *store.CorruptError", err)
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x01
	return c
}

// encodeFrames builds a replay body whose steps frame carries payload.
func encodeFrames(t *testing.T, resp *wireResponse, payload string) []byte {
	t.Helper()
	head, err := encodeWire(resp)
	if err != nil {
		t.Fatal(err)
	}
	return store.AppendFrame(head, []byte(payload))
}

// BenchmarkWireReplay is the wire half of a cold session read: the
// store server encoding one replay response of a 10,000-event history
// and the client decoding it.
func BenchmarkWireReplay(b *testing.B) {
	ss := &spec.SessionSpec{
		Name: "bench",
		Scenario: spec.ScenarioSpec{
			Platform: spec.PlatformRef{Preset: "oneproc", MTBF: 86400},
			P:        1,
			Dist:     spec.DistSpec{Family: "exponential"},
		},
		Policy: spec.PolicySpec{Kind: "young"},
	}
	steps := benchReplaySteps(2500)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		body, err := encodeResponse(opReplay, &wireResponse{Spec: ss, steps: steps})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := decodeResponse(opReplay, body)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.steps) != len(steps) {
			b.Fatalf("decoded %d steps", len(resp.steps))
		}
	}
}

// benchReplaySteps is a long-lived session's history: per batch three
// progress reports, a checkpoint and a decision point, with
// full-precision times and work.
func benchReplaySteps(batches int) []advisor.ReplayStep {
	steps := []advisor.ReplayStep{{Advised: true}}
	now, x := 0.0, uint64(1)
	frac := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / (1 << 53)
	}
	for range batches {
		chunk := 3000 * (1 + frac())
		for j := 1; j <= 3; j++ {
			now += chunk / 3
			steps = append(steps, advisor.ReplayStep{Event: advisor.Event{Kind: advisor.EventProgress, Time: now, Work: chunk * float64(j) / 3}})
		}
		now += 60 * (1 + frac())
		steps = append(steps,
			advisor.ReplayStep{Event: advisor.Event{Kind: advisor.EventCheckpointed, Time: now, Work: chunk}},
			advisor.ReplayStep{Advised: true})
	}
	return steps
}
