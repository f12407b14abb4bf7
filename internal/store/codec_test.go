package store

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/advisor"
)

// strictReplayRecords is replayRecords without the canonical fast path:
// every record through decodeSessionRecord. It is the reference the
// fast path must agree with.
func strictReplayRecords(frames []frame) (*SessionReplay, error) {
	if len(frames) == 0 {
		return nil, ErrNoSession
	}
	rep := &SessionReplay{}
	for i, fr := range frames {
		rec, err := decodeSessionRecord(fr.payload, fr.off)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0 && rec.Kind != recCreated:
			return nil, &CorruptError{Offset: fr.off, Reason: "log does not begin with a created record"}
		case i > 0 && rec.Kind == recCreated:
			return nil, &CorruptError{Offset: fr.off, Reason: "second created record"}
		}
		switch rec.Kind {
		case recCreated:
			rep.Spec = rec.Spec
		case recEvent:
			rep.Steps = append(rep.Steps, advisor.ReplayStep{Event: *rec.Event})
		case recAdvised:
			rep.Steps = append(rep.Steps, advisor.ReplayStep{Advised: true})
		case recTombstone:
			return nil, ErrTombstoned
		}
	}
	return rep, nil
}

// sameStep compares replay steps with floats bit for bit, so -0 and +0
// differ.
func sameStep(a, b advisor.ReplayStep) bool {
	return a.Advised == b.Advised && a.Event.Kind == b.Event.Kind && a.Event.Unit == b.Event.Unit &&
		math.Float64bits(a.Event.Time) == math.Float64bits(b.Event.Time) &&
		math.Float64bits(a.Event.Work) == math.Float64bits(b.Event.Work)
}

// sameReplay compares two replay outcomes: the same error (type, text
// and, for corruption, offset) or the same spec and steps.
func sameReplay(t *testing.T, got, want *SessionReplay, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("accept/reject differs: fast %v, strict %v", gerr, werr)
	}
	if gerr != nil {
		var gce, wce *CorruptError
		if errors.As(gerr, &gce) != errors.As(werr, &wce) || gerr.Error() != werr.Error() {
			t.Fatalf("errors differ: fast %v, strict %v", gerr, werr)
		}
		if gce != nil && gce.Offset != wce.Offset {
			t.Fatalf("corrupt offsets differ: fast %d, strict %d", gce.Offset, wce.Offset)
		}
		return
	}
	if !reflect.DeepEqual(got.Spec, want.Spec) || len(got.Steps) != len(want.Steps) {
		t.Fatalf("replays differ: fast %+v, strict %+v", got, want)
	}
	for i := range got.Steps {
		if !sameStep(got.Steps[i], want.Steps[i]) {
			t.Fatalf("step %d differs: fast %+v, strict %+v", i, got.Steps[i], want.Steps[i])
		}
	}
}

// FuzzSessionRecordCodec pins the canonical fast path to the strict
// codec it shortcuts. On arbitrary payloads, replaying a log through
// the fast path agrees with the strict decoder on accept/reject, on
// the decoded history and on *CorruptError type, text and offset. On
// arbitrary events — -0, subnormals, both float-format boundaries,
// NaN/Inf, any unit and any kind string — the hand-written encoder
// writes json.Marshal's bytes or fails with json.Marshal's error, and
// the fast decoder reads its own output back.
func FuzzSessionRecordCodec(f *testing.F) {
	for _, p := range []string{
		`{"kind":"advised"}`,
		`{"kind":"event","event":{"kind":"progress","time":1234.5678,"work":12.5}}`,
		`{"kind":"event","event":{"kind":"failure","time":1e-7,"unit":3}}`,
		`{"kind":"event","event":{"kind":"recovered","time":-0}}`,
		`{"kind":"event","event":{"kind":"failure","time":1,"unit":1.0}}`,
		`{"kind":"event","event":{"kind":"failure","time":1,"unit":1e2}}`,
		`{"kind":"event","event":{"kind":"failure","time":1,"unit":-0}}`,
		`{"kind":"event","event":{"kind":"failure","time":1,"unit":99999999999999999999}}`,
		`{"kind":"event","event":{"kind":"progress","time":1e400}}`,
		`{"kind":"event","event":{"kind":"progress","time":01}}`,
		`{"kind":"event","event":{"kind":"progress","time":1.}}`,
		`{"kind":"event","event":{"kind":"progress","time":1,"time":2}}`,
		`{"kind":"event","event":{"kind":"progress","time":1,"extra":2}}`,
		`{"kind":"event","event":{"kind":"a<b","time":1}}`,
		`{"kind":"event","event":{"kind":"progress","work":1,"time":1}}`,
		`{"kind":"event","event":{"kind":"progress","time":1},"event":null}`,
		`{"kind":"event","event":null}`,
		`{"KIND":"advised"}`,
		`{"kind":"advised"} `,
		`{"kind":"advised","event":{"kind":"x","time":1}}`,
		`{"kind":"tombstone"}`,
		`{"kind":"created","spec":null}`,
		`{"kind":"bogus"}`,
	} {
		f.Add([]byte(p), "progress", math.Float64bits(1234.5), uint64(0), int64(0))
	}
	for _, x := range []float64{math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-6,
		math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add([]byte(advisedPayload), "checkpointed", math.Float64bits(x), math.Float64bits(x), int64(math.MaxInt64))
	}
	for _, k := range []string{"", "a<b", "q\"", " ", "\xff", "é", "x\\y"} {
		f.Add([]byte{}, k, math.Float64bits(1), math.Float64bits(2), int64(math.MinInt64))
	}

	// Records other than events encode as json.Marshal does too.
	for _, rec := range []sessionRecord{{Kind: recAdvised}, {Kind: recTombstone}, {Kind: recCreated, Spec: testSessionSpec()}} {
		got, gerr := appendSessionRecord(nil, rec)
		want, werr := json.Marshal(rec)
		if gerr != nil || werr != nil || string(got) != string(want) {
			f.Fatalf("%s record: encoder wrote %s (%v), json.Marshal %s (%v)", rec.Kind, got, gerr, want, werr)
		}
	}
	created, err := appendSessionRecord(nil, sessionRecord{Kind: recCreated, Spec: testSessionSpec()})
	if err != nil {
		f.Fatal(err)
	}

	// checkPayload replays payload as the first record and after a
	// created record, through both paths.
	checkPayload := func(t *testing.T, payload []byte) {
		t.Helper()
		if step, ok := parseCanonicalStep(payload); ok {
			rec, err := decodeSessionRecord(payload, 0)
			var want advisor.ReplayStep
			switch {
			case err != nil:
				t.Fatalf("fast path accepted %q, strict refused: %v", payload, err)
			case rec.Kind == recAdvised && rec.Event == nil && rec.Spec == nil:
				want = advisor.ReplayStep{Advised: true}
			case rec.Kind == recEvent && rec.Event != nil && rec.Spec == nil:
				want = advisor.ReplayStep{Event: *rec.Event}
			default:
				t.Fatalf("fast path accepted %q as %+v, strict decoded %+v", payload, step, rec)
			}
			if !sameStep(step, want) {
				t.Fatalf("fast path decoded %q as %+v, strict as %+v", payload, step, want)
			}
		}
		for _, frames := range [][]frame{
			{{payload: payload, off: 9}},
			{{payload: created, off: 9}, {payload: payload, off: len(created) + 19}},
		} {
			got, gerr := replayRecords(frames)
			want, werr := strictReplayRecords(frames)
			sameReplay(t, got, want, gerr, werr)
		}
	}

	f.Fuzz(func(t *testing.T, payload []byte, kind string, timeBits, workBits uint64, unit int64) {
		checkPayload(t, payload)

		ev := advisor.Event{
			Kind: advisor.EventKind(kind),
			Time: math.Float64frombits(timeBits),
			Work: math.Float64frombits(workBits),
			Unit: int(unit),
		}
		want, werr := json.Marshal(ev)
		got, gerr := AppendEventJSON([]byte("prefix"), ev)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("event %+v: encoder error %v, json.Marshal error %v", ev, gerr, werr)
		}
		if gerr == nil && string(got) != "prefix"+string(want) {
			t.Fatalf("event %+v: encoder wrote %s, json.Marshal %s", ev, got[len("prefix"):], want)
		}

		rec := sessionRecord{Kind: recEvent, Event: &ev}
		wantRec, werr := json.Marshal(rec)
		gotRec, gerr := appendSessionRecord(nil, rec)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("record %+v: encoder error %v, json.Marshal error %v", ev, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if string(gotRec) != string(wantRec) {
			t.Fatalf("record %+v: encoder wrote %s, json.Marshal %s", ev, gotRec, wantRec)
		}
		if _, ok := parseCanonicalStep(gotRec); !ok && plainString(kind) {
			t.Fatalf("fast path refused its own encoding %s", gotRec)
		}
		checkPayload(t, gotRec)
	})
}

// BenchmarkFileStoreReplay is one cold FileStore.Replay of a
// 10,000-event log shaped like a long-lived session's: per batch three
// progress reports, a checkpoint and an advised marker (12,502
// records). The log file is written in one go, not appended record by
// record, so building it costs no fsyncs.
func BenchmarkFileStoreReplay(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	log, events := benchSessionLog(b, 2500)
	if err := os.WriteFile(st.sessionPath("bench"), log, 0o644); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rep, err := st.Replay(ctx, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Steps) != events+events/4+1 {
			b.Fatalf("replayed %d steps", len(rep.Steps))
		}
	}
}

// benchSessionLog builds a framed session log of batches 4-event
// batches and returns it with its event count. Times and work carry
// full-precision fractions, as a live session's do.
func benchSessionLog(b *testing.B, batches int) ([]byte, int) {
	var log []byte
	add := func(rec sessionRecord) {
		line, err := encodeSessionRecord(rec)
		if err != nil {
			b.Fatal(err)
		}
		log = append(log, line...)
	}
	add(sessionRecord{Kind: recCreated, Spec: testSessionSpec()})
	add(sessionRecord{Kind: recAdvised})
	now, x := 0.0, uint64(1)
	frac := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / (1 << 53)
	}
	for range batches {
		chunk := 3000 * (1 + frac())
		for j := 1; j <= 3; j++ {
			now += chunk / 3
			add(sessionRecord{Kind: recEvent, Event: &advisor.Event{Kind: advisor.EventProgress, Time: now, Work: chunk * float64(j) / 3}})
		}
		now += 60 * (1 + frac())
		add(sessionRecord{Kind: recEvent, Event: &advisor.Event{Kind: advisor.EventCheckpointed, Time: now, Work: chunk}})
		add(sessionRecord{Kind: recAdvised})
	}
	return log, 4 * batches
}
