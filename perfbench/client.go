package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"

	"repro/internal/advisor"
	"repro/internal/service"
	"repro/internal/spec"
)

// do sends one request with the benchmark's request id and returns the
// status and body.
func do(ctx context.Context, c *http.Client, method, url, rid string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// Session scenarios. The platform is small and the work huge, so a
// session never completes within a run however fast the server gets.
func sessionSpec(name string, dpnf bool) *spec.SessionSpec {
	ss := &spec.SessionSpec{
		Name: name,
		Scenario: spec.ScenarioSpec{
			Platform: spec.PlatformRef{Custom: &spec.PlatformCustom{
				Name: "bench16", PTotal: 16, D: 60, CBase: 600, RBase: 600,
				MTBF: 30 * 86400, W: 1e12,
			}},
			Dist: spec.DistSpec{Family: "exponential"},
		},
		Policy: spec.PolicySpec{Kind: "young"},
	}
	if dpnf {
		ss.Scenario.Dist = spec.DistSpec{Family: "weibull", Shape: 0.7}
		ss.Policy = spec.PolicySpec{Kind: "dpnextfailure", Quanta: 30}
	}
	return ss
}

// eventGen turns a session's standing decision into its next batch of
// four events. Seven batches in eight execute the advised chunk in three
// progress reports and commit it; the eighth carries a failure part way
// through the chunk and the recovery that ends it. Both end at a
// decision point, so every batch is answered with a fresh decision.
type eventGen struct {
	rng   *rand.Rand
	units int
	down  float64 // D + R: a failure's downtime plus the recovery
}

func newEventGen(seed uint64, stream int, job advisor.Job) *eventGen {
	return &eventGen{
		rng:   rand.New(rand.NewPCG(seed, uint64(stream)+0x9e3779b97f4a7c15)),
		units: job.Units,
		down:  job.D + job.R,
	}
}

func (g *eventGen) batch(d *advisor.Decision) []advisor.Event {
	t, c := d.Now, d.Chunk
	w1 := c * (0.2 + 0.2*g.rng.Float64())
	w2 := c * (0.2 + 0.2*g.rng.Float64())
	w3 := c - w1 - w2
	ev := make([]advisor.Event, 0, 4)
	ev = append(ev,
		advisor.Event{Kind: advisor.EventProgress, Time: t + w1, Work: w1},
		advisor.Event{Kind: advisor.EventProgress, Time: t + w1 + w2, Work: w2},
	)
	if g.rng.IntN(8) == 0 {
		tf := t + w1 + w2 + w3*g.rng.Float64()
		return append(ev,
			advisor.Event{Kind: advisor.EventFailure, Time: tf, Unit: g.rng.IntN(g.units)},
			advisor.Event{Kind: advisor.EventRecovered, Time: tf + g.down},
		)
	}
	return append(ev,
		advisor.Event{Kind: advisor.EventProgress, Time: t + c, Work: w3},
		advisor.Event{Kind: advisor.EventCheckpointed, Time: t + c + d.CheckpointCost, Work: c},
	)
}

// mirror applies one batch to an offline session the way the service
// does: observe every event, then consult the policy if the batch left
// no standing decision. It reports whether the policy was consulted.
func mirror(s *advisor.Session, batch []advisor.Event) (bool, error) {
	for _, ev := range batch {
		if err := s.Observe(ev); err != nil {
			return false, err
		}
	}
	if s.InOutage() || s.HasDecision() {
		return false, nil
	}
	_, err := s.Advise()
	return true, err
}

// servedView renders an offline session the way the service renders a
// live one: the state block and the standing decision, as JSON.
func servedView(s *advisor.Session) (state, decision []byte, err error) {
	state, err = json.Marshal(service.SessionState{
		Policy:    s.PolicyName(),
		Now:       s.Now(),
		Remaining: s.Remaining(),
		Failures:  s.Failures(),
		Outage:    s.InOutage(),
		Done:      s.Done(),
	})
	if err != nil {
		return nil, nil, err
	}
	if s.InOutage() {
		return state, []byte("null"), nil
	}
	d, err := s.Advise()
	if err != nil {
		return nil, nil, err
	}
	decision, err = json.Marshal(d)
	return state, decision, err
}

// responseView is the state and decision of a served session response,
// kept as raw JSON for byte comparison.
type responseView struct {
	State    json.RawMessage `json:"state"`
	Decision json.RawMessage `json:"decision"`
	Applied  int             `json:"applied"`
}

func parseView(body []byte) (responseView, *advisor.Decision, error) {
	var v responseView
	if err := json.Unmarshal(body, &v); err != nil {
		return v, nil, err
	}
	// The service indents its responses; compare compact encodings.
	var err error
	if v.State, err = compact(v.State); err != nil {
		return v, nil, err
	}
	if len(v.Decision) == 0 || string(v.Decision) == "null" {
		v.Decision = json.RawMessage("null")
		return v, nil, nil
	}
	if v.Decision, err = compact(v.Decision); err != nil {
		return v, nil, err
	}
	var d advisor.Decision
	if err := json.Unmarshal(v.Decision, &d); err != nil {
		return v, nil, err
	}
	return v, &d, nil
}

func compact(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	err := json.Compact(&b, raw)
	return b.Bytes(), err
}

func sameView(a responseView, state, decision []byte) error {
	if !bytes.Equal(a.State, state) {
		return fmt.Errorf("state %s, want %s", a.State, state)
	}
	if !bytes.Equal(a.Decision, decision) {
		return fmt.Errorf("decision %s, want %s", a.Decision, decision)
	}
	return nil
}
