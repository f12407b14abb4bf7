package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/spec"
)

// events-durable: the full lb → serve → store path. 64 sessions, a
// quarter of them DPNextFailure on a Weibull (k = 0.7) platform and the
// rest Young; one op is one POST /v1/sessions/{id}/events of a 4-event
// batch built from the decision the previous op was given.
const (
	eventSessions   = 64
	eventWarmRounds = 4 // warm-up batches per session
)

type evSession struct {
	id   string
	spec *spec.SessionSpec
	gen  *eventGen

	mu      sync.Mutex // one client owns a session; the lock orders verify after the run
	dec     *advisor.Decision
	batches [][]advisor.Event
}

type eventsWorkload struct {
	seed     uint64
	lb       string
	client   *http.Client
	sessions []*evSession
	owned    [][]*evSession // per client
	next     []int          // per client, the next session in its rotation
}

func newEventsWorkload(seed uint64) workload { return &eventsWorkload{seed: seed} }

func (w *eventsWorkload) cellsPerOp() int { return 0 }

// compileAdvisor compiles each of the two session specs once, for the
// event generators and the offline sessions.
func compileAdvisor(ctx context.Context, eng *engine.Engine, ss *spec.SessionSpec, cache map[bool]*advisor.Advisor) (*advisor.Advisor, error) {
	dpnf := ss.Policy.Kind == "dpnextfailure"
	if a, ok := cache[dpnf]; ok {
		return a, nil
	}
	a, err := spec.CompileAdvisor(ctx, eng, ss)
	if err != nil {
		return nil, err
	}
	cache[dpnf] = a
	return a, nil
}

func (w *eventsWorkload) prepare(ctx context.Context, s *stack) (int, error) {
	replica, _, err := s.addReplica()
	if err != nil {
		return 0, err
	}
	if w.lb, err = s.addLB([]string{replica}); err != nil {
		return 0, err
	}
	w.client = s.client
	advs := map[bool]*advisor.Advisor{}
	offline := engine.New(engine.Config{Cache: engine.NewCache(0)})
	for i := range eventSessions {
		ss := sessionSpec(fmt.Sprintf("ev-%02d", i), i%4 == 3)
		a, err := compileAdvisor(ctx, offline, ss, advs)
		if err != nil {
			return 0, err
		}
		body, err := json.Marshal(ss)
		if err != nil {
			return 0, err
		}
		es := &evSession{id: ss.Name, spec: ss, gen: newEventGen(w.seed, i, a.Job())}
		code, b, err := do(ctx, w.client, http.MethodPost, w.lb+"/v1/sessions?id="+es.id, "setup-"+es.id, body)
		if err != nil {
			return 0, err
		}
		if code != http.StatusCreated {
			return 0, fmt.Errorf("create %s: status %d: %s", es.id, code, b)
		}
		_, d, err := parseView(b)
		if err != nil || d == nil {
			return 0, fmt.Errorf("create %s: no decision (%v): %s", es.id, err, b)
		}
		es.dec = d
		w.sessions = append(w.sessions, es)
	}
	n := s.clientConns
	w.owned = make([][]*evSession, n)
	w.next = make([]int, n)
	for i, es := range w.sessions {
		w.owned[i%n] = append(w.owned[i%n], es)
	}
	// Warm-up: every session takes a few batches over every connection.
	if win := measure(ctx, w, n, 0, eventWarmRounds*eventSessions, "warm-", nil, nil); win.failed > 0 {
		return 0, fmt.Errorf("warm-up: %w", win.firstErr)
	}
	return eventWarmRounds * eventSessions, nil
}

func (w *eventsWorkload) op(ctx context.Context, c int, rid string) error {
	own := w.owned[c]
	es := own[w.next[c]]
	w.next[c] = (w.next[c] + 1) % len(own)
	es.mu.Lock()
	defer es.mu.Unlock()
	batch := es.gen.batch(es.dec)
	body, err := json.Marshal(map[string]any{"events": batch})
	if err != nil {
		return err
	}
	// The batch is part of the session's stream once sent, whatever the
	// answer: the offline check replays exactly what the server saw.
	es.batches = append(es.batches, batch)
	code, b, err := do(ctx, w.client, http.MethodPost, w.lb+"/v1/sessions/"+es.id+"/events", rid, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("session %s: status %d: %s", es.id, code, b)
	}
	v, d, err := parseView(b)
	if err != nil {
		return fmt.Errorf("session %s: %w", es.id, err)
	}
	if v.Applied != len(batch) || d == nil || !(d.Chunk > 0) {
		return fmt.Errorf("session %s: applied %d of %d, decision %s", es.id, v.Applied, len(batch), v.Decision)
	}
	es.dec = d
	return nil
}

// verify feeds every session's stream to an offline advisor.Session
// and checks that the served state and decision are byte-equal to it.
func (w *eventsWorkload) verify(ctx context.Context) error {
	advs := map[bool]*advisor.Advisor{}
	offline := engine.New(engine.Config{Cache: engine.NewCache(0)})
	for _, es := range w.sessions {
		es.mu.Lock()
		batches := es.batches
		es.mu.Unlock()
		a, err := compileAdvisor(ctx, offline, es.spec, advs)
		if err != nil {
			return err
		}
		sess, err := a.NewSession()
		if err != nil {
			return err
		}
		if _, err := sess.Advise(); err != nil {
			return err
		}
		for i, b := range batches {
			if _, err := mirror(sess, b); err != nil {
				return fmt.Errorf("session %s batch %d offline: %w", es.id, i, err)
			}
		}
		state, dec, err := servedView(sess)
		if err != nil {
			return err
		}
		code, body, err := do(ctx, w.client, http.MethodGet, w.lb+"/v1/sessions/"+es.id, "verify-"+es.id, nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("session %s: GET status %d: %s", es.id, code, body)
		}
		v, _, err := parseView(body)
		if err != nil {
			return err
		}
		if err := sameView(v, state, dec); err != nil {
			return fmt.Errorf("session %s after %d batches: served %w", es.id, len(batches), err)
		}
	}
	return nil
}

// advisor times the served streams fed straight to advisor sessions.
func (w *eventsWorkload) advisor(ctx context.Context) (advisorTimes, error) {
	var streams []stream
	for _, es := range w.sessions {
		es.mu.Lock()
		streams = append(streams, stream{spec: es.spec, batches: es.batches})
		es.mu.Unlock()
	}
	return timeAdvisor(ctx, streams)
}

// offlineStreams generates n session streams of the given length with
// an offline session answering each batch, in the events-durable mix.
func offlineStreams(ctx context.Context, seed uint64, n, batches int) ([]stream, error) {
	eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
	advs := map[bool]*advisor.Advisor{}
	var out []stream
	for i := range n {
		ss := sessionSpec(fmt.Sprintf("off-%d", i), i%4 == 3)
		a, err := compileAdvisor(ctx, eng, ss, advs)
		if err != nil {
			return nil, err
		}
		sess, err := a.NewSession()
		if err != nil {
			return nil, err
		}
		d, err := sess.Advise()
		if err != nil {
			return nil, err
		}
		gen := newEventGen(seed, 2000+i, a.Job())
		st := stream{spec: ss}
		for range batches {
			b := gen.batch(&d)
			st.batches = append(st.batches, b)
			if _, err := mirror(sess, b); err != nil {
				return nil, err
			}
			if d, err = sess.Advise(); err != nil {
				return nil, err
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// stream is one session's spec and its batches, in order.
type stream struct {
	spec    *spec.SessionSpec
	batches [][]advisor.Event
}

// advisorTimes are the advisor layer's costs on a workload's streams.
type advisorTimes struct {
	observeNS       float64 // mean advisor.Session.Observe
	replanUS        float64 // mean fresh advisor.Session.Advise (a policy consult)
	replaySessionMS float64 // mean advisor.ReplaySession of a whole stream
}

// timeAdvisor feeds each stream to a fresh advisor.Session, timing the
// observes of each batch together and each fresh decision alone, then
// rebuilds each session with ReplaySession from the recorded steps.
func timeAdvisor(ctx context.Context, streams []stream) (advisorTimes, error) {
	eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
	advs := map[bool]*advisor.Advisor{}
	var (
		obs, plan, replay time.Duration
		nObs, nPlan       int
	)
	for _, st := range streams {
		a, err := compileAdvisor(ctx, eng, st.spec, advs)
		if err != nil {
			return advisorTimes{}, err
		}
		sess, err := a.NewSession()
		if err != nil {
			return advisorTimes{}, err
		}
		steps := []advisor.ReplayStep{{Advised: true}}
		t0 := time.Now()
		_, err = sess.Advise()
		plan += time.Since(t0)
		nPlan++
		if err != nil {
			return advisorTimes{}, err
		}
		for _, b := range st.batches {
			t0 := time.Now()
			for _, ev := range b {
				if err := sess.Observe(ev); err != nil {
					return advisorTimes{}, err
				}
			}
			obs += time.Since(t0)
			nObs += len(b)
			for _, ev := range b {
				steps = append(steps, advisor.ReplayStep{Event: ev})
			}
			if sess.InOutage() || sess.HasDecision() {
				continue
			}
			steps = append(steps, advisor.ReplayStep{Advised: true})
			t0 = time.Now()
			_, err := sess.Advise()
			plan += time.Since(t0)
			nPlan++
			if err != nil {
				return advisorTimes{}, err
			}
		}
		t0 = time.Now()
		if _, err := a.ReplaySession(nil, steps); err != nil {
			return advisorTimes{}, err
		}
		replay += time.Since(t0)
	}
	at := advisorTimes{}
	if nObs > 0 {
		at.observeNS = float64(obs) / float64(nObs)
	}
	if nPlan > 0 {
		at.replanUS = float64(plan) / float64(time.Microsecond) / float64(nPlan)
	}
	if len(streams) > 0 {
		at.replaySessionMS = float64(replay) / float64(time.Millisecond) / float64(len(streams))
	}
	return at, nil
}
