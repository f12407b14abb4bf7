package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/store"
)

// replay-recover: long session logs read back by cold replicas. Set-up
// writes each log through the store API in the order the service
// journals (created, then each batch's events, then an advised marker
// when the batch left no standing decision) and posts one last batch
// through a writer replica, whose answer is the reference. One op is one
// GET /v1/sessions/{id} through the lb on a replica that has never
// loaded that session: a Replay over the wire, then
// advisor.ReplaySession.
const (
	replaySessions = 2    // coprime with the odd pool size
	replayBatches  = 2500 // 10,000 events per log
	replayWarm     = 8
	// replayPool is the cold replicas behind each client's lb: 802 cold
	// reads per client, several times what a 25 s window takes today.
	replayPool = 401
)

type rpSession struct {
	id      string
	spec    *spec.SessionSpec
	state   []byte // the writer's last response, compacted
	dec     []byte
	batches [][]advisor.Event
}

type replayWorkload struct {
	seed     uint64
	client   *http.Client
	lbs      []string // per client, its lb
	sessions []*rpSession
	fs       *store.FileStore
	next     []int  // per client, requests sent through its lb
	replays0 uint64 // FileStore replays before the measured lbs' first request
}

func newReplayWorkload(seed uint64) workload { return &replayWorkload{seed: seed} }

func (w *replayWorkload) cellsPerOp() int { return 0 }

func (w *replayWorkload) prepare(ctx context.Context, s *stack) (int, error) {
	w.client, w.fs = s.client, s.fs
	writer, _, err := s.addReplica()
	if err != nil {
		return 0, err
	}
	writerLB, err := s.addLB([]string{writer})
	if err != nil {
		return 0, err
	}
	advs := map[bool]*advisor.Advisor{}
	offline := engine.New(engine.Config{Cache: engine.NewCache(0)})
	for i := range replaySessions {
		rs, err := w.writeLog(ctx, offline, advs, writerLB, i)
		if err != nil {
			return 0, err
		}
		w.sessions = append(w.sessions, rs)
	}

	// Warm-up on replicas of its own: it fills the engine's planner
	// cache and the store connections.
	var warmURLs []string
	for range 3 {
		u, _, err := s.addReplica()
		if err != nil {
			return 0, err
		}
		warmURLs = append(warmURLs, u)
	}
	warmLB, err := s.addLB(warmURLs)
	if err != nil {
		return 0, err
	}
	for i := range replayWarm {
		if err := w.get(ctx, warmLB, w.sessions[i%replaySessions], fmt.Sprintf("warm-%d", i)); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}

	// Each client has an lb of its own over a pool of replicas of its
	// own, so each lb's rotation follows one closed loop: a client's
	// request i lands on its replica i mod replayPool and reads session
	// i mod replaySessions. The pool size is odd, so the pairs repeat
	// only after replayPool*replaySessions requests and every request is
	// a first load. The pool is fixed (not sized from the warm-up) so that
	// the process's memory does not depend on how fast the run goes.
	n := s.clientConns
	w.lbs, w.next = make([]string, n), make([]int, n)
	for c := range n {
		urls := make([]string, replayPool)
		for i := range urls {
			if urls[i], _, err = s.addReplica(); err != nil {
				return 0, err
			}
		}
		if w.lbs[c], err = s.addLB(urls); err != nil {
			return 0, err
		}
	}
	w.replays0 = w.fs.Stats().Replays
	return replayWarm, nil
}

// writeLog writes one session's log through the FileStore API, then
// posts its last batch through the writer replica and keeps the answer.
func (w *replayWorkload) writeLog(ctx context.Context, eng *engine.Engine, advs map[bool]*advisor.Advisor, writerLB string, i int) (*rpSession, error) {
	ss := sessionSpec(fmt.Sprintf("rp-%d", i), false)
	rs := &rpSession{id: ss.Name, spec: ss}
	a, err := compileAdvisor(ctx, eng, ss, advs)
	if err != nil {
		return nil, err
	}
	sess, err := a.NewSession()
	if err != nil {
		return nil, err
	}
	if err := w.fs.AppendCreated(ctx, rs.id, ss); err != nil {
		return nil, err
	}
	if err := w.fs.AppendAdvised(ctx, rs.id); err != nil {
		return nil, err
	}
	d, err := sess.Advise()
	if err != nil {
		return nil, err
	}
	gen := newEventGen(w.seed, 1000+i, a.Job())
	for range replayBatches {
		batch := gen.batch(&d)
		rs.batches = append(rs.batches, batch)
		for _, ev := range batch {
			if err := sess.Observe(ev); err != nil {
				return nil, err
			}
			if err := w.fs.AppendEvent(ctx, rs.id, ev); err != nil {
				return nil, err
			}
		}
		if sess.InOutage() || sess.HasDecision() {
			continue
		}
		if err := w.fs.AppendAdvised(ctx, rs.id); err != nil {
			return nil, err
		}
		if d, err = sess.Advise(); err != nil {
			return nil, err
		}
	}
	last := gen.batch(&d)
	rs.batches = append(rs.batches, last)
	body, err := json.Marshal(map[string]any{"events": last})
	if err != nil {
		return nil, err
	}
	code, b, err := do(ctx, w.client, http.MethodPost, writerLB+"/v1/sessions/"+rs.id+"/events", "writer-"+rs.id, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("writer %s: status %d: %s", rs.id, code, b)
	}
	v, _, err := parseView(b)
	if err != nil {
		return nil, err
	}
	rs.state, rs.dec = v.State, v.Decision
	// The writer replica rebuilt the session from the log before applying
	// the batch; the offline session must agree with it.
	if _, err := mirror(sess, last); err != nil {
		return nil, err
	}
	state, dec, err := servedView(sess)
	if err != nil {
		return nil, err
	}
	if err := sameView(v, state, dec); err != nil {
		return nil, fmt.Errorf("writer %s disagrees with the offline session: %w", rs.id, err)
	}
	return rs, nil
}

// get reads one session through lb and checks it against the writer.
func (w *replayWorkload) get(ctx context.Context, lb string, rs *rpSession, rid string) error {
	code, b, err := do(ctx, w.client, http.MethodGet, lb+"/v1/sessions/"+rs.id, rid, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("session %s: status %d: %s", rs.id, code, b)
	}
	v, _, err := parseView(b)
	if err != nil {
		return err
	}
	if err := sameView(v, rs.state, rs.dec); err != nil {
		return fmt.Errorf("session %s recovered %w", rs.id, err)
	}
	return nil
}

func (w *replayWorkload) op(ctx context.Context, c int, rid string) error {
	i := w.next[c]
	if i >= replayPool*replaySessions {
		return errExhausted
	}
	w.next[c]++
	return w.get(ctx, w.lbs[c], w.sessions[i%replaySessions], rid)
}

// verify checks that every request through the measured lb was a cold
// load: each one replayed its log from the store exactly once.
func (w *replayWorkload) verify(context.Context) error {
	var reads int
	for _, n := range w.next {
		reads += n
	}
	if got := w.fs.Stats().Replays - w.replays0; got != uint64(reads) {
		return fmt.Errorf("%d store replays for %d cold reads", got, reads)
	}
	return nil
}

func (w *replayWorkload) advisor(ctx context.Context) (advisorTimes, error) {
	var streams []stream
	for _, rs := range w.sessions {
		streams = append(streams, stream{spec: rs.spec, batches: rs.batches})
	}
	return timeAdvisor(ctx, streams)
}
