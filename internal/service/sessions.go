package service

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// errSessionsFull reports that the bounded session store is at capacity
// with no expired session to reclaim; the handler maps it to 429 +
// Retry-After, like the admission queue.
var errSessionsFull = errors.New("service: session store full")

// liveSession is one stored advisor session. Its mutex serializes event
// application and advising: advisor.Session is not goroutine-safe, and
// two concurrent event batches for the same id must apply in some total
// order. The expiry deadline is store state, guarded by the store mutex
// (get slides it concurrently with handlers holding only mu), so
// create/get hand handlers a snapshot instead of exposing the field.
type liveSession struct {
	mu      sync.Mutex
	id      string
	name    string
	sess    *advisor.Session
	expires time.Time // guarded by sessionStore.mu, not mu
	// specHash is the canonical digest of the spec this session was
	// created (or rehydrated) from. Immutable once the entry is
	// published, so reads need no lock. Idempotent re-creates (?id=)
	// compare against it: answering an existing session for a different
	// spec would silently hand the client the wrong advisor.
	specHash string
	// advised records that this live entry has consulted the policy at
	// least once, so the next consult is a warm re-plan off the previous
	// plan's memo rather than a cold DP build. Guarded by mu.
	advised bool
}

// specDigest canonically hashes a session spec: SHA-256 over its
// compact JSON encoding, which is deterministic for the decoded struct
// (fixed field order), so the same document always digests the same —
// including after a journal round trip.
func specDigest(ss *spec.SessionSpec) string {
	b, err := json.Marshal(ss)
	if err != nil {
		// A spec that decoded cannot fail to re-encode; guard anyway so a
		// future unmarshalable field degrades to "never matches".
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sessionStore is the bounded TTL store behind /v1/sessions. Sessions
// expire ttl after their last touch (sliding window); expired entries are
// reclaimed lazily — on lookup, and wholesale when a creation finds the
// store full. A full store with nothing expired rejects the creation:
// shedding new sessions beats silently killing live ones.
//
// The store is the live (in-memory) half only; the durable half is the
// session log it tombstones into whenever it reaps an entry, so an
// expired or deleted session is never resurrectable by rehydration.
type sessionStore struct {
	mu   sync.Mutex
	byID map[string]*liveSession
	ttl  time.Duration
	cap  int
	log  store.SessionLog
	now  func() time.Time // injectable clock for the expiry tests

	created, evicted, rejected, recovered *obs.Counter
}

// newSessionStore builds the store and registers its lifecycle series
// on r.
func newSessionStore(ttl time.Duration, capacity int, log store.SessionLog, clock obs.Clock, r *obs.Registry) *sessionStore {
	st := &sessionStore{
		byID:      map[string]*liveSession{},
		ttl:       ttl,
		cap:       capacity,
		log:       log,
		now:       clock.Now,
		created:   r.Counter("chkpt_sessions_created_total", "Advisor sessions created."),
		evicted:   r.Counter("chkpt_sessions_evicted_total", "Advisor sessions reclaimed by TTL expiry."),
		rejected:  r.Counter("chkpt_sessions_rejected_total", "Session creations refused by the store capacity bound (429)."),
		recovered: r.Counter("chkpt_sessions_recovered_total", "Sessions rehydrated from the durable event log."),
	}
	r.GaugeFunc("chkpt_sessions_open", "Live advisor sessions.", func() int64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return int64(len(st.byID))
	})
	return st
}

// reapLocked evicts one expired session: it drops the map entry and
// tombstones the log so the session cannot come back through replay.
// The tombstone is best-effort — eviction must proceed even when the
// backing log is failing. Callers hold st.mu.
func (st *sessionStore) reapLocked(ctx context.Context, id string) {
	delete(st.byID, id)
	st.evicted.Inc()
	_ = st.log.Tombstone(ctx, id)
}

// sweepLocked reclaims every expired session. Callers hold st.mu.
func (st *sessionStore) sweepLocked(ctx context.Context, now time.Time) {
	for id, ls := range st.byID {
		if now.After(ls.expires) {
			st.reapLocked(ctx, id)
		}
	}
}

// full reports whether the store is at capacity after reclaiming
// expired sessions — the cheap advisory check the create handler runs
// before paying for a spec compile. The authoritative check stays in
// create (a racing creation can still fill the store in between).
func (st *sessionStore) full(ctx context.Context) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.byID) >= st.cap {
		st.sweepLocked(ctx, st.now())
	}
	if len(st.byID) >= st.cap {
		st.rejected.Inc()
		return true
	}
	return false
}

// create stores a new session, minting a fresh id when id is empty
// (the plain POST /v1/sessions path) or installing the caller's chosen
// id (replica-transparent creation, ?id=). A chosen id that is already
// live wins the race for both creators: the existing entry is returned
// with existed=true, mirroring the append-once semantics of the
// durable log underneath.
func (st *sessionStore) create(ctx context.Context, id, name, specHash string, sess *advisor.Session) (ls *liveSession, expires time.Time, existed bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	if id != "" {
		if live, ok := st.byID[id]; ok && !now.After(live.expires) {
			live.expires = now.Add(st.ttl)
			return live, live.expires, true, nil
		}
	}
	if len(st.byID) >= st.cap {
		st.sweepLocked(ctx, now)
	}
	if len(st.byID) >= st.cap {
		st.rejected.Inc()
		return nil, time.Time{}, false, errSessionsFull
	}
	if id == "" {
		var raw [16]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return nil, time.Time{}, false, err
		}
		id = hex.EncodeToString(raw[:])
	}
	ls = &liveSession{
		id:       id,
		name:     name,
		sess:     sess,
		expires:  now.Add(st.ttl),
		specHash: specHash,
	}
	st.byID[ls.id] = ls
	st.created.Inc()
	return ls, ls.expires, false, nil
}

// get returns the live session and slides its expiry window, reporting
// the new deadline. An expired session is reclaimed and reported
// missing.
func (st *sessionStore) get(ctx context.Context, id string) (*liveSession, time.Time, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ls, ok := st.byID[id]
	if !ok {
		return nil, time.Time{}, false
	}
	now := st.now()
	if now.After(ls.expires) {
		st.reapLocked(ctx, id)
		return nil, time.Time{}, false
	}
	ls.expires = now.Add(st.ttl)
	return ls, ls.expires, true
}

// adopt installs a session rehydrated from the durable log under its
// original id, sliding (or starting) its expiry window. A racing
// rehydration of the same id wins for both: the caller gets the entry
// that is already live.
func (st *sessionStore) adopt(ctx context.Context, id, name, specHash string, sess *advisor.Session) (*liveSession, time.Time, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	if ls, ok := st.byID[id]; ok {
		if now.After(ls.expires) {
			// The live entry expired while the caller was replaying: reap it
			// (tombstoning the log) instead of resurrecting it.
			st.reapLocked(ctx, id)
			return nil, time.Time{}, store.ErrTombstoned
		}
		ls.expires = now.Add(st.ttl)
		return ls, ls.expires, nil
	}
	if len(st.byID) >= st.cap {
		st.sweepLocked(ctx, now)
	}
	if len(st.byID) >= st.cap {
		st.rejected.Inc()
		return nil, time.Time{}, errSessionsFull
	}
	ls := &liveSession{
		id:       id,
		name:     name,
		sess:     sess,
		expires:  now.Add(st.ttl),
		specHash: specHash,
	}
	st.byID[id] = ls
	st.recovered.Inc()
	return ls, ls.expires, nil
}

// delete removes a session and tombstones its log, reporting whether it
// was live (expired sessions count as gone — they were tombstoned by
// the reap).
func (st *sessionStore) delete(ctx context.Context, id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	ls, ok := st.byID[id]
	if !ok {
		return false
	}
	if st.now().After(ls.expires) {
		st.reapLocked(ctx, id)
		return false
	}
	delete(st.byID, id)
	_ = st.log.Tombstone(ctx, id)
	return true
}

// drop removes a live entry without tombstoning — the desync escape
// hatch: when a durable append fails after the in-memory session already
// applied the event, the entry is dropped so the next access rehydrates
// from the acknowledged durable prefix.
func (st *sessionStore) drop(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.byID, id)
}
