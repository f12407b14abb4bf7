package store

import (
	"errors"
	"fmt"
	"time"
)

// Lease errors. Like the session-log sentinels these are wrapped by the
// backends so callers classify with errors.Is.
var (
	// ErrLeaseHeld reports an AcquireLease on a key whose lease is live
	// and owned by someone else.
	ErrLeaseHeld = errors.New("store: lease is held")
	// ErrLeaseStale reports an operation carrying a fencing token the
	// store has moved past: the lease was reclaimed (or never existed),
	// so the caller must stop writing and re-acquire.
	ErrLeaseStale = errors.New("store: lease token is stale")
	// ErrUnavailable reports that the backend itself cannot be reached —
	// a remote store that is down or timing out, as opposed to a domain
	// answer like ErrNoSession or a *CorruptError. The service maps it to
	// 503: the request may succeed on retry, nothing is corrupt.
	ErrUnavailable = errors.New("store: backend unavailable")
)

// Lease is a held claim on a key. Token is the monotonic fencing token:
// every reclaim of the key bumps it, so a writer presenting an old
// token is rejected (ErrLeaseStale) even if it believes it still holds
// the lease. Callers treat Lease as an opaque capability — hold it,
// renew it, pass it to PutLeased — and never synthesize one.
type Lease struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Token uint64 `json:"token"`
}

// validLeaseArgs rejects degenerate lease parameters up front, the
// same way on every backend, so a bug never turns into a zero-ttl
// lease that is born expired.
func validLeaseArgs(key, owner string, ttl time.Duration) error {
	switch {
	case key == "":
		return errors.New("store: lease with an empty key")
	case owner == "":
		return errors.New("store: lease with an empty owner")
	case ttl <= 0:
		return fmt.Errorf("store: lease ttl %v is not positive", ttl)
	}
	return nil
}

// leaseState is one key's lease bookkeeping, shared by the in-memory
// table of both local backends. The token survives release and expiry:
// monotonicity is the whole point.
type leaseState struct {
	owner    string
	token    uint64
	exp      time.Time // zero when released
	released bool
}

// live reports whether the lease currently excludes other acquirers.
func (s *leaseState) live(now time.Time) bool {
	return !s.released && now.Before(s.exp)
}

// leaseTable is the shared lease engine: both local backends hold one
// under their store mutex and differ only in whether transitions are
// journaled. All methods assume the caller holds the store lock.
type leaseTable struct {
	leases map[string]*leaseState
}

func newLeaseTable() leaseTable {
	return leaseTable{leases: make(map[string]*leaseState)}
}

// acquire runs the acquire state transition. reclaimed reports that a
// previously-held (expired, unreleased) lease was taken over.
func (t *leaseTable) acquire(key, owner string, ttl time.Duration, now time.Time) (Lease, bool, error) {
	s, ok := t.leases[key]
	if !ok {
		s = &leaseState{}
		t.leases[key] = s
	}
	if s.token != 0 && s.live(now) {
		if s.owner != owner {
			return Lease{}, false, ErrLeaseHeld
		}
		// Idempotent re-acquire by the holder: extend, same token.
		s.exp = now.Add(ttl)
		return Lease{Key: key, Owner: owner, Token: s.token}, false, nil
	}
	reclaimed := s.token != 0 && !s.released
	s.owner = owner
	s.token++
	s.exp = now.Add(ttl)
	s.released = false
	return Lease{Key: key, Owner: owner, Token: s.token}, reclaimed, nil
}

// renew runs the renew transition.
func (t *leaseTable) renew(l Lease, ttl time.Duration, now time.Time) error {
	s, ok := t.leases[l.Key]
	if !ok || s.token != l.Token || s.released {
		return ErrLeaseStale
	}
	s.exp = now.Add(ttl)
	return nil
}

// release runs the release transition.
func (t *leaseTable) release(l Lease) error {
	s, ok := t.leases[l.Key]
	if !ok || s.token != l.Token || s.released {
		return ErrLeaseStale
	}
	s.released = true
	s.exp = time.Time{}
	return nil
}

// check reports whether a fenced write under l may proceed.
func (t *leaseTable) check(l Lease) error {
	s, ok := t.leases[l.Key]
	if !ok || s.token != l.Token || s.released {
		return ErrLeaseStale
	}
	return nil
}

// snapshot returns the current state of key's lease for journaling.
func (t *leaseTable) snapshot(key string) leaseState {
	s := t.leases[key]
	return *s
}
