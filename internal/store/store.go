package store

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/spec"
)

// Typed store errors. Backends wrap these so the service layer can
// errors.Is-classify without string matching.
var (
	// ErrNoSession reports an operation on a session the store has never
	// seen (or whose log is gone).
	ErrNoSession = errors.New("store: no such session")
	// ErrTombstoned reports an operation on a session that was ended by a
	// tombstone record; it is never resurrectable.
	ErrTombstoned = errors.New("store: session is tombstoned")
	// ErrSessionExists reports an AppendCreated for an id that already has
	// a log.
	ErrSessionExists = errors.New("store: session already exists")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: store is closed")
)

// SessionReplay is a session's full recorded history: the spec it was
// compiled from and the steps to re-apply, in order.
type SessionReplay struct {
	// Spec is the creating record's declarative session spec.
	Spec *spec.SessionSpec
	// Steps are the recorded events and decision points, oldest first —
	// exactly what Advisor.ReplaySession consumes.
	Steps []advisor.ReplayStep
}

// SessionLog is the append-only session journal. Appends for a session
// are accepted only while the store considers it open in this process —
// after AppendCreated, or after a successful Replay — which keeps a
// process from blindly extending a log it has never read.
//
// Every method takes the caller's context for observability (request-id
// correlation and spans around append/fsync/replay). Durability is not
// context-interruptible: a backend that has started writing a record
// finishes it rather than tearing the log.
type SessionLog interface {
	// AppendCreated begins session id's log with its creating spec. The
	// id must be a fresh one; an existing log answers ErrSessionExists.
	AppendCreated(ctx context.Context, id string, ss *spec.SessionSpec) error
	// AppendEvent appends one accepted advisor event.
	AppendEvent(ctx context.Context, id string, ev advisor.Event) error
	// AppendAdvised records a decision point at which the policy was
	// consulted (see doc.go: replay must consult it at the same points).
	AppendAdvised(ctx context.Context, id string) error
	// Tombstone terminates the log: every later Replay answers
	// ErrTombstoned. Tombstoning a tombstoned session is ErrTombstoned;
	// an unknown one is ErrNoSession.
	Tombstone(ctx context.Context, id string) error
	// Replay returns the session's recorded history and marks it open for
	// appends. Unknown sessions answer ErrNoSession, ended ones
	// ErrTombstoned, damaged logs a *CorruptError.
	Replay(ctx context.Context, id string) (*SessionReplay, error)
}

// ResultStore is the content-addressed result KV: Put is durable before
// it returns, Get reports a miss with ok=false (an error means the
// store itself failed).
type ResultStore interface {
	Put(ctx context.Context, key string, val []byte) error
	Get(ctx context.Context, key string) (val []byte, ok bool, err error)
}

// Store is the full persistence layer the service mounts: both faces,
// the lease face, lifecycle and counters.
//
// The lease face is how a worker fleet coordinates ownership of work
// items (sweep-job cells) instead of one process owning the run. The
// contract, uniform across MemStore, FileStore and RemoteStore:
//
//   - AcquireLease grants the key's lease for ttl. A live lease by
//     another owner answers ErrLeaseHeld. Re-acquiring one's own live
//     lease extends it and returns the same token (acquire is
//     owner-idempotent, hence safe to retry over a lossy wire). An
//     expired or released lease is reclaimed: the token increments and
//     the new owner proceeds — the increment is what fences the
//     previous holder's writes.
//   - RenewLease extends the lease's expiry while its token is still
//     current. A token the store has moved past answers ErrLeaseStale.
//     Renewal revives an expired-but-not-yet-reclaimed lease: expiry
//     alone is not the fencing criterion, losing the token is.
//   - ReleaseLease ends the lease early so the next acquirer does not
//     wait out the ttl. Releasing with a stale token answers
//     ErrLeaseStale; the release is then moot (someone else owns it).
//   - PutLeased writes through the ResultStore under the lease's
//     fence: the write happens only if l.Token is still the key's
//     current token, else ErrLeaseStale and no write. An expired lease
//     whose token was never reclaimed still writes — see above.
//
// TTLs are measured on the store's clock, not the client's, so
// replicas with skewed clocks still agree on expiry.
type Store interface {
	SessionLog
	ResultStore
	AcquireLease(ctx context.Context, key, owner string, ttl time.Duration) (Lease, error)
	RenewLease(ctx context.Context, l Lease, ttl time.Duration) error
	ReleaseLease(ctx context.Context, l Lease) error
	PutLeased(ctx context.Context, l Lease, key string, val []byte) error
	// Stats snapshots the store's operation counters.
	Stats() Stats
	// Close releases the backend. Further operations answer ErrClosed.
	Close() error
}

// Stats is a point-in-time snapshot of a store's operation counters,
// surfaced on /metrics by the service.
type Stats struct {
	// Appends counts session-log records durably appended (created,
	// event, advised and tombstone records alike).
	Appends uint64
	// Replays counts session logs replayed.
	Replays uint64
	// Puts and Gets count result-store writes and lookups (hits and
	// misses both count as a Get).
	Puts, Gets uint64
	// Lease-face counters (see Store). Acquired counts granted
	// acquires (including reclaims and idempotent holder re-acquires);
	// Reclaimed the subset that took over an expired lease; Stale every
	// fencing rejection (ErrLeaseStale) across renew/release/PutLeased.
	LeaseAcquired, LeaseRenewed, LeaseReleased uint64
	LeaseReclaimed, LeaseStale                 uint64
}

// counters is the atomic tally embedded by both backends.
type counters struct {
	appends        atomic.Uint64
	replays        atomic.Uint64
	puts           atomic.Uint64
	gets           atomic.Uint64
	leaseAcquired  atomic.Uint64
	leaseRenewed   atomic.Uint64
	leaseReleased  atomic.Uint64
	leaseReclaimed atomic.Uint64
	leaseStale     atomic.Uint64
}

func (c *counters) Stats() Stats {
	return Stats{
		Appends:        c.appends.Load(),
		Replays:        c.replays.Load(),
		Puts:           c.puts.Load(),
		Gets:           c.gets.Load(),
		LeaseAcquired:  c.leaseAcquired.Load(),
		LeaseRenewed:   c.leaseRenewed.Load(),
		LeaseReleased:  c.leaseReleased.Load(),
		LeaseReclaimed: c.leaseReclaimed.Load(),
		LeaseStale:     c.leaseStale.Load(),
	}
}

// countLeaseErr tallies a fencing rejection.
func (c *counters) countLeaseErr(err error) error {
	if errors.Is(err, ErrLeaseStale) {
		c.leaseStale.Add(1)
	}
	return err
}
