// Package cluster turns the single-process store into a shared service:
// a store server that exposes the full store.Store contract (session
// log, result KV, lease face, counters) over HTTP, a RemoteStore client
// that mounts in internal/service exactly where a FileStore would, and
// a round-robin forwarder so N stateless chkpt-serve replicas can sit
// behind one address.
//
// A StoreServer serves a Backend, an alias of store.Store: every store
// carries the lease face, so the server needs nothing beyond it.
//
// # Wire protocol
//
// Every operation is one POST to /store/v1/{op} whose request and
// response bodies are a single CRC-framed compact-JSON line — the same
// "<crc32c hex8> <payload>\n" framing the durable logs use
// (store.EncodeFrame/DecodeFrame), so a message damaged in flight fails
// its checksum exactly like a damaged log record. Domain answers
// (ErrNoSession, ErrTombstoned, ErrSessionExists, ErrLeaseHeld,
// ErrLeaseStale, ...) ride inside a 200 response as a typed error kind
// and unwrap to the matching store sentinel on the client, so
// errors.Is-classification in the service is backend-agnostic.
// Transport failures — connection refused, timeouts, non-200 statuses —
// surface as store.ErrUnavailable ("the backend is down, retry later"),
// which the service maps to 503; a frame that fails its checksum
// surfaces as a *store.CorruptError ("something is damaged, do not
// retry"). The two are never conflated.
//
// # Replay response layout
//
// A replay is the one large message (a 10,000-event session answers
// about 700 KiB), so its steps do not ride inside the JSON header. A
// successful replay answers two frames:
//
//	<crc> {"spec":{...}}\n
//	<crc> [null,{"kind":"progress","time":12.5,"work":3},...]\n
//
// The first is the ordinary response header. The second is the steps
// payload: a JSON array with one element per recorded step, null for a
// decision-point marker and the advisor.Event object for an event,
// byte-identical to json.Marshal of the matching []*advisor.Event. A
// replay that answers a domain error (no such session, tombstoned)
// sends the header frame alone; every other operation answers exactly
// one frame.
//
// Both ends use the session-history codec of internal/store: the
// server writes each event with store.AppendEventJSON, and the client
// reads the array on a fast path (store.CutEventJSON for each event)
// that accepts only the canonical bytes the server writes. Anything
// else goes to a strict encoding/json decode, and what that refuses —
// like a missing, extra, truncated or checksum-failing frame — is a
// *store.CorruptError. FuzzWireSteps pins the fast path to the strict
// decode. Each frame carries its own CRC, and the whole body is still
// bounded by the 32 MiB wire cap (ErrResponseTooLarge beyond it).
//
// The client retries only idempotent operations (replay, get, put,
// fenced put, lease acquire/renew) on ErrUnavailable, with bounded
// jittered backoff. Session-log appends are never retried: an append
// whose first attempt landed but whose response was lost would be
// duplicated by a retry, and the log grammar has no way to dedupe it.
// Lease operations are safe to retry because acquire is
// owner-idempotent (the holder re-acquiring gets the same token) and
// renew/fenced-put carry the fencing token.
//
// # Leases, fencing, and replay equivalence
//
// Replica coordination rests on the store's lease face: a sweep runner
// claims a job through AcquireLease and writes every cell through
// PutLeased, so a replica that stalls past its ttl is fenced — the
// reclaiming replica's acquire bumps the key's monotonic token, and
// every write the stalled replica still has in flight is rejected with
// ErrLeaseStale. Completed cells therefore stay a prefix written by
// exactly one fleet member at a time, which is what keeps the durable
// sweep output byte-deterministic no matter how many replicas raced
// for the work.
//
// Sessions need no lease at all. The session log is append-once
// (AppendCreated on an existing id answers ErrSessionExists) and the
// advisor obeys the replay-equivalence contract: replaying a recorded
// history rebuilds a bit-identical session. A replica that loses the
// creation race — or that is asked about a session another replica
// created — simply replays the log and arrives at the same state the
// winner holds. Fencing tokens guarantee single-writer where writes
// must not repeat; replay equivalence makes reads location-transparent
// everywhere else.
package cluster
