// Package store is the durable persistence layer behind the serving
// tier: an append-only session event log and a content-addressed result
// store, each with an in-memory backend (MemStore — the previous
// in-process behavior, and the test double) and a stdlib-only on-disk
// backend (FileStore). The interface is deliberately small so a
// bbolt/SQLite/Redis backend can slot in later without touching the
// service layer.
//
// # Replay is recovery
//
// The advisor layer's equivalence suite (PR 5) proves that a Session
// replayed from its event stream is bit-identical to the session that
// produced it. Durability therefore does not snapshot advisor state —
// it journals the inputs:
//
//   - a "created" record carrying the declarative spec.SessionSpec the
//     session was compiled from,
//   - one "event" record per accepted advisor.Event, appended before the
//     resulting decision is released to the client,
//   - an "advised" record at every decision point where the policy was
//     actually consulted (policies such as DPNextFailure advance an
//     internal plan cursor in NextChunk, so a faithful replay must
//     consult the policy at exactly the recorded points, no more and no
//     fewer),
//   - a terminal "tombstone" record written by DELETE and by TTL
//     eviction, after which the session is never resurrectable.
//
// A restarted server rehydrates a requested session lazily: Replay
// returns the spec and the recorded steps, the service recompiles the
// advisor through the same registry and engine cache, and
// Advisor.ReplaySession re-applies the steps. The recovered session's
// next decision is byte-identical to the uninterrupted one.
//
// The result store is a flat content-addressed KV keyed by
// spec.CanonicalCellHash (experiment canonical hash + cell index): a
// sweep job persists each rendered cell as it completes, in the
// deterministic expansion order, so the completed set is always a
// prefix. Re-submitting an identical spec — or restarting a crashed
// server — re-runs only the missing suffix.
//
// # On-disk format
//
// FileStore keeps one framed-JSONL log per session under sessions/ and
// a sequence of append-only framed-JSONL segments under results/. Every
// record is one line:
//
//	<8 lowercase hex chars: CRC-32C of payload><space><compact JSON payload>\n
//
// Appends are a single write followed by fsync, so a record is durable
// before the HTTP response that depends on it. Two failure modes are
// distinguished on read:
//
//   - A torn tail — trailing bytes with no terminating newline — is the
//     signature of a crash mid-append. The record was never acknowledged,
//     so replay repairs the log by truncating the torn bytes and
//     continues.
//   - A corrupt terminated line (bad frame, CRC mismatch, malformed
//     JSON) is real corruption and surfaces as a *CorruptError; nothing
//     is silently skipped.
//
// # Canonical fast path
//
// A long session's log is almost all event records and advised
// markers, and cold recovery (Replay) decodes every one of them. Those
// two record shapes have a hand-written codec (codec.go):
//
//   - The encoder writes the bytes json.Marshal writes for the record,
//     and refuses what json.Marshal refuses (a NaN or infinite time or
//     work) with json.Marshal's error. On-disk logs are byte-identical
//     to the encoding/json ones, so logs from either era replay.
//   - The decoder accepts only the canonical bytes:
//     {"kind":"advised"} and
//     {"kind":"event","event":{"kind":K,"time":T[,"work":W][,"unit":U]}},
//     fields in that order and no whitespace, K printable ASCII that
//     encoding/json neither escapes nor HTML-escapes, T and W numbers in
//     the JSON grammar and U a JSON integer that fits an int.
//
// Every other payload — created and tombstone records, and any event
// or advised record that is valid JSON in another shape (reordered or
// upper-case keys, whitespace, an escaped string, an out-of-range
// number) — goes to the strict encoding/json decoder, unchanged. The
// strict decoder is the fallback, not a mode: there is no option to
// pick one or the other.
//
// The equivalence contract, pinned by FuzzSessionRecordCodec: when the
// fast decoder accepts a payload, the strict decoder accepts it as the
// same step, floats equal bit for bit; replaying any log through the
// fast path answers what the strict decoder alone answers — the same
// history, or the same error with the same *CorruptError offset and
// reason.
//
// Segment files rotate at Options.SegmentBytes; only the last (active)
// segment may carry a torn tail — a torn or corrupt sealed segment is an
// error at Open.
//
// FileStore assumes a single process owns the directory (the service
// holds it for the server's lifetime); it does not implement file
// locking. Appends serialize on one mutex, fsync included — durability
// over throughput, which is noise next to an engine evaluation.
package store
