package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/advisor"
	"repro/internal/spec"
)

// Session-log record kinds (the "kind" field of sessionRecord).
const (
	recCreated   = "created"
	recEvent     = "event"
	recAdvised   = "advised"
	recTombstone = "tombstone"
)

// sessionRecord is the JSON payload of one session-log frame.
type sessionRecord struct {
	Kind  string            `json:"kind"`
	Spec  *spec.SessionSpec `json:"spec,omitempty"`  // kind == created
	Event *advisor.Event    `json:"event,omitempty"` // kind == event
}

// kvRecord is the JSON payload of one result-segment frame. Val is
// base64-coded by encoding/json, which keeps arbitrary value bytes —
// newlines included — safe inside the one-line frame.
type kvRecord struct {
	Key string `json:"key"`
	Val []byte `json:"val"`
}

// encodeKVRecord marshals a result record into its framed line.
func encodeKVRecord(key string, val []byte) ([]byte, error) {
	payload, err := json.Marshal(kvRecord{Key: key, Val: val})
	if err != nil {
		return nil, fmt.Errorf("store: encode result record: %w", err)
	}
	return appendFrame(nil, payload), nil
}

// decodeKVRecord strictly unmarshals one result-record payload.
func decodeKVRecord(payload []byte, off int) (kvRecord, error) {
	var rec kvRecord
	if err := strictUnmarshal(payload, &rec); err != nil {
		return rec, &CorruptError{Offset: off, Reason: fmt.Sprintf("result record: %v", err)}
	}
	if rec.Key == "" {
		return rec, &CorruptError{Offset: off, Reason: "result record without a key"}
	}
	return rec, nil
}

// leaseRecord is the JSON payload of one leases.log frame: a key's
// full lease state after a transition. Replay folds the journal with
// last-record-wins, so the file is a state log, not a delta log, and
// token monotonicity survives a restart.
type leaseRecord struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Token uint64 `json:"token"`
	// ExpUnixMS is the lease expiry on the store's clock in Unix
	// milliseconds; 0 means the lease was released.
	ExpUnixMS int64 `json:"exp_ms"`
}

// encodeLeaseRecord marshals a lease record into its framed line.
func encodeLeaseRecord(rec leaseRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode lease record: %w", err)
	}
	return appendFrame(nil, payload), nil
}

// decodeLeaseRecord strictly unmarshals one lease-record payload.
func decodeLeaseRecord(payload []byte, off int) (leaseRecord, error) {
	var rec leaseRecord
	if err := strictUnmarshal(payload, &rec); err != nil {
		return rec, &CorruptError{Offset: off, Reason: fmt.Sprintf("lease record: %v", err)}
	}
	if rec.Key == "" || rec.Token == 0 {
		return rec, &CorruptError{Offset: off, Reason: "lease record without a key or token"}
	}
	return rec, nil
}

// CorruptError reports a damaged log: a terminated line whose frame,
// checksum or payload does not decode. It is never produced by a torn
// tail (see doc.go), which is repaired, not reported.
type CorruptError struct {
	// Offset is the byte offset of the bad line within the log.
	Offset int
	// Reason describes the failed check.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms we care about.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the per-record framing cost: 8 hex CRC chars, one
// space, one newline.
const frameOverhead = 10

// appendFrame appends payload's frame to dst:
// "<crc32c hex8> <payload>\n". The payload must not contain a newline
// (compact JSON never does).
func appendFrame(dst, payload []byte) []byte {
	var crc [4]byte
	sum := crc32.Checksum(payload, crcTable)
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	dst = hex.AppendEncode(dst, crc[:])
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// frame is one decoded record: the payload bytes and their offset
// within the log (FileStore's Get serves values by offset).
type frame struct {
	payload []byte
	off     int
}

// decodeFrames decodes a log image into its frames. torn is the length
// of an unterminated trailing fragment — the crash artifact the caller
// truncates away — and is 0 for a cleanly terminated log. Any defect in
// a terminated line is a *CorruptError; nothing is skipped.
func decodeFrames(data []byte) (frames []frame, torn int, err error) {
	frames = make([]frame, 0, bytes.Count(data, []byte{'\n'}))
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return frames, len(data) - off, nil
		}
		line := data[off : off+nl]
		if len(line) < frameOverhead-1 || line[8] != ' ' {
			return nil, 0, &CorruptError{Offset: off, Reason: "malformed frame header"}
		}
		// Canonical lowercase hex only: decoding is then the exact inverse
		// of appendFrame, which the fuzz target checks by re-encoding.
		for _, c := range line[:8] {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return nil, 0, &CorruptError{Offset: off, Reason: "checksum is not lowercase hex"}
			}
		}
		var want [4]byte
		if _, err := hex.Decode(want[:], line[:8]); err != nil {
			return nil, 0, &CorruptError{Offset: off, Reason: "checksum is not hex"}
		}
		payload := line[9:]
		sum := crc32.Checksum(payload, crcTable)
		got := [4]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)}
		if want != got {
			return nil, 0, &CorruptError{Offset: off, Reason: "checksum mismatch"}
		}
		frames = append(frames, frame{payload: payload, off: off + 9})
		off += nl + 1
	}
	return frames, 0, nil
}

// encodeSessionRecord marshals a session record into its framed line.
func encodeSessionRecord(rec sessionRecord) ([]byte, error) {
	payload, err := appendSessionRecord(nil, rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode session record: %w", err)
	}
	return appendFrame(nil, payload), nil
}

// decodeSessionRecord strictly unmarshals one session-record payload.
func decodeSessionRecord(payload []byte, off int) (sessionRecord, error) {
	var rec sessionRecord
	if err := strictUnmarshal(payload, &rec); err != nil {
		return rec, &CorruptError{Offset: off, Reason: fmt.Sprintf("session record: %v", err)}
	}
	switch rec.Kind {
	case recCreated:
		if rec.Spec == nil {
			return rec, &CorruptError{Offset: off, Reason: "created record without a spec"}
		}
	case recEvent:
		if rec.Event == nil {
			return rec, &CorruptError{Offset: off, Reason: "event record without an event"}
		}
	case recAdvised, recTombstone:
	default:
		return rec, &CorruptError{Offset: off, Reason: fmt.Sprintf("unknown record kind %q", rec.Kind)}
	}
	return rec, nil
}

// replayRecords folds a session log's frames into a SessionReplay,
// enforcing the log grammar: exactly one leading created record, then
// events and advised markers, with a tombstone terminal. Records after
// the first take the canonical fast path when they are in its shape;
// every other record is decoded by decodeSessionRecord.
func replayRecords(frames []frame) (*SessionReplay, error) {
	if len(frames) == 0 {
		return nil, ErrNoSession
	}
	rep := &SessionReplay{Steps: make([]advisor.ReplayStep, 0, len(frames)-1)}
	for i, fr := range frames {
		if i > 0 {
			if step, ok := parseCanonicalStep(fr.payload); ok {
				rep.Steps = append(rep.Steps, step)
				continue
			}
		}
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

// EncodeFrame frames one payload with the store's CRC discipline:
// "<crc32c hex8> <payload>\n". The payload must be newline-free
// (compact JSON always is). The cluster wire protocol reuses this
// framing so a message damaged in flight fails its checksum exactly
// like a damaged log record.
func EncodeFrame(payload []byte) []byte { return appendFrame(nil, payload) }

// AppendFrame appends payload's frame (see EncodeFrame) to dst.
func AppendFrame(dst, payload []byte) []byte { return appendFrame(dst, payload) }

// DecodeFrame decodes exactly one cleanly terminated frame, the
// inverse of EncodeFrame. A truncated, trailing-garbage or
// checksum-failing image answers a *CorruptError.
func DecodeFrame(data []byte) ([]byte, error) {
	frames, torn, err := decodeFrames(data)
	if err != nil {
		return nil, err
	}
	if torn > 0 {
		return nil, &CorruptError{Offset: len(data) - torn, Reason: "unterminated frame"}
	}
	if len(frames) != 1 {
		return nil, &CorruptError{Offset: 0, Reason: fmt.Sprintf("want exactly 1 frame, have %d", len(frames))}
	}
	return frames[0].payload, nil
}

// strictUnmarshal is the spec layer's strict decode over a byte slice:
// unknown fields and trailing data are errors, so a log written by a
// newer record schema fails loudly instead of silently dropping fields.
func strictUnmarshal(data []byte, v any) error {
	return spec.DecodeStrict(bytes.NewReader(data), v)
}
