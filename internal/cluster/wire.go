package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/advisor"
	"repro/internal/spec"
	"repro/internal/store"
)

// wirePathPrefix is where the store server mounts its operations:
// POST {prefix}{op}.
const wirePathPrefix = "/store/v1/"

// maxWireBytes bounds one wire message (either direction). Session
// specs are capped at 16 MiB by the service; doubling that leaves room
// for framing and replay responses.
const maxWireBytes = 32 << 20

// Wire operations, one per store.Store method.
const (
	opCreated      = "created"
	opEvent        = "event"
	opAdvised      = "advised"
	opTombstone    = "tombstone"
	opReplay       = "replay"
	opPut          = "put"
	opGet          = "get"
	opPutLeased    = "put-leased"
	opLeaseAcquire = "lease-acquire"
	opLeaseRenew   = "lease-renew"
	opLeaseRelease = "lease-release"
	opStats        = "stats"
)

// wireOps lists every operation in its fixed metrics order.
var wireOps = []string{
	opCreated, opEvent, opAdvised, opTombstone, opReplay,
	opPut, opGet, opPutLeased,
	opLeaseAcquire, opLeaseRenew, opLeaseRelease, opStats,
}

// retriableOps are the idempotent operations the client may retry on
// ErrUnavailable. Session-log appends and lease release are absent by
// design: a retried append whose first attempt landed would duplicate
// a log record, and a failed release is moot (the ttl reclaims it).
var retriableOps = map[string]bool{
	opReplay:       true,
	opPut:          true,
	opGet:          true,
	opPutLeased:    true,
	opLeaseAcquire: true,
	opLeaseRenew:   true,
	opStats:        true,
}

// wireRequest is the request payload of every operation; each op reads
// the fields it needs and rejects requests missing them.
type wireRequest struct {
	ID    string            `json:"id,omitempty"`    // session ops
	Spec  *spec.SessionSpec `json:"spec,omitempty"`  // created
	Event *advisor.Event    `json:"event,omitempty"` // event
	Key   string            `json:"key,omitempty"`   // result + lease ops
	Val   []byte            `json:"val,omitempty"`   // put, put-leased
	Owner string            `json:"owner,omitempty"` // lease-acquire
	TTLMS int64             `json:"ttl_ms,omitempty"`
	Lease *store.Lease      `json:"lease,omitempty"` // fenced ops
}

// wireResponse is the response payload. Err is set instead of the data
// fields when the operation answered a domain error. A replay's steps
// do not ride in this JSON header: they follow it in a frame of their
// own (see encodeResponse).
type wireResponse struct {
	Err   *wireError        `json:"err,omitempty"`
	Spec  *spec.SessionSpec `json:"spec,omitempty"`  // replay
	Val   []byte            `json:"val,omitempty"`   // get
	Found bool              `json:"found,omitempty"` // get
	Lease *store.Lease      `json:"lease,omitempty"` // lease-acquire
	Stats *store.Stats      `json:"stats,omitempty"` // stats

	steps []advisor.ReplayStep // replay, in the steps frame
}

// encodeResponse frames one response: the JSON header frame, followed,
// for a successful replay, by the steps frame.
func encodeResponse(op string, resp *wireResponse) ([]byte, error) {
	frame, err := encodeWire(resp)
	if err != nil || op != opReplay || resp.Err != nil {
		return frame, err
	}
	// A live session's steps take under 80 bytes each; a longer one only
	// makes the buffer grow.
	payload, err := appendWireSteps(make([]byte, 0, 80*len(resp.steps)+2), resp.steps)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode replay steps: %w", err)
	}
	return store.AppendFrame(append(make([]byte, 0, len(frame)+len(payload)+16), frame...), payload), nil
}

// decodeResponse is encodeResponse's strict inverse: exactly one header
// frame, plus exactly one steps frame when op is a replay the server
// answered without an error. Anything else is a *store.CorruptError.
func decodeResponse(op string, body []byte) (*wireResponse, error) {
	head, tail := body, []byte(nil)
	if op == opReplay {
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			head, tail = body[:nl+1], body[nl+1:]
		}
	}
	var resp wireResponse
	if err := decodeWire(head, &resp); err != nil {
		return nil, err
	}
	if op != opReplay || resp.Err != nil {
		if len(tail) > 0 {
			return nil, &store.CorruptError{Offset: len(head), Reason: "trailing data after the response frame"}
		}
		return &resp, nil
	}
	payload, err := store.DecodeFrame(tail)
	if err != nil {
		return nil, err
	}
	if resp.steps, err = decodeWireSteps(payload); err != nil {
		return nil, err
	}
	return &resp, nil
}

// appendWireSteps appends a replayed history's steps payload to dst: a
// JSON array with one element per step — null for a decision-point
// marker, the event's JSON object for an event. The bytes equal
// json.Marshal's for the matching []*advisor.Event.
func appendWireSteps(dst []byte, steps []advisor.ReplayStep) ([]byte, error) {
	dst = append(dst, '[')
	for i, st := range steps {
		if i > 0 {
			dst = append(dst, ',')
		}
		if st.Advised {
			dst = append(dst, "null"...)
			continue
		}
		var err error
		if dst, err = store.AppendEventJSON(dst, st.Event); err != nil {
			return nil, err
		}
	}
	return append(dst, ']'), nil
}

// decodeWireSteps decodes a steps payload. A payload in the canonical
// shape appendWireSteps writes takes the fast path; anything else is
// decoded strictly, and what the strict decode refuses is a
// *store.CorruptError.
func decodeWireSteps(payload []byte) ([]advisor.ReplayStep, error) {
	if steps, ok := parseWireSteps(payload); ok {
		return steps, nil
	}
	return decodeWireStepsStrict(payload)
}

// parseWireSteps is the fast path: canonical event objects (see
// store.CutEventJSON) and nulls, comma-separated in brackets, no
// whitespace. ok=false means the payload is not in that shape. When ok
// is true, decodeWireStepsStrict decodes the same steps
// (FuzzWireSteps pins this).
func parseWireSteps(b []byte) (steps []advisor.ReplayStep, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte("[")); !ok {
		return nil, false
	}
	// A live session's steps average well over 48 bytes each, so this
	// rarely grows, and it never reserves more memory than the payload
	// takes whatever the payload holds.
	steps = make([]advisor.ReplayStep, 0, len(b)/48)
	if len(b) == 1 && b[0] == ']' {
		return steps, true
	}
	for {
		if rest, isNull := bytes.CutPrefix(b, []byte("null")); isNull {
			steps = append(steps, advisor.ReplayStep{Advised: true})
			b = rest
		} else {
			var ev advisor.Event
			if ev, b, ok = store.CutEventJSON(b); !ok {
				return nil, false
			}
			steps = append(steps, advisor.ReplayStep{Event: ev})
		}
		switch {
		case len(b) == 1 && b[0] == ']':
			return steps, true
		case len(b) == 0 || b[0] != ',':
			return nil, false
		}
		b = b[1:]
	}
}

// decodeWireStepsStrict decodes a steps payload with the spec layer's
// strict JSON decoding. A missing array (null) is refused: a replay
// always carries its steps, even when there are none.
func decodeWireStepsStrict(payload []byte) ([]advisor.ReplayStep, error) {
	var evs []*advisor.Event
	if err := spec.DecodeStrict(bytes.NewReader(payload), &evs); err != nil {
		return nil, &store.CorruptError{Reason: fmt.Sprintf("wire steps: %v", err)}
	}
	if evs == nil {
		return nil, &store.CorruptError{Reason: "wire steps: not an array"}
	}
	steps := make([]advisor.ReplayStep, len(evs))
	for i, ev := range evs {
		if ev == nil {
			steps[i] = advisor.ReplayStep{Advised: true}
		} else {
			steps[i] = advisor.ReplayStep{Event: *ev}
		}
	}
	return steps, nil
}

// Wire error kinds: every store sentinel the service classifies on,
// plus the two non-domain outcomes.
const (
	kindNoSession  = "no_session"
	kindTombstoned = "tombstoned"
	kindExists     = "exists"
	kindClosed     = "closed"
	kindLeaseHeld  = "lease_held"
	kindLeaseStale = "lease_stale"
	kindCorrupt    = "corrupt"
	kindBadRequest = "bad_request"
	kindInternal   = "internal"
)

// wireError is a domain error on the wire: a kind the client lifts
// back into the matching store sentinel, plus the server's rendered
// message for operators.
type wireError struct {
	Kind   string `json:"kind"`
	Msg    string `json:"msg,omitempty"`
	Offset int    `json:"offset,omitempty"` // corrupt only
}

// toWireError lowers a store error onto the wire. Context
// cancellations are reported as internal: the server's handler context
// died, which the client sees alongside the broken connection anyway.
func toWireError(err error) *wireError {
	var ce *store.CorruptError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &ce):
		return &wireError{Kind: kindCorrupt, Msg: ce.Reason, Offset: ce.Offset}
	case errors.Is(err, store.ErrNoSession):
		return &wireError{Kind: kindNoSession, Msg: err.Error()}
	case errors.Is(err, store.ErrTombstoned):
		return &wireError{Kind: kindTombstoned, Msg: err.Error()}
	case errors.Is(err, store.ErrSessionExists):
		return &wireError{Kind: kindExists, Msg: err.Error()}
	case errors.Is(err, store.ErrClosed):
		return &wireError{Kind: kindClosed, Msg: err.Error()}
	case errors.Is(err, store.ErrLeaseHeld):
		return &wireError{Kind: kindLeaseHeld, Msg: err.Error()}
	case errors.Is(err, store.ErrLeaseStale):
		return &wireError{Kind: kindLeaseStale, Msg: err.Error()}
	default:
		return &wireError{Kind: kindInternal, Msg: err.Error()}
	}
}

// remoteError preserves the server's rendered message while unwrapping
// to the store sentinel the service classifies on.
type remoteError struct {
	msg  string
	base error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.base }

// lift raises a wire error back into a Go error. Sentinel kinds keep
// their errors.Is identity; corrupt kinds become a *store.CorruptError
// again; everything else is opaque.
func (e *wireError) lift() error {
	var base error
	switch e.Kind {
	case kindNoSession:
		base = store.ErrNoSession
	case kindTombstoned:
		base = store.ErrTombstoned
	case kindExists:
		base = store.ErrSessionExists
	case kindClosed:
		base = store.ErrClosed
	case kindLeaseHeld:
		base = store.ErrLeaseHeld
	case kindLeaseStale:
		base = store.ErrLeaseStale
	case kindCorrupt:
		return &store.CorruptError{Offset: e.Offset, Reason: e.Msg}
	default:
		return fmt.Errorf("cluster: remote error (%s): %s", e.Kind, e.Msg)
	}
	msg := e.Msg
	if msg == "" {
		msg = base.Error()
	}
	return &remoteError{msg: msg, base: base}
}

// encodeWire frames one wire message: compact JSON inside the store's
// CRC framing.
func encodeWire(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode wire message: %w", err)
	}
	return store.EncodeFrame(payload), nil
}

// decodeWire decodes one framed wire message strictly: a checksum
// failure or a payload with unknown fields is a *store.CorruptError,
// never silently accepted.
func decodeWire(data []byte, v any) error {
	payload, err := store.DecodeFrame(data)
	if err != nil {
		return err
	}
	if err := spec.DecodeStrict(bytes.NewReader(payload), v); err != nil {
		return &store.CorruptError{Reason: fmt.Sprintf("wire payload: %v", err)}
	}
	return nil
}
