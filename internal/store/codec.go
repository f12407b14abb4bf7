package store

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/advisor"
)

// The session-history codec. A long session's log is almost entirely
// event records and advised markers, and cold recovery decodes every
// one of them, so those two shapes have a hand-written codec (see
// doc.go, "Canonical fast path"). Everything else — created and
// tombstone records, and any payload that is not byte-for-byte in the
// canonical shape — goes through json.Marshal and strictUnmarshal.

// Canonical payloads of the two hot record shapes.
const (
	advisedPayload = `{"kind":"advised"}`
	eventPrefix    = `{"kind":"event","event":`
)

// appendSessionRecord appends rec's compact JSON payload to dst. The
// bytes equal json.Marshal(rec)'s, and so does the error of a record
// json.Marshal refuses.
func appendSessionRecord(dst []byte, rec sessionRecord) ([]byte, error) {
	switch {
	case rec.Kind == recAdvised && rec.Spec == nil && rec.Event == nil:
		return append(dst, advisedPayload...), nil
	case rec.Kind == recEvent && rec.Spec == nil && rec.Event != nil:
		dst, err := AppendEventJSON(append(dst, eventPrefix...), *rec.Event)
		if err != nil {
			return nil, err
		}
		return append(dst, '}'), nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(dst, payload...), nil
}

// parseCanonicalStep decodes a payload in one of the two canonical hot
// shapes — {"kind":"advised"} or {"kind":"event","event":{...}} with a
// canonical event object (see CutEventJSON) — into its replay step.
// ok=false means the payload is not canonical; decodeSessionRecord then
// decides what it is. When ok is true, decodeSessionRecord accepts the
// same payload as the same step (FuzzSessionRecordCodec pins this).
func parseCanonicalStep(payload []byte) (step advisor.ReplayStep, ok bool) {
	if string(payload) == advisedPayload {
		return advisor.ReplayStep{Advised: true}, true
	}
	b, ok := bytes.CutPrefix(payload, []byte(eventPrefix))
	if !ok {
		return step, false
	}
	ev, rest, ok := CutEventJSON(b)
	if !ok || len(rest) != 1 || rest[0] != '}' {
		return step, false
	}
	return advisor.ReplayStep{Event: ev}, true
}

// AppendEventJSON appends ev's JSON object to dst. The bytes equal
// json.Marshal(ev)'s; an event json.Marshal refuses (a NaN or infinite
// time or work) answers json.Marshal's error.
func AppendEventJSON(dst []byte, ev advisor.Event) ([]byte, error) {
	if !plainString(string(ev.Kind)) || !finite(ev.Time) || !finite(ev.Work) {
		b, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		return append(dst, b...), nil
	}
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, ev.Kind...)
	dst = append(dst, `","time":`...)
	dst = appendFloat(dst, ev.Time)
	if ev.Work != 0 {
		dst = append(dst, `,"work":`...)
		dst = appendFloat(dst, ev.Work)
	}
	if ev.Unit != 0 {
		dst = append(dst, `,"unit":`...)
		dst = strconv.AppendInt(dst, int64(ev.Unit), 10)
	}
	return append(dst, '}'), nil
}

// CutEventJSON decodes the canonical event object at the start of b —
// {"kind":K,"time":T[,"work":W][,"unit":U]}, fields in that order, no
// whitespace, K a plain string (see plainString), T and W JSON numbers
// and U a JSON integer — and returns it with the bytes after it.
// ok=false means b does not start with a canonical event object (it may
// still be valid JSON; callers fall back to a strict decode). When ok
// is true a strict json decode of the object yields the same event.
func CutEventJSON(b []byte) (ev advisor.Event, rest []byte, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte(`{"kind":"`)); !ok {
		return ev, nil, false
	}
	n := 0
	for n < len(b) && plainByte(b[n]) {
		n++
	}
	if n == len(b) || b[n] != '"' {
		return ev, nil, false
	}
	ev.Kind = eventKind(b[:n])
	if ev.Time, b, ok = cutFloatField(b[n+1:], `,"time":`, true); !ok {
		return ev, nil, false
	}
	if ev.Work, b, ok = cutFloatField(b, `,"work":`, false); !ok {
		return ev, nil, false
	}
	if after, found := bytes.CutPrefix(b, []byte(`,"unit":`)); found {
		var num []byte
		if num, b, ok = cutNumber(after); !ok {
			return ev, nil, false
		}
		// encoding/json decodes an int with this call: a fraction, an
		// exponent or an overflow is its error, and the fallback's.
		u, err := strconv.ParseInt(string(num), 10, 0)
		if err != nil {
			return ev, nil, false
		}
		ev.Unit = int(u)
	}
	if len(b) == 0 || b[0] != '}' {
		return ev, nil, false
	}
	return ev, b[1:], true
}

// cutFloatField decodes `<name><number>` at the start of b. An absent
// optional field answers 0 and b unchanged.
func cutFloatField(b []byte, name string, required bool) (float64, []byte, bool) {
	num, found := bytes.CutPrefix(b, []byte(name))
	if !found {
		return 0, b, !required
	}
	num, rest, ok := cutNumber(num)
	if !ok {
		return 0, nil, false
	}
	// encoding/json decodes a float64 with exactly this call; an
	// out-of-range number is its error too, so it goes to the fallback.
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, nil, false
	}
	return f, rest, true
}

// cutNumber splits a JSON number (RFC 8259 grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) off the front of b.
func cutNumber(b []byte) (num, rest []byte, ok bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, nil, false
		}
		i = j
	}
	return b[:i], b[i:], true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendFloat is encoding/json's float64 encoding: the shortest
// round-trip form, in exponent notation below 1e-6 and from 1e21 up,
// with a one-digit negative exponent not zero-padded.
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// plainByte reports whether encoding/json writes b inside a string
// unescaped and decodes it as itself: printable ASCII except the quote,
// the backslash and the HTML-escaped <, > and &.
func plainByte(b byte) bool {
	return b >= 0x20 && b < 0x7f && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// eventKind returns the kind named by b, sharing the constants' strings
// so the hot kinds cost no allocation.
func eventKind(b []byte) advisor.EventKind {
	switch string(b) {
	case string(advisor.EventProgress):
		return advisor.EventProgress
	case string(advisor.EventCheckpointed):
		return advisor.EventCheckpointed
	case string(advisor.EventFailure):
		return advisor.EventFailure
	case string(advisor.EventRecovered):
		return advisor.EventRecovered
	}
	return advisor.EventKind(b)
}
