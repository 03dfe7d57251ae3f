package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// Event is one friend-request lifecycle event (§II of the paper, Fig 1):
// a user sends a request, and the recipient accepts, rejects, or ignores
// it. From is always the request's sender and To its recipient; the Type
// describes what the recipient did. The paper treats an ignored request as
// a soft rejection, and so does the server: reject and ignore both become
// a rejection edge ⟨To, From⟩ on the augmented graph.
type Event struct {
	// Type is one of "request", "accept", "reject", "ignore".
	Type string `json:"type"`
	// From is the user that sent the friend request, To its recipient.
	From graph.NodeID `json:"from"`
	To   graph.NodeID `json:"to"`
	// Interval is the detection time interval the event belongs to (§VII);
	// requests answered in interval i are detected against interval i's
	// shard.
	Interval int `json:"interval"`
}

// Lifecycle event types.
const (
	EvRequest = "request"
	EvAccept  = "accept"
	EvReject  = "reject"
	EvIgnore  = "ignore"
)

// eventWire is the decode target: int64 fields so that out-of-range IDs
// are caught by validation instead of being silently truncated to int32.
type eventWire struct {
	Type     string `json:"type"`
	From     int64  `json:"from"`
	To       int64  `json:"to"`
	Interval int64  `json:"interval"`
}

func (w eventWire) check() (Event, error) {
	switch w.Type {
	case EvRequest, EvAccept, EvReject, EvIgnore:
	default:
		return Event{}, fmt.Errorf("server: unknown event type %q", w.Type)
	}
	if w.From < 0 || w.From > math.MaxInt32 {
		return Event{}, fmt.Errorf("server: event %s: node ID %d out of range", w.Type, w.From)
	}
	if w.To < 0 || w.To > math.MaxInt32 {
		return Event{}, fmt.Errorf("server: event %s: node ID %d out of range", w.Type, w.To)
	}
	if w.From == w.To {
		return Event{}, fmt.Errorf("server: event %s: self-request at node %d", w.Type, w.From)
	}
	if w.Interval < 0 || w.Interval > math.MaxInt32 {
		return Event{}, fmt.Errorf("server: event %s: interval %d out of range", w.Type, w.Interval)
	}
	return Event{
		Type:     w.Type,
		From:     graph.NodeID(w.From),
		To:       graph.NodeID(w.To),
		Interval: int(w.Interval),
	}, nil
}

// ParseEvents decodes the body of a POST /v1/events request: either a
// single JSON event object or a JSON array of them. Every decoded event is
// structurally validated (known type, int32-range node IDs, no
// self-requests, non-negative interval); node IDs are NOT checked against
// any particular graph — the server does that at ingest time.
func ParseEvents(data []byte) ([]Event, error) {
	return parseEventsInto(make([]Event, 0, eventCountHint(data)), data)
}

// minEventBytes is the shortest object the scanner accepts,
// {"type":"accept","to":1}.
const minEventBytes = 24

// eventCountHint bounds the number of events the scanner can find in data:
// exact for every body it accepts (one '{' per event), and never more than
// the body's length allows, so a hostile body cannot size the allocation.
func eventCountHint(data []byte) int {
	return min(bytes.Count(data, []byte{'{'}), len(data)/minEventBytes+1)
}

// parseEventsInto is ParseEvents appending to dst[:0], which the ingest
// handler pools. The scanner takes the bodies real senders produce; any
// body it declines goes through encoding/json, which therefore owns every
// error message and every corner of JSON semantics.
func parseEventsInto(dst []Event, data []byte) ([]Event, error) {
	if events, ok := scanEvents(dst[:0], data); ok {
		return events, nil
	}
	return parseEventsJSON(dst[:0], data)
}

// parseEventsJSON is the reference decoder: encoding/json into eventWire,
// then check.
func parseEventsJSON(dst []Event, data []byte) ([]Event, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("server: empty event body")
	}
	var wires []eventWire
	if trimmed[0] == '[' {
		if err := strictUnmarshal(trimmed, &wires); err != nil {
			return nil, fmt.Errorf("server: decoding event array: %w", err)
		}
	} else {
		var w eventWire
		if err := strictUnmarshal(trimmed, &w); err != nil {
			return nil, fmt.Errorf("server: decoding event: %w", err)
		}
		wires = []eventWire{w}
	}
	for i, w := range wires {
		ev, err := w.check()
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		dst = append(dst, ev)
	}
	return dst, nil
}

// scanEvents is the single-pass decoder for the wire shape senders
// actually produce: one object or an array of objects whose keys are
// exactly "type", "from", "to", "interval" (each at most once, any order,
// the numeric ones optional as in encoding/json), whose numbers are plain
// non-negative integer literals and whose type is one of the four Ev*
// constants spelled without escapes. It allocates nothing: Type is
// assigned from the constants. Everything else — and every event that
// fails check's range rules — makes it decline (ok false), leaving dst's
// contents unspecified.
func scanEvents(dst []Event, data []byte) (events []Event, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) {
		return nil, false
	}
	if data[i] != '[' {
		dst, i, ok = scanEvent(dst, data, i)
		return dst, ok && skipSpace(data, i) == len(data)
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return dst, skipSpace(data, i+1) == len(data)
	}
	for {
		if dst, i, ok = scanEvent(dst, data, i); !ok {
			return nil, false
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return nil, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return dst, skipSpace(data, i+1) == len(data)
		default:
			return nil, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// The keys and type values the scanner knows, quotes included: it matches
// them byte for byte, so an escape or a case variant is simply no match.
const (
	litType     = `"type"`
	litFrom     = `"from"`
	litTo       = `"to"`
	litInterval = `"interval"`

	litRequest = `"` + EvRequest + `"`
	litAccept  = `"` + EvAccept + `"`
	litReject  = `"` + EvReject + `"`
	litIgnore  = `"` + EvIgnore + `"`
)

// Key bits of one scanned object.
const (
	seenType = 1 << iota
	seenFrom
	seenTo
	seenInterval
)

// hasLit reports whether data[i:] starts with lit.
func hasLit(data []byte, i int, lit string) bool {
	return len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}

// scanEvent decodes the object starting at data[i] and appends it to dst,
// returning the index just past its closing brace.
func scanEvent(dst []Event, data []byte, i int) ([]Event, int, bool) {
	if i >= len(data) || data[i] != '{' {
		return dst, i, false
	}
	var (
		ev   Event
		seen uint
	)
	i = skipSpace(data, i+1)
	for {
		var key uint
		switch {
		case hasLit(data, i, litType):
			key, i = seenType, i+len(litType)
		case hasLit(data, i, litFrom):
			key, i = seenFrom, i+len(litFrom)
		case hasLit(data, i, litTo):
			key, i = seenTo, i+len(litTo)
		case hasLit(data, i, litInterval):
			key, i = seenInterval, i+len(litInterval)
		}
		if key == 0 || seen&key != 0 {
			return dst, i, false
		}
		seen |= key
		i = skipSpace(data, i)
		if i == len(data) || data[i] != ':' {
			return dst, i, false
		}
		i = skipSpace(data, i+1)

		if key == seenType {
			switch {
			case hasLit(data, i, litRequest):
				ev.Type, i = EvRequest, i+len(litRequest)
			case hasLit(data, i, litAccept):
				ev.Type, i = EvAccept, i+len(litAccept)
			case hasLit(data, i, litReject):
				ev.Type, i = EvReject, i+len(litReject)
			case hasLit(data, i, litIgnore):
				ev.Type, i = EvIgnore, i+len(litIgnore)
			default:
				return dst, i, false
			}
		} else {
			// A plain integer literal in [0, MaxInt32]: no sign, no
			// leading zero, and whatever follows the digits must be
			// the comma or brace checked below — so no fraction or
			// exponent either.
			start := i
			var v int64
			for i < len(data) && data[i]-'0' <= 9 {
				v = v*10 + int64(data[i]-'0')
				if v > math.MaxInt32 {
					return dst, i, false
				}
				i++
			}
			if i == start || (data[start] == '0' && i > start+1) {
				return dst, i, false
			}
			switch key {
			case seenFrom:
				ev.From = graph.NodeID(v)
			case seenTo:
				ev.To = graph.NodeID(v)
			default:
				ev.Interval = int(v)
			}
		}

		i = skipSpace(data, i)
		if i == len(data) {
			return dst, i, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			if seen&seenType == 0 || ev.From == ev.To {
				return dst, i, false
			}
			return append(dst, ev), i + 1, true
		default:
			return dst, i, false
		}
	}
}

// strictUnmarshal rejects trailing garbage after the JSON value, which
// plain json.Unmarshal would too — but via a decoder so we can also keep
// number decoding strict (no floats smuggled into ID fields).
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// answer folds one lifecycle event into the answered request it produces,
// if any. A "request" event produces nothing; accept/reject/ignore events
// (validated upstream) each produce one core.TimedRequest, whether or not
// a request was seen first, since an OSN may backfill history. The fold
// is a pure function of the event — the property the replay harness leans
// on: the server's ingest loop and the batch Replay path run this exact
// code, so their answered-request logs are identical by construction.
func answer(ev Event) (core.TimedRequest, bool) {
	if ev.Type == EvRequest {
		return core.TimedRequest{}, false
	}
	return core.TimedRequest{
		From:     ev.From,
		To:       ev.To,
		Accepted: ev.Type == EvAccept,
		Interval: ev.Interval,
	}, true
}

// EventsToRequests folds a lifecycle event log into the answered-request
// journal it produces, in log order. It is the pure-replay counterpart of
// the server's ingest loop.
func EventsToRequests(events []Event) []core.TimedRequest {
	var out []core.TimedRequest
	for _, ev := range events {
		if req, ok := answer(ev); ok {
			out = append(out, req)
		}
	}
	return out
}
