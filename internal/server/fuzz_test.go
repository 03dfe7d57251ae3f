package server

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"repro/internal/graph"
)

// benchShapedBody encodes evs the way the benchmark's load generator does:
// a compact array, keys in type/from/to/interval order.
func benchShapedBody(evs []Event) []byte {
	buf := []byte{'['}
	for i, ev := range evs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"type":"`...)
		buf = append(buf, ev.Type...)
		buf = append(buf, `","from":`...)
		buf = strconv.AppendInt(buf, int64(ev.From), 10)
		buf = append(buf, `,"to":`...)
		buf = strconv.AppendInt(buf, int64(ev.To), 10)
		buf = append(buf, `,"interval":`...)
		buf = strconv.AppendInt(buf, int64(ev.Interval), 10)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

// sampleEvents is n valid events cycling through the four types.
func sampleEvents(n int) []Event {
	types := [...]string{EvRequest, EvAccept, EvReject, EvIgnore}
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Type: types[i%4], From: graph.NodeID(i * 7 % 16384), To: graph.NodeID(16384 + i%1000), Interval: i % 8}
	}
	return evs
}

// FuzzIngestEvent is a differential fuzz of the two decoders behind
// ParseEvents: for every body, whatever the single-pass scanner accepts
// must be exactly what encoding/json (parseEventsJSON, the oracle) decodes,
// and whatever the oracle refuses ParseEvents must refuse with the oracle's
// error. On top of that it keeps the older invariants: nothing panics,
// everything accepted satisfies what the rest of the server assumes (known
// type, int32-range non-negative IDs, no self-requests, non-negative
// interval), survives a marshal/parse round trip and folds through the
// lifecycle.
func FuzzIngestEvent(f *testing.F) {
	// Valid shapes: single object, array, each lifecycle type.
	f.Add([]byte(`{"type":"request","from":1,"to":2,"interval":0}`))
	f.Add([]byte(`{"type":"accept","from":1,"to":2,"interval":3}`))
	f.Add([]byte(`{"type":"reject","from":7,"to":4}`))
	f.Add([]byte(`{"type":"ignore","from":0,"to":2147483647,"interval":2147483647}`))
	f.Add([]byte(`[{"type":"request","from":1,"to":2},{"type":"accept","from":1,"to":2}]`))
	f.Add([]byte(`[]`))
	// Hostile shapes: the same classes the graphio corpus probes — overflow,
	// negatives, truncation bait, trailing garbage, wrong JSON kinds.
	f.Add([]byte(`{"type":"accept","from":2147483648,"to":1}`))
	f.Add([]byte(`{"type":"accept","from":99999999999,"to":1}`))
	f.Add([]byte(`{"type":"reject","from":-1,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":3,"to":3}`))
	f.Add([]byte(`{"type":"reject","from":0,"to":1,"interval":-4}`))
	f.Add([]byte(`{"type":"accept","from":0,"to":1} %`))
	f.Add([]byte(`{"type":"accept","from":1.5,"to":2}`))
	f.Add([]byte(`"accept"`))
	f.Add([]byte(`[{"type":"accept","from":0,"to":1},`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	// The scanner's boundary with the oracle: key order, whitespace, and
	// every construct it must decline rather than guess at.
	f.Add([]byte(`{"interval":5,"to":2,"from":1,"type":"ignore"}`))
	f.Add([]byte(`{"to":2,"type":"reject","interval":0,"from":1}`))
	f.Add([]byte(" \t\r\n[ \t\r\n{ \t\r\n\"type\" \t\r\n: \t\r\n\"accept\" \t\r\n, \t\r\n\"from\" \t\r\n: \t\r\n1 \t\r\n, \t\r\n\"to\" \t\r\n: \t\r\n2 \t\r\n} \t\r\n] \t\r\n"))
	f.Add([]byte("{\"type\":\"accept\",\"from\":1,\"to\":2}\v"))
	f.Add([]byte("\ufeff{\"type\":\"accept\",\"from\":1,\"to\":2}"))
	f.Add([]byte(`{"type":"\u0061ccept","from":1,"to":2}`))
	f.Add([]byte(`{"type":"acc\/ept","from":1,"to":2}`))
	f.Add([]byte(`{"t\u0079pe":"accept","from":1,"to":2}`))
	f.Add([]byte(`{"Type":"accept","From":1,"TO":2,"INTERVAL":4}`))
	f.Add([]byte(`{"type":"Accept","from":1,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":1,"from":5,"to":2}`))
	f.Add([]byte(`{"type":"accept","type":"reject","from":1,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":1,"to":2,"note":"hi"}`))
	f.Add([]byte(`{"type":"accept","from":1,"to":2,"extra":{"a":[1,2,{"b":null}]}}`))
	f.Add([]byte(`{"type":null,"from":1,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":null,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":1,"to":2,"interval":null}`))
	f.Add([]byte(`{"type":"accept","from":1e3,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":1E3,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":1.0,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":-0,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":007,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":00,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":+1,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":"1","to":2}`))
	f.Add([]byte(`{"type":"accept","from":2147483647,"to":2147483646,"interval":2147483647}`))
	f.Add([]byte(`{"type":"accept","from":1,"to":2,"interval":2147483648}`))
	f.Add([]byte(`{"type":"accept","from":9223372036854775807,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":9223372036854775808,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":18446744073709551616,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":[1],"to":2}`))
	f.Add([]byte(`{"type":{"v":"accept"},"from":1,"to":2}`))
	f.Add([]byte(`[[{"type":"accept","from":1,"to":2}]]`))
	f.Add([]byte(`[null]`))
	f.Add([]byte(`[{}]`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"type":"accept"}`))
	f.Add([]byte(`{"from":1,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":1,"to":2,}`))
	f.Add([]byte(`[{"type":"accept","from":1,"to":2},]`))
	f.Add([]byte(`[{"type":"accept","from":1,"to":2}]]`))
	f.Add([]byte(`[{"type":"accept","from":1,"to":2}][]`))
	f.Add([]byte(`{"type":"accept","from":1,"to":2}{"type":"accept","from":1,"to":2}`))
	f.Add([]byte(`{"type":"accept" "from":1,"to":2}`))
	f.Add([]byte(`{"type":"accept","from":1,"to":`))
	f.Add([]byte(`{"type":"accept","from":1,"to":2`))
	f.Add([]byte(`{"type":"request`))
	f.Add([]byte(`{"to`))
	f.Add([]byte(`[`))
	evs := sampleEvents(1024)
	f.Add(benchShapedBody(evs))
	marshaled, err := json.Marshal(evs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(marshaled)
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseEvents(data)
		want, wantErr := parseEventsJSON(nil, data)
		if scanned, ok := scanEvents(nil, data); ok {
			if wantErr != nil {
				t.Fatalf("scanner accepted what encoding/json refuses (%v): %q", wantErr, data)
			}
			if !sameEvents(scanned, want) {
				t.Fatalf("scanner and encoding/json disagree on %q:\n scanner %+v\n  oracle %+v", data, scanned, want)
			}
		}
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ParseEvents(%q) = %v, oracle says %v", data, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("ParseEvents(%q) = %v, oracle accepts", data, err)
		}
		if !sameEvents(events, want) {
			t.Fatalf("ParseEvents and the oracle disagree on %q:\n    got %+v\n oracle %+v", data, events, want)
		}
		for i, ev := range events {
			switch ev.Type {
			case EvRequest, EvAccept, EvReject, EvIgnore:
			default:
				t.Fatalf("event %d accepted with unknown type %q", i, ev.Type)
			}
			if ev.From < 0 || ev.To < 0 || int64(ev.From) > math.MaxInt32 || int64(ev.To) > math.MaxInt32 {
				t.Fatalf("event %d accepted with out-of-range node IDs: %+v", i, ev)
			}
			if ev.From == ev.To {
				t.Fatalf("event %d accepted as a self-request: %+v", i, ev)
			}
			if ev.Interval < 0 {
				t.Fatalf("event %d accepted with negative interval: %+v", i, ev)
			}
		}
		// The lifecycle fold must not panic, and each answer event must
		// emit exactly one answered request.
		reqs := EventsToRequests(events)
		answers := 0
		for _, ev := range events {
			if ev.Type != EvRequest {
				answers++
			}
		}
		if len(reqs) != answers {
			t.Fatalf("fold emitted %d requests from %d answer events", len(reqs), answers)
		}
		// Accepted events round-trip through their own JSON encoding, and
		// through the compact encoding the scanner is built for.
		re, err := json.Marshal(events)
		if err != nil {
			t.Fatalf("accepted events failed to marshal: %v", err)
		}
		for _, body := range [][]byte{re, benchShapedBody(events)} {
			again, err := ParseEvents(body)
			if err != nil {
				t.Fatalf("re-parsing %q failed: %v", body, err)
			}
			if !sameEvents(again, events) {
				t.Fatalf("round trip through %q changed the events", body)
			}
			if _, ok := scanEvents(nil, body); !ok {
				t.Fatalf("scanner declined a canonical encoding: %q", body)
			}
		}
	})
}

// sameEvents compares element-wise, so nil and empty are equal.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
