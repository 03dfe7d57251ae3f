package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/storage"
)

// TestScannerBoundary pins which bodies the single-pass scanner takes and
// which it leaves to encoding/json. The differential fuzz proves the two
// agree wherever the scanner answers; this proves it does answer for the
// shapes senders produce, and declines everything it was told to.
func TestScannerBoundary(t *testing.T) {
	evs := sampleEvents(1024)
	marshaled, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"object":          `{"type":"request","from":1,"to":2,"interval":0}`,
		"array":           `[{"type":"accept","from":1,"to":2,"interval":3},{"type":"ignore","from":2,"to":1,"interval":4}]`,
		"empty array":     `[]`,
		"keys reordered":  `{"interval":5,"to":2,"from":1,"type":"reject"}`,
		"numeric omitted": `{"type":"reject","from":7}`,
		"whitespace":      " \t\r\n[ { \"type\" : \"accept\" ,\n\t\"from\" : 1 , \"to\" : 2 } ]\r\n",
		"int32 max":       `{"type":"accept","from":2147483647,"to":0,"interval":2147483647}`,
		"bench-shaped":    string(benchShapedBody(evs)),
		"json.Marshal":    string(marshaled),
	} {
		got, ok := scanEvents(nil, []byte(body))
		if !ok {
			t.Errorf("%s: scanner declined %.80q", name, body)
			continue
		}
		want, err := parseEventsJSON(nil, []byte(body))
		if err != nil || !sameEvents(got, want) {
			t.Errorf("%s: scanner decoded %d events, oracle %d (err %v)", name, len(got), len(want), err)
		}
	}
	for name, body := range map[string]string{
		"empty":             ``,
		"type escape":       `{"type":"\u0061ccept","from":1,"to":2}`,
		"key escape":        `{"t\u0079pe":"accept","from":1,"to":2}`,
		"case-variant key":  `{"Type":"accept","from":1,"to":2}`,
		"case-variant type": `{"type":"Accept","from":1,"to":2}`,
		"duplicate key":     `{"type":"accept","from":1,"from":1,"to":2}`,
		"unknown key":       `{"type":"accept","from":1,"to":2,"note":1}`,
		"null":              `{"type":"accept","from":null,"to":2}`,
		"exponent":          `{"type":"accept","from":1e3,"to":2}`,
		"fraction":          `{"type":"accept","from":1.0,"to":2}`,
		"minus zero":        `{"type":"accept","from":-0,"to":2}`,
		"leading zero":      `{"type":"accept","from":007,"to":2}`,
		"2^31":              `{"type":"accept","from":2147483648,"to":2}`,
		"2^63":              `{"type":"accept","from":9223372036854775808,"to":2}`,
		"nested value":      `{"type":"accept","from":[1],"to":2}`,
		"nested array":      `[[{"type":"accept","from":1,"to":2}]]`,
		"trailing data":     `{"type":"accept","from":1,"to":2} x`,
		"trailing comma":    `[{"type":"accept","from":1,"to":2},]`,
		"no type":           `{"from":1,"to":2}`,
		"self-request":      `{"type":"accept","from":3,"to":3}`,
		"truncated":         `[{"type":"accept","from":1,"to":`,
	} {
		if _, ok := scanEvents(nil, []byte(body)); ok {
			t.Errorf("%s: scanner accepted %q", name, body)
		}
	}
}

// TestParseEventsAllocs is the decode path's allocation guard: a
// 1024-event body costs ParseEvents its result slice and nothing else, and
// the handler's pooled path nothing at all.
func TestParseEventsAllocs(t *testing.T) {
	body := benchShapedBody(sampleEvents(1024))
	var sink []Event
	if allocs := testing.AllocsPerRun(100, func() {
		sink, _ = ParseEvents(body)
	}); allocs > 1 {
		t.Errorf("ParseEvents allocates %v times per 1024-event body, want at most 1", allocs)
	}
	if len(sink) != 1024 {
		t.Fatalf("decoded %d events, want 1024", len(sink))
	}
	// The pool itself is left out: under -race it drops entries at random.
	if allocs := testing.AllocsPerRun(100, func() {
		sink, _ = parseEventsInto(sink, body)
	}); allocs != 0 {
		t.Errorf("pooled decode allocates %v times per 1024-event body, want 0", allocs)
	}
}

func BenchmarkParseEvents(b *testing.B) {
	evs := sampleEvents(1024)
	marshaled, err := json.Marshal(evs)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		body  []byte
		parse func([]byte) ([]Event, error)
	}{
		{"scanner/bench-shaped", benchShapedBody(evs), ParseEvents},
		{"scanner/json.Marshal", marshaled, ParseEvents},
		{"oracle/bench-shaped", benchShapedBody(evs), func(d []byte) ([]Event, error) { return parseEventsJSON(nil, d) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if got, err := bc.parse(bc.body); err != nil || len(got) != len(evs) {
					b.Fatalf("decoded %d events, err %v", len(got), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}

// discardWriter is the cheapest http.ResponseWriter: the benchmark times
// the handler, not a recorder.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkIngestHTTP drives POST /v1/events handler-to-journal: pooled
// body read, decode, enqueue, and the ingest loop folding into a segmented
// store behind it, in 1024-event batches. A 429 is back-pressure from the
// loop and is retried, so ns/event is the pipeline's, not the handler's
// alone.
func BenchmarkIngestHTTP(b *testing.B) {
	const batch = 1024
	store, err := storage.Open(storage.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		Base:      testBase(1 << 15),
		Detector:  testDetectorOptions(),
		QueueSize: 1 << 16,
		Store:     store,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := s.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	s.pace = 0 // measure the pipeline, not the ack pacing
	body := benchShapedBody(sampleEvents(batch))
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/events", rd)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			rd.Reset(body)
			req.Body = io.NopCloser(rd)
			s.handler.ServeHTTP(w, req)
			if w.status == http.StatusAccepted {
				break
			}
			if w.status != http.StatusTooManyRequests {
				b.Fatalf("POST /v1/events = %d", w.status)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for s.queued.Load() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/event")
}

func TestOversizedBodyIs413(t *testing.T) {
	s, ts := newTestServer(t, testBase(8), nil)
	before := statsOf(t, ts.URL).EventsRejected
	resp := postJSON(t, ts.URL+"/v1/events", bytes.Repeat([]byte(" "), maxEventBody+1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body answered %d, want 413", resp.StatusCode)
	}
	// Refusals count one per request, whatever the body held.
	resp = postJSON(t, ts.URL+"/v1/events", []byte(`[{"type":"accept","from":0,"to":1},{"type":"bogus","from":0,"to":1},{"type":"bogus","from":0,"to":1}]`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("undecodable body answered %d, want 400", resp.StatusCode)
	}
	if got := statsOf(t, ts.URL).EventsRejected - before; got != 2 {
		t.Fatalf("events_rejected rose by %d over two refused requests, want 2", got)
	}
	if folded := foldedEvents(s); folded != 0 {
		t.Fatalf("%d events folded from refused requests", folded)
	}
}

// TestDeclaredLengthDoesNotSizeTheBuffer: Content-Length is a hint the
// client controls. A request that declares the largest body allowed and
// sends a few bytes must not make the handler allocate what it declared.
func TestDeclaredLengthDoesNotSizeTheBuffer(t *testing.T) {
	s, _ := newTestServer(t, testBase(8), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 4 { // more requests than the pool can have warm buffers for
		req := httptest.NewRequest("POST", "/v1/events", bytes.NewReader([]byte(`{"type":"reject","from":0,"to":1}`)))
		req.ContentLength = maxEventBody
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("short body under a large declared length answered %d, want 202", rec.Code)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= maxEventBody {
		t.Fatalf("4 requests declaring %d bytes and sending 33 allocated %d bytes", maxEventBody, got)
	}
}

func statsOf(t *testing.T, baseURL string) statsReply {
	t.Helper()
	var st statsReply
	getJSON(t, baseURL+"/v1/stats", &st)
	return st
}

// rejectsFrom is k reject events from one sender, distinguishable by to.
func rejectsFrom(from graph.NodeID, first, k int) []Event {
	evs := make([]Event, k)
	for i := range evs {
		evs[i] = Event{Type: EvReject, From: from, To: graph.NodeID(100 + first + i), Interval: 0}
	}
	return evs
}

// TestQueueReservation: the queue carries whole batches but is bounded, and
// reported, in events. With the ingest loop parked, each POST gets exactly
// the prefix there is room for; after the drain the journal is those
// prefixes, in enqueue order.
func TestQueueReservation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		queueSize int
		posts     []int // batch sizes, posted in order
		accepted  []int // prefix each gets
	}{
		{"batch larger than the queue", 4, []int{10}, []int{4}},
		{"queue smaller than one batch, then full", 3, []int{5, 2}, []int{3, 0}},
		{"exact fit, then full", 8, []int{8, 1}, []int{8, 0}},
		{"second batch gets the remainder", 8, []int{5, 5, 5}, []int{5, 3, 0}},
		{"single events fill every slot", 3, []int{1, 1, 1, 1}, []int{1, 1, 1, 0}},
		{"empty batch on a full queue", 2, []int{2, 0}, []int{2, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, testBase(200), func(cfg *Config) { cfg.QueueSize = tc.queueSize })
			hold := parkIngest(s)
			var want []Event
			next := 0
			for i, size := range tc.posts {
				evs := rejectsFrom(1, next, size)
				next += size
				resp := postJSON(t, ts.URL+"/v1/events", evs)
				var reply ingestReply
				if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				wantStatus := http.StatusAccepted
				if tc.accepted[i] < size {
					wantStatus = http.StatusTooManyRequests
				}
				if resp.StatusCode != wantStatus || reply.Accepted != tc.accepted[i] || reply.Dropped != size-tc.accepted[i] {
					t.Fatalf("post %d (%d events): %d %+v, want %d with %d accepted", i, size, resp.StatusCode, reply, wantStatus, tc.accepted[i])
				}
				want = append(want, evs[:tc.accepted[i]]...)
				if st := statsOf(t, ts.URL); st.QueueDepth != len(want) || st.QueueCapacity != tc.queueSize {
					t.Fatalf("after post %d: queue_depth %d / queue_capacity %d, want %d / %d", i, st.QueueDepth, st.QueueCapacity, len(want), tc.queueSize)
				}
			}
			<-hold
			drainIngest(t, s)
			if st := statsOf(t, ts.URL); st.QueueDepth != 0 {
				t.Fatalf("queue_depth %d after the drain", st.QueueDepth)
			}
			if got := detectNow(t, s); got.Events != len(want) {
				t.Fatalf("epoch covers %d events, want the %d accepted", got.Events, len(want))
			}
			if got := journalOf(s); !reflect.DeepEqual(got, EventsToRequests(want)) {
				t.Fatalf("journal is not the accepted prefixes in enqueue order:\n got %v\nwant %v", got, EventsToRequests(want))
			}
		})
	}
}

// TestRacingHandlersKeepBatchesWhole: two handlers racing for a queue
// smaller than their combined traffic. Each accepted prefix must reach the
// journal whole and unbroken (a batch is one queue entry), each sender's
// prefixes in the order it posted them, and queue_depth may never pass
// queue_capacity. Run under -race.
func TestRacingHandlersKeepBatchesWhole(t *testing.T) {
	const queueSize, rounds, batch = 64, 200, 24
	s, ts := newTestServer(t, testBase(200+rounds*batch), func(cfg *Config) { cfg.QueueSize = queueSize })

	stop := make(chan struct{})
	watched := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				watched <- nil
				return
			default:
			}
			if depth := s.queued.Load(); depth < 0 || depth > queueSize {
				watched <- fmt.Errorf("queue depth %d outside [0, %d]", depth, queueSize)
				return
			}
			runtime.Gosched()
		}
	}()

	accepted := make([][]Event, 2)
	var wg sync.WaitGroup
	for sender := 0; sender < 2; sender++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				evs := rejectsFrom(graph.NodeID(sender), r*batch, batch)
				body, err := json.Marshal(evs)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var reply ingestReply
				err = json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				accepted[sender] = append(accepted[sender], evs[:reply.Accepted]...)
			}
		}(sender)
	}
	wg.Wait()
	close(stop)
	if err := <-watched; err != nil {
		t.Fatal(err)
	}
	drainIngest(t, s)

	// Split the journal by sender; batches from one POST share a sender,
	// so a batch torn by the other handler shows as a sender's records
	// arriving out of its own posting order.
	bySender := make([][]core.TimedRequest, 2)
	for _, req := range journalOf(s) {
		bySender[req.From] = append(bySender[req.From], req)
	}
	for sender := range accepted {
		if want := EventsToRequests(accepted[sender]); !reflect.DeepEqual(bySender[sender], want) {
			t.Fatalf("sender %d: journal holds %d records, accepted prefixes hold %d (or order differs)", sender, len(bySender[sender]), len(want))
		}
	}
	// Wholeness: a record that is not the first of its POST directly
	// follows its predecessor in that POST.
	journal := journalOf(s)
	for i, req := range journal {
		if (int(req.To)-100)%batch == 0 {
			continue
		}
		if i == 0 || journal[i-1].From != req.From || journal[i-1].To != req.To-1 {
			t.Fatalf("journal record %d (%d→%d) does not follow its batch predecessor", i, req.From, req.To)
		}
	}
}

// fakeTimers stands in for time.After in the ingest loop: it hands out
// channels the test fires by hand and counts how many were asked for.
type fakeTimers struct {
	mu    sync.Mutex
	armed []chan time.Time
}

func (f *fakeTimers) after(d time.Duration) <-chan time.Time {
	if d != commitDelay {
		panic(fmt.Sprintf("ingest loop armed a %v timer, want commitDelay", d))
	}
	c := make(chan time.Time, 1)
	f.mu.Lock()
	f.armed = append(f.armed, c)
	f.mu.Unlock()
	return c
}

func (f *fakeTimers) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.armed)
}

// fire expires the most recently armed timer.
func (f *fakeTimers) fire() {
	f.mu.Lock()
	c := f.armed[len(f.armed)-1]
	f.mu.Unlock()
	c <- time.Time{}
}

// newClockedServer is newTestServer with the commit timer under the test's
// control and a counting journal.
func newClockedServer(t *testing.T, n int, mod func(*Config)) (*Server, *httptest.Server, *failingStore, *fakeTimers) {
	t.Helper()
	store := &failingStore{}
	timers := &fakeTimers{}
	s, ts := newTestServerAfter(t, testBase(n), func(cfg *Config) {
		cfg.Store = store
		if mod != nil {
			mod(cfg)
		}
	}, timers.after)
	return s, ts, store, timers
}

// TestGroupCommit walks the commit policy's four triggers with the timer
// in the test's hands: nothing is flushed on a quiet queue any more; a
// flush happens at commitRecords unflushed records, when the commit delay
// expires, before every snapshot hand-out, and on shutdown; and no timer is
// armed while nothing is unflushed.
func TestGroupCommit(t *testing.T) {
	const n = commitRecords + 200 // room for rejectsFrom's recipients
	post := func(t *testing.T, url string, first, k int) {
		t.Helper()
		for k > 0 {
			chunk := min(k, 4096)
			postEvents(t, url, rejectsFrom(1, first, chunk))
			first, k = first+chunk, k-chunk
		}
	}

	t.Run("idle arms no timer", func(t *testing.T) {
		s, ts, store, timers := newClockedServer(t, n, nil)
		postEvents(t, ts.URL, []Event{{Type: EvRequest, From: 1, To: 2}}) // folds, journals nothing
		waitQueueEmpty(t, s)
		if st := statsOf(t, ts.URL); st.Unflushed != 0 || st.FlushAgeMS != 0 {
			t.Fatalf("idle server reports journal_unflushed %d, journal_flush_age_ms %v", st.Unflushed, st.FlushAgeMS)
		}
		if timers.count() != 0 || store.flushCalls() != 0 {
			t.Fatalf("idle server armed %d timers and flushed %d times", timers.count(), store.flushCalls())
		}
	})

	t.Run("at T", func(t *testing.T) {
		s, ts, store, timers := newClockedServer(t, n, nil)
		post(t, ts.URL, 0, 10)
		waitQueueEmpty(t, s)
		post(t, ts.URL, 10, 10)
		waitQueueEmpty(t, s)
		// The queue ran empty twice: no flush, one timer, armed by the
		// first unflushed record and not re-armed by the second batch.
		if store.flushCalls() != 0 || timers.count() != 1 {
			t.Fatalf("before the delay: %d flushes, %d timers armed; want 0 and 1", store.flushCalls(), timers.count())
		}
		st := statsOf(t, ts.URL)
		if st.Unflushed != 20 || st.FlushAgeMS <= 0 {
			t.Fatalf("journal_unflushed %d, journal_flush_age_ms %v; want 20 and > 0", st.Unflushed, st.FlushAgeMS)
		}
		timers.fire()
		waitFor(t, 10*time.Second, "the delayed flush", func() bool { return store.durableRecords() == 20 })
		if st := statsOf(t, ts.URL); st.Unflushed != 0 || st.FlushAgeMS != 0 {
			t.Fatalf("after the flush: journal_unflushed %d, journal_flush_age_ms %v", st.Unflushed, st.FlushAgeMS)
		}
		// Flushed and idle: no new timer until the next record.
		if timers.count() != 1 {
			t.Fatalf("%d timers armed with nothing unflushed, want still 1", timers.count())
		}
		post(t, ts.URL, 20, 1)
		waitQueueEmpty(t, s)
		if timers.count() != 2 {
			t.Fatalf("%d timers armed after a new record, want 2", timers.count())
		}
	})

	t.Run("at N", func(t *testing.T) {
		s, ts, store, timers := newClockedServer(t, n, nil)
		post(t, ts.URL, 0, commitRecords-1)
		waitQueueEmpty(t, s)
		if store.flushCalls() != 0 {
			t.Fatalf("%d flushes below commitRecords", store.flushCalls())
		}
		post(t, ts.URL, commitRecords-1, 3)
		waitQueueEmpty(t, s)
		if store.flushCalls() != 1 || store.durableRecords() != commitRecords {
			t.Fatalf("%d flushes covering %d records, want 1 covering %d", store.flushCalls(), store.durableRecords(), commitRecords)
		}
		// The two records past the commit start a new window and a new
		// timer; the first window's timer is abandoned.
		if st := statsOf(t, ts.URL); st.Unflushed != 2 {
			t.Fatalf("journal_unflushed %d after the commit, want 2", st.Unflushed)
		}
		if timers.count() != 2 {
			t.Fatalf("%d timers armed, want 2", timers.count())
		}
	})

	t.Run("before every snapshot hand-out", func(t *testing.T) {
		s, ts, store, _ := newClockedServer(t, n, nil)
		for round := 1; round <= 3; round++ {
			post(t, ts.URL, round*7, 7)
			waitQueueEmpty(t, s)
			ep := detectNow(t, s)
			if ep.Events != 7*round || store.durableRecords() != ep.Events {
				t.Fatalf("round %d: epoch covers %d events, journal made %d durable", round, ep.Events, store.durableRecords())
			}
			if store.flushCalls() != round {
				t.Fatalf("round %d: %d flushes, want one per snapshot with new records", round, store.flushCalls())
			}
		}
		// A cut with nothing new is no commit.
		detectNow(t, s)
		if store.flushCalls() != 3 {
			t.Fatalf("%d flushes after an empty cut, want 3", store.flushCalls())
		}
	})

	t.Run("on shutdown", func(t *testing.T) {
		s, ts, store, _ := newClockedServer(t, n, nil)
		hold := parkIngest(s)
		post(t, ts.URL, 0, 300)
		ts.Close()
		<-hold
		if _, err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if store.durableRecords() != 300 {
			t.Fatalf("shutdown left %d of 300 records durable", store.durableRecords())
		}
	})
}

// TestAckPacing drives ackHold with the clock in the test's hands: traffic
// below ingestPace is never held, a burst of paceBurst passes, a sender
// that posts as fast as it is acked is admitted at the pace, one oversized
// post cannot push the hold past maxAckHold, and a quiet spell forgets the
// backlog.
func TestAckPacing(t *testing.T) {
	const batch = 1024
	cost := batch * time.Second / ingestPace
	paced := func() *Server { return &Server{pace: ingestPace} }

	t.Run("below the pace", func(t *testing.T) {
		s := paced()
		for i := 0; i < 1000; i++ {
			if hold := s.ackHold(time.Duration(i)*2*cost, batch); hold != 0 {
				t.Fatalf("batch %d at half the pace held %v", i, hold)
			}
		}
	})

	t.Run("burst then pace", func(t *testing.T) {
		s := paced()
		free := int(paceBurst / cost)
		for i := 0; i < free; i++ {
			if hold := s.ackHold(0, batch); hold != 0 {
				t.Fatalf("batch %d of a %d-batch burst held %v", i, free, hold)
			}
		}
		if hold := s.ackHold(0, batch); hold <= 0 || hold > cost {
			t.Fatalf("first batch past the burst held %v, want in (0, %v]", hold, cost)
		}
	})

	t.Run("closed loop runs at the pace", func(t *testing.T) {
		s := paced()
		// Two senders, each posting again the moment its reply is in.
		next := [2]time.Duration{}
		admitted, window := 0, time.Second
		for {
			who := 0
			if next[1] < next[0] {
				who = 1
			}
			now := next[who]
			if now >= window {
				break
			}
			next[who] = now + s.ackHold(now, batch)
			admitted += batch
		}
		limit := int((window + paceBurst) * ingestPace / time.Second)
		if admitted > limit+2*batch || admitted < limit-2*batch {
			t.Fatalf("admitted %d events in %v, want %d give or take a batch each", admitted, window, limit)
		}
	})

	t.Run("hold is capped", func(t *testing.T) {
		s := paced()
		if hold := s.ackHold(0, 100*ingestPace); hold != maxAckHold {
			t.Fatalf("an oversized post held %v, want %v", hold, maxAckHold)
		}
		if hold := s.ackHold(time.Millisecond, batch); hold > maxAckHold {
			t.Fatalf("the post after it held %v, past the cap", hold)
		}
		if hold := s.ackHold(maxAckHold+paceBurst+time.Millisecond, batch); hold != 0 {
			t.Fatalf("held %v once the cap had run out", hold)
		}
	})

	t.Run("off", func(t *testing.T) {
		if hold := (&Server{}).ackHold(0, 1<<30); hold != 0 {
			t.Fatalf("pace 0 held %v", hold)
		}
	})
}

// TestAckHoldDelaysTheReplyNotTheFold: the held batch is already queued, so
// it is folded while its sender waits for the 202.
func TestAckHoldDelaysTheReplyNotTheFold(t *testing.T) {
	s, ts := newTestServer(t, testBase(256), nil)
	s.pace = 1000 // 100 events book 100 ms: held 98 ms past the burst
	events := rejectsFrom(1, 0, 100)
	folded := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		for foldedEvents(s) < len(events) {
			time.Sleep(100 * time.Microsecond)
		}
		folded <- time.Since(start)
	}()
	postEvents(t, ts.URL, events)
	replied := time.Since(start)
	if replied < 90*time.Millisecond {
		t.Fatalf("202 after %v, want held ~98 ms", replied)
	}
	if at := <-folded; at > replied/2 {
		t.Fatalf("folded after %v, reply after %v: the fold waited for the hold", at, replied)
	}
}
