package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/storage"
)

// testBase builds a ring-plus-chords legitimate friendship base of n nodes,
// the same shape the core temporal tests use.
func testBase(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddFriendship(graph.NodeID(i), graph.NodeID((i+1)%n))
		g.AddFriendship(graph.NodeID(i), graph.NodeID((i+9)%n))
	}
	return g
}

// spamWorkload generates a lifecycle event log over an n-node base:
// interval 0 carries benign traffic with sporadic rejections, interval 1
// has the first `spammers` nodes flooding mostly-rejected requests. Every
// answered request is preceded by its "request" event.
func spamWorkload(r *rand.Rand, n, spammers int) []Event {
	var events []Event
	answered := func(from, to graph.NodeID, accept bool, interval int) {
		events = append(events, Event{Type: EvRequest, From: from, To: to, Interval: interval})
		typ := EvReject
		if accept {
			typ = EvAccept
		} else if r.Float64() < 0.3 {
			typ = EvIgnore // ignores are soft rejections; mix some in
		}
		events = append(events, Event{Type: typ, From: from, To: to, Interval: interval})
	}
	for i := 0; i < 200; i++ {
		u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if u != v {
			answered(u, v, r.Float64() < 0.8, 0)
		}
	}
	for i := 0; i < spammers; i++ {
		u := graph.NodeID(i)
		for k := 0; k < 10; k++ {
			v := graph.NodeID(spammers + r.IntN(n-spammers))
			answered(u, v, r.Float64() < 0.25, 1)
		}
	}
	return events
}

// testDetectorOptions is the detection configuration every server test
// shares with its batch-replay counterpart.
func testDetectorOptions() core.DetectorOptions {
	return core.DetectorOptions{
		Cut:                 core.CutOptions{RandSeed: 3},
		AcceptanceThreshold: 0.5,
		MaxRounds:           4,
	}
}

// mlDetectorOptions is testDetectorOptions through the multilevel ladder.
// A sweep enters the ladder only with more than one initial partition, so
// the ml variants of the equivalence tables add a random restart: without
// it they would run the flat variants' code.
func mlDetectorOptions() core.DetectorOptions {
	opts := testDetectorOptions()
	opts.Cut.Multilevel = true
	opts.Cut.Restarts = 1
	return opts
}

// newTestServer starts a Server plus an httptest front end and registers
// cleanup. Mutate cfg defaults via mod (may be nil). Warm starting is off
// by default so every epoch is byte-comparable to Replay; warm tests opt
// back in.
func newTestServer(t *testing.T, base *graph.Graph, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerAfter(t, base, mod, time.After)
}

// newTestServerAfter is newTestServer with the ingest loop's commit-delay
// timer injected (see fakeTimers).
func newTestServerAfter(t *testing.T, base *graph.Graph, mod func(*Config), after func(time.Duration) <-chan time.Time) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Base:     base,
		Detector: testDetectorOptions(),
		// Tests post whole workloads in one batch; keep the queue out of
		// the way unless a test shrinks it to exercise backpressure.
		QueueSize:        1 << 16,
		DisableWarmStart: true,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := newServer(cfg, after)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postJSON posts v (pre-marshaled if []byte) and returns the response.
func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	var body []byte
	switch b := v.(type) {
	case []byte:
		body = b
	default:
		var err error
		body, err = json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postEvents posts a batch and asserts full acceptance.
func postEvents(t *testing.T, baseURL string, events []Event) {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/events", events)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/events = %d: %s", resp.StatusCode, b)
	}
	var reply ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Accepted != len(events) {
		t.Fatalf("accepted %d of %d events", reply.Accepted, len(events))
	}
}

// getJSON decodes a GET response into out, asserting status 200.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// drainIngest waits until every posted event is folded: the queue is
// empty, and a snapshot round-trip through the (serialized) ingest loop
// proves the last dequeued event has been fully applied. POST /v1/events
// acks on enqueue, so every post→Detect or post→Score pair needs this
// barrier to be deterministic.
func drainIngest(t *testing.T, s *Server) {
	t.Helper()
	waitQueueEmpty(t, s)
	foldedEvents(s)
}

// waitQueueEmpty waits for the ingest loop to have folded everything
// posted, without the snapshot round trip drainIngest adds (a snapshot is
// itself a commit point).
func waitQueueEmpty(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, 10*time.Second, "ingest queue to empty", func() bool { return s.queued.Load() == 0 })
}

// journalOf returns the answered requests the ingest loop has folded so
// far, in journal order.
func journalOf(s *Server) []core.TimedRequest {
	reply := make(chan []core.TimedRequest, 1)
	s.snapReq <- reply
	return <-reply
}

// foldedEvents reports how many answered requests the ingest loop has
// folded so far.
func foldedEvents(s *Server) int { return len(journalOf(s)) }

// parkIngest stalls the ingest loop deterministically on an unbuffered
// snapshot reply nobody reads; receive from the returned channel to
// release it.
func parkIngest(s *Server) <-chan []core.TimedRequest {
	hold := make(chan []core.TimedRequest)
	s.snapReq <- hold
	return hold
}

// detectNow runs a detection and fails the test on error.
func detectNow(t *testing.T, s *Server) *Epoch {
	t.Helper()
	ep, err := s.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// stopServer shuts a test server down cleanly, as a restart test's end of
// life.
func stopServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// assertEpochMatchesReplay holds one published epoch to the replay
// invariant: its detections equal the cold batch engine's over the same
// answered-request prefix, and its frozen read model equals the cold fold
// of base plus that prefix.
func assertEpochMatchesReplay(t *testing.T, what string, ep *Epoch, base *graph.Graph, reqs []core.TimedRequest, opts core.DetectorOptions) {
	t.Helper()
	if ep.Events != len(reqs) {
		t.Fatalf("%s: epoch covers %d events, want %d", what, ep.Events, len(reqs))
	}
	want, err := core.DetectSharded(base, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ep.Intervals, want) {
		t.Fatalf("%s: epoch diverges from cold replay:\n got %+v\nwant %+v", what, ep.Intervals, want)
	}
	if !ep.frozen.Equal(coldFold(base, reqs)) {
		t.Fatalf("%s: read model is not byte-identical to the cold fold", what)
	}
}

// coldFold is the reference read model: base plus every answered request,
// folded from scratch.
func coldFold(base *graph.Graph, reqs []core.TimedRequest) *graph.Frozen {
	aug := base.Clone()
	for _, req := range reqs {
		if req.Accepted {
			aug.AddFriendship(req.From, req.To)
		} else {
			aug.AddRejection(req.To, req.From)
		}
	}
	return aug.FreezeCanonical()
}

// openSegmented opens a segmented store over dir, small segments so server
// tests cross seal/roll boundaries.
func openSegmented(t testing.TB, dir string) storage.Store {
	t.Helper()
	st, err := storage.Open(storage.Options{Dir: dir, SegmentBytes: 64 * 18})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// readJournal recovers the journal a stopped server left under dir.
func readJournal(t *testing.T, dir string) []core.TimedRequest {
	t.Helper()
	st := openSegmented(t, dir)
	defer st.Close()
	var reqs []core.TimedRequest
	if _, err := st.Recover(func(batch []core.TimedRequest) error {
		reqs = append(reqs, batch...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return reqs
}

// tearLiveSegment appends junk bytes to the newest segment file under dir,
// as a torn append would leave.
func tearLiveSegment(t *testing.T, dir string, junk int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs) // hex names sort by first sequence number
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(bytes.Repeat([]byte{0xEE}, junk)); err != nil {
		t.Fatal(err)
	}
}

// newClusterCoord builds a multi-node coordinator suitable for Config.Backend.
func newClusterCoord(t *testing.T, base *graph.Graph, opts core.DetectorOptions, shards, workers int, dir string) *cluster.Coordinator {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Base:     base,
		Detector: opts,
		Shards:   shards,
		Workers:  workers,
		Dir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
