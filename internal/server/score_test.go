package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/score"
)

// doScoreReq drives the score endpoint in-process, without a TCP listener,
// so property tests over hundreds of worlds stay cheap.
func doScoreReq(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	return rec
}

// TestScoreEpochConsistencyProperty drives 200 seeded worlds end to end
// and holds the verdict path to its two contracts: every account the
// published epoch flagged scores at least the deny threshold (the fusion
// invariant — an epoch suspect can never be allowed through), and with no
// interleaved ingest, repeated score calls are identical, down to the
// HTTP reply bytes.
func TestScoreEpochConsistencyProperty(t *testing.T) {
	worlds := 200
	if testing.Short() {
		worlds = 25
	}
	for w := 0; w < worlds; w++ {
		r := rand.New(rand.NewPCG(uint64(w), 77))
		n := 60 + r.IntN(100)
		spammers := 2 + r.IntN(6)
		// A narrow k-sweep keeps 200 full detections affordable; the
		// contracts under test are fusion and determinism, not cut quality.
		s, ts := newTestServer(t, testBase(n), func(cfg *Config) {
			cfg.Detector.Cut.KMin = 0.5
			cfg.Detector.Cut.KMax = 4
			cfg.Detector.Cut.KFactor = 2
			cfg.Detector.MaxRounds = 2
		})

		events := spamWorkload(r, n, spammers)
		postEvents(t, ts.URL, events)
		drainIngest(t, s)
		ep := detectNow(t, s)

		opts := s.Scorer().Options()
		if len(ep.suspects) == 0 {
			// A world with no suspects still checks determinism below.
			t.Logf("world %d: no suspects", w)
		}
		for _, u := range ep.suspects {
			res, err := s.Score(u)
			if err != nil {
				t.Fatalf("world %d: scoring suspect %d: %v", w, u, err)
			}
			if res.Score < opts.DenyThreshold {
				t.Fatalf("world %d: epoch suspect %d scored %.4f, below deny threshold %.2f",
					w, u, res.Score, opts.DenyThreshold)
			}
			if res.Verdict != score.VerdictDeny {
				t.Fatalf("world %d: epoch suspect %d got verdict %s, want deny", w, u, res.Verdict)
			}
			if res.Reasons&score.ReasonEpochSuspect == 0 {
				t.Fatalf("world %d: epoch suspect %d missing the epoch-suspect reason", w, u)
			}
			if res.Epoch != ep.Seq {
				t.Fatalf("world %d: suspect %d scored against epoch %d, want %d", w, u, res.Epoch, ep.Seq)
			}
		}

		// Determinism: with no interleaved ingest every account scores
		// identically across calls.
		for i := 0; i < n; i++ {
			u := graph.NodeID(i)
			first, err := s.Score(u)
			if err != nil {
				t.Fatal(err)
			}
			again, err := s.Score(u)
			if err != nil {
				t.Fatal(err)
			}
			if first != again {
				t.Fatalf("world %d: node %d scored differently across calls:\n%+v\n%+v", w, u, first, again)
			}
		}
		// And the wire form is byte-identical too: one batched GET asked
		// twice.
		target := "/v1/score?id=0&id=1&id=2&id=" + itoa(n-1)
		b1 := doScoreReq(t, s, http.MethodGet, target, nil)
		b2 := doScoreReq(t, s, http.MethodGet, target, nil)
		if b1.Code != http.StatusOK || b2.Code != http.StatusOK {
			t.Fatalf("world %d: GET /v1/score = %d, %d", w, b1.Code, b2.Code)
		}
		if !bytes.Equal(b1.Body.Bytes(), b2.Body.Bytes()) {
			t.Fatalf("world %d: repeated score replies differ:\n%s\n%s", w, b1.Body, b2.Body)
		}
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// TestScoreVsPublishRace runs concurrent ingest writers, racing epoch
// publishes, and score readers under the race detector, and verifies no
// verdict ever blends two epochs: the suspect bit each result carries must
// match the suspect set of exactly the epoch it names.
func TestScoreVsPublishRace(t *testing.T) {
	const n = 256
	s, ts := newTestServer(t, testBase(n), nil)

	// Every published epoch's suspect set, by sequence number. Epoch 0 is
	// the recovery epoch: empty.
	var epochs sync.Map
	recordEpoch := func(ep *Epoch) {
		set := make(map[graph.NodeID]bool, len(ep.suspects))
		for _, u := range ep.suspects {
			set[u] = true
		}
		epochs.Store(ep.Seq, set)
	}
	recordEpoch(s.CurrentEpoch())

	var wg sync.WaitGroup
	var stop atomic.Bool

	// Ingest writers: spam-heavy workloads so detections flag someone.
	// Backpressure 429s are tolerated — the point is concurrency, not
	// delivery.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 11))
			for i := 0; i < 40 && !stop.Load(); i++ {
				body, err := json.Marshal(spamWorkload(r, n, 4))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("POST /v1/events = %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}

	// Racing publisher: back-to-back detections.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < 12; i++ {
			ep, err := s.Detect(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			recordEpoch(ep)
		}
	}()

	// Score readers: record (epoch, id, suspect-bit) observations and
	// check the threshold algebra inline.
	type scoreObs struct {
		seq     int64
		id      graph.NodeID
		suspect bool
	}
	opts := s.Scorer().Options()
	observations := make([][]scoreObs, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 23))
			for !stop.Load() {
				u := graph.NodeID(r.IntN(n))
				res, err := s.Score(u)
				if err != nil {
					t.Error(err)
					return
				}
				if res.StalenessEvents < 0 {
					t.Errorf("negative staleness %d", res.StalenessEvents)
					return
				}
				suspect := res.Reasons&score.ReasonEpochSuspect != 0
				if suspect && res.Score < opts.DenyThreshold {
					t.Errorf("suspect %d scored %.4f below deny threshold", u, res.Score)
					return
				}
				switch res.Verdict {
				case score.VerdictDeny:
					if res.Score < opts.DenyThreshold {
						t.Errorf("deny verdict at score %.4f", res.Score)
						return
					}
				case score.VerdictAllow:
					if res.Score >= opts.ThrottleThreshold {
						t.Errorf("allow verdict at score %.4f", res.Score)
						return
					}
				}
				observations[g] = append(observations[g], scoreObs{seq: res.Epoch, id: u, suspect: suspect})
			}
		}(g)
	}
	wg.Wait()

	// Post-hoc no-blend check: every observation's suspect bit must agree
	// with the suspect set of the epoch it was scored against. A reader
	// may have observed an epoch before the publisher goroutine recorded
	// it, but by now every published epoch is in the map.
	checked := 0
	for _, obsList := range observations {
		for _, o := range obsList {
			v, ok := epochs.Load(o.seq)
			if !ok {
				t.Fatalf("observation names unknown epoch %d", o.seq)
			}
			if v.(map[graph.NodeID]bool)[o.id] != o.suspect {
				t.Fatalf("epoch %d node %d: observed suspect=%v, epoch set says %v — a blended verdict",
					o.seq, o.id, o.suspect, !o.suspect)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("readers made no observations")
	}
	t.Logf("verified %d observations against 13 epochs", checked)
}

// TestServerScoreZeroAllocs pins the whole in-process verdict path —
// bounds check, scorer read, counter ticks — at zero allocations with no
// tracer or hook configured.
func TestServerScoreZeroAllocs(t *testing.T) {
	const n = 512
	s, ts := newTestServer(t, testBase(n), nil)
	r := rand.New(rand.NewPCG(4, 4))
	postEvents(t, ts.URL, spamWorkload(r, n, 6))
	drainIngest(t, s)
	detectNow(t, s)

	id := graph.NodeID(0)
	var sink score.Result
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := s.Score(id)
		if err != nil {
			t.Fatal(err)
		}
		sink = res
		id = (id + 13) % n
	})
	if allocs != 0 {
		t.Fatalf("Server.Score allocates %v per call, want 0", allocs)
	}
	_ = sink
}

// BenchmarkServerScore measures the in-process verdict cost at the server
// layer (Server.Score: bounds check + scorer read + counters), the number
// the HTTP-level score latency sits on top of.
func BenchmarkServerScore(b *testing.B) {
	const n = 1 << 16
	s, err := New(Config{Base: testBase(n), Detector: testDetectorOptions(), QueueSize: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	r := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 100_000; i++ {
		from := graph.NodeID(r.IntN(n))
		s.scorer.Observe(from, r.Float64() < 0.6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink score.Result
	for i := 0; i < b.N; i++ {
		sink, _ = s.Score(graph.NodeID(i & (n - 1)))
	}
	_ = sink
}

// TestScoreHookDrivesEnforcement wires Config.ScoreHook to an
// osn.Enforcer the way a production deployment would: every deny verdict
// walks the account down the challenge → rate-limit → suspend ladder,
// throttles apply reversible friction, allows touch nothing.
func TestScoreHookDrivesEnforcement(t *testing.T) {
	const n = 128
	svc := osn.NewService(osn.Config{})
	svc.RegisterN(n)
	enf := osn.NewEnforcer(svc, nil)
	var hookCalls int
	s, ts := newTestServer(t, testBase(n), func(cfg *Config) {
		cfg.ScoreHook = func(res score.Result) {
			hookCalls++
			if err := enf.ApplyVerdict(osn.UserID(res.ID), res.Verdict); err != nil {
				t.Errorf("ApplyVerdict(%d, %s): %v", res.ID, res.Verdict, err)
			}
		}
	})
	r := rand.New(rand.NewPCG(12, 12))
	postEvents(t, ts.URL, spamWorkload(r, n, 5))
	drainIngest(t, s)
	ep := detectNow(t, s)
	if len(ep.suspects) == 0 {
		t.Skip("world produced no suspects")
	}

	var suspect graph.NodeID
	found := false
	for _, u := range ep.suspects {
		if !found || u < suspect {
			suspect, found = u, true
		}
	}
	res, err := s.Score(suspect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != score.VerdictDeny {
		t.Fatalf("suspect verdict = %s", res.Verdict)
	}
	if hookCalls != 1 {
		t.Fatalf("hook fired %d times, want 1", hookCalls)
	}
	if st := enf.StatusOf(osn.UserID(suspect)); !st.Challenged {
		t.Fatalf("first deny should challenge: %+v", st)
	}
	// Two more denies walk the rest of the ladder.
	s.Score(suspect)
	s.Score(suspect)
	if st := enf.StatusOf(osn.UserID(suspect)); !st.Suspended {
		t.Fatalf("third deny should suspend: %+v", st)
	}
	// An allow-scoring account never reaches the hook.
	before := hookCalls
	for i := 0; i < n; i++ {
		u := graph.NodeID(i)
		r, err := s.Score(u)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict == score.VerdictAllow && hookCalls != before {
			t.Fatalf("allow verdict for %d reached the hook", u)
		}
		before = hookCalls
	}
}

// TestScoreHTTPEndpoint covers the /v1/score wire contract: single ID as a
// bare object, batch as an array in request order, and the error shapes.
func TestScoreHTTPEndpoint(t *testing.T) {
	const n = 64
	s, ts := newTestServer(t, testBase(n), nil)
	r := rand.New(rand.NewPCG(6, 6))
	postEvents(t, ts.URL, spamWorkload(r, n, 3))
	drainIngest(t, s)
	detectNow(t, s)

	var single scoreReply
	getJSON(t, ts.URL+"/v1/score?id=5", &single)
	if single.ID != 5 || single.Verdict == "" {
		t.Fatalf("single score reply: %+v", single)
	}

	var batch []scoreReply
	getJSON(t, ts.URL+"/v1/score?id=9&id=3&id=9", &batch)
	if len(batch) != 3 || batch[0].ID != 9 || batch[1].ID != 3 || batch[2].ID != 9 {
		t.Fatalf("batch reply out of order: %+v", batch)
	}
	if !reflect.DeepEqual(batch[0], batch[2]) {
		t.Fatalf("duplicate IDs scored differently: %+v vs %+v", batch[0], batch[2])
	}

	resp := postJSON(t, ts.URL+"/v1/score", map[string]any{"ids": []int{1, 2}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/score = %d", resp.StatusCode)
	}
	var posted []scoreReply
	if err := json.NewDecoder(resp.Body).Decode(&posted); err != nil {
		t.Fatal(err)
	}
	if len(posted) != 2 {
		t.Fatalf("POST batch returned %d replies", len(posted))
	}

	for _, bad := range []string{
		"/v1/score",            // no IDs
		"/v1/score?id=x",       // malformed
		"/v1/score?id=-1",      // negative
		"/v1/score?user=3",     // unknown parameter
		"/v1/score?id=3&junk=", // unknown parameter beside a valid one
	} {
		rec := doScoreReq(t, s, http.MethodGet, bad, nil)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
	rec := doScoreReq(t, s, http.MethodGet, "/v1/score?id="+itoa(n), nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("out-of-graph ID = %d, want 404", rec.Code)
	}

	// Stats carries the score section.
	var stats statsReply
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Score == nil || stats.Score.Requests == 0 {
		t.Fatalf("stats score section missing or empty: %+v", stats.Score)
	}
	if stats.Score.Publishes < 2 { // epoch 0 + the explicit detect
		t.Fatalf("score publishes = %d, want >= 2", stats.Score.Publishes)
	}
}
