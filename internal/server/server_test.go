package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestIngestDetectAndLookup(t *testing.T) {
	const n, spammers = 300, 40
	r := rand.New(rand.NewPCG(1, 91))
	events := spamWorkload(r, n, spammers)
	s, ts := newTestServer(t, testBase(n), nil)

	postEvents(t, ts.URL, events)
	drainIngest(t, s)

	resp := postJSON(t, ts.URL+"/v1/detect", []byte("{}"))
	var detected epochReply
	if err := json.NewDecoder(resp.Body).Decode(&detected); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if detected.Epoch < 1 {
		t.Fatalf("detection epoch = %d, want >= 1", detected.Epoch)
	}
	if detected.Events != len(EventsToRequests(events)) {
		t.Fatalf("epoch covered %d events, want %d", detected.Events, len(EventsToRequests(events)))
	}

	var interval1 *intervalReply
	for i := range detected.Intervals {
		if detected.Intervals[i].Interval == 1 {
			interval1 = &detected.Intervals[i]
		}
	}
	if interval1 == nil {
		t.Fatal("no detection for the spam interval")
	}
	caught := 0
	for _, u := range interval1.Suspects {
		if int(u) < spammers {
			caught++
		}
	}
	if caught < 30 {
		t.Fatalf("only %d/%d planted spammers caught", caught, spammers)
	}

	// GET /v1/suspects serves the same epoch.
	var served epochReply
	getJSON(t, ts.URL+"/v1/suspects", &served)
	if served.Epoch != detected.Epoch || !reflect.DeepEqual(served.Intervals, detected.Intervals) {
		t.Fatal("GET /v1/suspects differs from the POST /v1/detect reply")
	}

	// Per-user lookups: a caught spammer vs a legitimate user.
	var spammer userReply
	getJSON(t, ts.URL+"/v1/users/"+strconv.Itoa(int(interval1.Suspects[0])), &spammer)
	if !spammer.Suspect || len(spammer.Intervals) == 0 {
		t.Fatalf("flagged user served as non-suspect: %+v", spammer)
	}
	// A node no interval flagged must be served as non-suspect.
	flagged := make(map[graph.NodeID]bool)
	for _, iv := range detected.Intervals {
		for _, u := range iv.Suspects {
			flagged[u] = true
		}
	}
	legitID := -1
	for id := n - 1; id >= spammers; id-- {
		if !flagged[graph.NodeID(id)] {
			legitID = id
			break
		}
	}
	if legitID < 0 {
		t.Fatal("every node flagged; workload is unusable")
	}
	var legit userReply
	getJSON(t, ts.URL+"/v1/users/"+strconv.Itoa(legitID), &legit)
	if legit.Suspect {
		t.Fatalf("unflagged user served as suspect: %+v", legit)
	}
	if legit.Degree < 2 {
		t.Fatalf("user stats missing base friendships: %+v", legit)
	}

	// Repeated lookup of the same user must hit the per-epoch memo.
	var st statsReply
	getJSON(t, ts.URL+"/v1/stats", &st)
	h0 := st.CacheHits
	getJSON(t, ts.URL+"/v1/users/"+strconv.Itoa(legitID), &legit)
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.CacheHits <= h0 {
		t.Fatalf("repeated lookup did not hit the cache: hits %d → %d", h0, st.CacheHits)
	}
}

func TestIngestValidation(t *testing.T) {
	s, ts := newTestServer(t, testBase(8), nil)
	for name, body := range map[string]string{
		"garbage":           "not json",
		"unknown type":      `{"type":"poke","from":0,"to":1}`,
		"self request":      `{"type":"accept","from":3,"to":3}`,
		"negative node":     `{"type":"reject","from":-1,"to":2}`,
		"overflow node":     `{"type":"accept","from":2147483648,"to":1}`,
		"node beyond base":  `{"type":"accept","from":0,"to":100}`,
		"negative interval": `{"type":"reject","from":0,"to":1,"interval":-4}`,
		"trailing garbage":  `{"type":"accept","from":0,"to":1} trailing`,
		"empty":             ``,
	} {
		resp := postJSON(t, ts.URL+"/v1/events", []byte(body))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Nothing invalid may have reached server state.
	ep, err := s.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.Events != 0 {
		t.Fatalf("invalid events leaked into state: epoch covers %d", ep.Events)
	}
}

func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, testBase(8), func(cfg *Config) {
		cfg.QueueSize = 4
	})

	hold := parkIngest(s)

	events := make([]Event, 10)
	for i := range events {
		events[i] = Event{Type: EvReject, From: graph.NodeID(i % 4), To: 4 + graph.NodeID(i%4), Interval: 0}
	}
	resp := postJSON(t, ts.URL+"/v1/events", events)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var reply ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Accepted != 4 || reply.Dropped != 6 {
		t.Fatalf("backpressure reply = %+v, want 4 accepted / 6 dropped", reply)
	}

	// Unblock ingest; the accepted prefix must drain into state.
	<-hold
	drainIngest(t, s)
	if ep := detectNow(t, s); ep.Events != 4 {
		t.Fatalf("epoch covers %d events after the drain, want the 4 accepted", ep.Events)
	}
}

// TestJournalRecoveryAndReplayEquivalence restarts over a journal with no
// snapshot: recovery replays every segment, the engine's first step covers
// the whole log, and the epoch must equal both the first life's and the
// batch engine's over the journal.
func TestJournalRecoveryAndReplayEquivalence(t *testing.T) {
	const n, spammers = 120, 20
	r := rand.New(rand.NewPCG(8, 15))
	events := spamWorkload(r, n, spammers)
	dir := t.TempDir()

	// First server life: ingest, detect, shut down cleanly.
	cfgMod := func(cfg *Config) { cfg.Store = openSegmented(t, dir) }
	s1, ts1 := newTestServer(t, testBase(n), cfgMod)
	postEvents(t, ts1.URL, events)
	drainIngest(t, s1)
	ep1 := detectNow(t, s1)
	stopServer(t, s1, ts1)

	// The journal is exactly the lifecycle fold of the posted events.
	wantReqs := EventsToRequests(events)
	if gotReqs := readJournal(t, dir); !reflect.DeepEqual(gotReqs, wantReqs) {
		t.Fatalf("journal holds %d requests, lifecycle fold yields %d (or order differs)", len(gotReqs), len(wantReqs))
	}

	// Second life: recover from the journal, detect, compare epochs.
	s2, _ := newTestServer(t, testBase(n), cfgMod)
	if got := s2.CurrentEpoch().Events; got != len(wantReqs) {
		t.Fatalf("recovered %d events, want %d", got, len(wantReqs))
	}
	ep2 := detectNow(t, s2)
	if !reflect.DeepEqual(epochToReply(ep1).Intervals, epochToReply(ep2).Intervals) {
		t.Fatal("recovered server's detection differs from the original")
	}
	assertEpochMatchesReplay(t, "recovered", ep2, testBase(n), wantReqs, testDetectorOptions())
}

// TestConfigValidation: combinations New must refuse.
func TestConfigValidation(t *testing.T) {
	base, det := testBase(10), testDetectorOptions()
	coord := newClusterCoord(t, base, det, 2, 2, t.TempDir())
	defer coord.Close()
	store := openSegmented(t, t.TempDir())
	defer store.Close()
	for name, cfg := range map[string]Config{
		"no base":                   {Detector: det},
		"no termination condition":  {Base: base},
		"SnapshotEvery, no Store":   {Base: base, Detector: det, SnapshotEvery: 10},
		"Backend and Store":         {Base: base, Detector: det, Backend: coord, Store: store},
		"Backend and SnapshotEvery": {Base: base, Detector: det, Backend: coord, SnapshotEvery: 10},
	} {
		if s, err := New(cfg); err == nil {
			s.Shutdown(context.Background())
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	const n = 60
	dir := t.TempDir()
	s, ts := newTestServer(t, testBase(n), func(cfg *Config) {
		cfg.Store = openSegmented(t, dir)
		cfg.QueueSize = 4096
	})

	// Park the ingest loop so everything stays queued, post a burst, then
	// shut down: the drain must apply and journal every accepted event.
	hold := parkIngest(s)
	var events []Event
	for i := 0; i < 500; i++ {
		from := graph.NodeID(i % n)
		to := graph.NodeID((i + 7) % n)
		if from != to {
			events = append(events, Event{Type: EvReject, From: from, To: to, Interval: i % 3})
		}
	}
	postEvents(t, ts.URL, events)
	ts.Close()
	<-hold

	interrupted, err := s.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if interrupted {
		t.Fatal("idle shutdown reported an interrupted detection")
	}
	gotReqs := readJournal(t, dir)
	if want := EventsToRequests(events); !reflect.DeepEqual(gotReqs, want) {
		t.Fatalf("journal holds %d of %d accepted events after drain", len(gotReqs), len(want))
	}
}

func TestShutdownInterruptsDetection(t *testing.T) {
	// A workload with many rejection-bearing intervals keeps the engine
	// busy long enough to interrupt: cancellation is polled between rounds,
	// once per interval at minimum.
	const n, intervals = 80, 400
	base := testBase(n)
	var events []Event
	r := rand.New(rand.NewPCG(4, 44))
	for iv := 0; iv < intervals; iv++ {
		for k := 0; k < 12; k++ {
			from := graph.NodeID(r.IntN(20))
			to := 20 + graph.NodeID(r.IntN(n-20))
			events = append(events, Event{Type: EvReject, From: from, To: to, Interval: iv})
		}
	}
	s, ts := newTestServer(t, base, func(cfg *Config) {
		cfg.Detector.Cut.Restarts = 2
	})
	postEvents(t, ts.URL, events)
	drainIngest(t, s)

	detectDone := make(chan error, 1)
	go func() {
		_, err := s.Detect(context.Background())
		detectDone <- err
	}()
	// Wait until the detection is genuinely in flight, then pull the plug.
	waitFor(t, 10*time.Second, "detection to start", func() bool {
		var st statsReply
		getJSON(t, ts.URL+"/v1/stats", &st)
		return st.DetectInflight
	})
	ts.Close()
	interrupted, err := s.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Fatal("shutdown during a running detection did not report interruption")
	}
	if err := <-detectDone; !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("in-flight Detect returned %v, want ErrInterrupted", err)
	}
	// The partial epoch was still published.
	ep := s.CurrentEpoch()
	if !ep.Interrupted {
		t.Fatal("interrupted epoch not marked as such")
	}
}

func TestPeriodicDetection(t *testing.T) {
	const n = 60
	r := rand.New(rand.NewPCG(2, 6))
	events := spamWorkload(r, n, 10)
	s, ts := newTestServer(t, testBase(n), func(cfg *Config) {
		cfg.DetectEvery = 20 * time.Millisecond
	})
	postEvents(t, ts.URL, events)
	waitFor(t, 10*time.Second, "a periodic detection epoch", func() bool {
		ep := s.CurrentEpoch()
		return ep.Seq >= 1 && ep.Events > 0
	})
}
