package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/storage"
)

// failingStore is a storage.Store fake whose failAt-th Append, or
// failFlushAt-th Flush, returns an error (every later one too, as a full
// disk would); zero never fails. It counts what it took, how often it was
// flushed and what a Flush has since made durable.
type failingStore struct {
	failAt      int
	failFlushAt int

	mu       sync.Mutex
	appended []core.TimedRequest
	flushes  int
	durable  int
}

var errDiskFull = errors.New("no space left on device")

func (f *failingStore) Recover(func([]core.TimedRequest) error) (storage.Recovered, error) {
	return storage.Recovered{}, nil
}

func (f *failingStore) Append(req core.TimedRequest) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAt > 0 && len(f.appended)+1 >= f.failAt {
		return errDiskFull
	}
	f.appended = append(f.appended, req)
	return nil
}

func (f *failingStore) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushes++
	if f.failFlushAt > 0 && f.flushes >= f.failFlushAt {
		return errDiskFull
	}
	f.durable = len(f.appended)
	return nil
}

func (f *failingStore) Snapshot(storage.SnapshotState) error { return nil }
func (f *failingStore) Stats() storage.Stats                 { return storage.Stats{Backend: "failing"} }
func (f *failingStore) Close() error                         { return nil }

func (f *failingStore) durableRecords() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.durable
}

func (f *failingStore) flushCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushes
}

// failingBackend puts the same failing journal behind the Backend seam,
// detecting with the cold batch engine over what it was handed.
type failingBackend struct {
	*failingStore
	base *graph.Graph
}

func (b failingBackend) Recover(func([]core.TimedRequest) error) (int, error) { return 0, nil }
func (b failingBackend) Mode() string                                         { return "failing" }
func (b failingBackend) Stats() any                                           { return nil }

func (b failingBackend) Detect(events int, _ <-chan struct{}) ([]core.IntervalDetection, error) {
	b.mu.Lock()
	reqs := b.appended[:events:events]
	b.mu.Unlock()
	return core.DetectSharded(b.base, reqs, testDetectorOptions())
}

// TestJournalFailureIsLoud: once the journal refuses a record the server
// must stop acking, folding and publishing — ingest and detection answer
// 503, /v1/stats names the error, the last good epoch and /v1/score keep
// being served, and no published epoch covers more records than the
// journal made durable; and the events it had already acked 202 but could no
// longer journal are counted, not silently lost. Same contract whether the
// sink is the local Store or a Backend.
func TestJournalFailureIsLoud(t *testing.T) {
	const n, good, failAt = 60, 20, 31
	pairs := func(k, interval int) []Event {
		var evs []Event
		for i := 0; i < k; i++ {
			from, to := graph.NodeID(i%10), graph.NodeID(10+(i*7+interval)%50)
			evs = append(evs,
				Event{Type: EvRequest, From: from, To: to, Interval: interval},
				Event{Type: EvReject, From: from, To: to, Interval: interval})
		}
		return evs
	}
	for _, mode := range []string{"local", "backend"} {
		t.Run(mode, func(t *testing.T) {
			base := testBase(n)
			fake := &failingStore{failAt: failAt}
			s, ts := newTestServer(t, base, func(cfg *Config) {
				if mode == "backend" {
					cfg.Backend = failingBackend{fake, base}
				} else {
					cfg.Store = fake
				}
			})

			// A healthy first batch: journaled, flushed, detected.
			postEvents(t, ts.URL, pairs(good, 0))
			drainIngest(t, s)
			lastGood := detectNow(t, s)
			if lastGood.Events != good {
				t.Fatalf("healthy epoch covers %d events, want %d", lastGood.Events, good)
			}

			// The second batch runs into the failing Append mid-way: its
			// record 11 is event 21 of 40, so 19 acked events are dropped.
			droppedBefore := statsOf(t, ts.URL).JournalDropped
			postEvents(t, ts.URL, pairs(good, 1))
			var stats statsReply
			waitFor(t, 10*time.Second, "journal_error in /v1/stats", func() bool {
				getJSON(t, ts.URL+"/v1/stats", &stats)
				return stats.JournalError != ""
			})
			if !strings.Contains(stats.JournalError, errDiskFull.Error()) {
				t.Fatalf("journal_error = %q, want the sink's error", stats.JournalError)
			}
			drainIngest(t, s)
			if folded := foldedEvents(s); folded != failAt-1 {
				t.Fatalf("server folded %d records, journal took %d", folded, failAt-1)
			}
			if dropped := statsOf(t, ts.URL).JournalDropped - droppedBefore; dropped != 19 {
				t.Fatalf("dropped_after_journal_error rose by %d, want the 19 events acked and not journaled", dropped)
			}

			resp := postJSON(t, ts.URL+"/v1/events", pairs(1, 2))
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), errDiskFull.Error()) {
				t.Fatalf("POST /v1/events after journal failure = %d %s, want 503 with the error", resp.StatusCode, body)
			}
			resp = postJSON(t, ts.URL+"/v1/detect", []byte("{}"))
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("POST /v1/detect after journal failure = %d, want 503", resp.StatusCode)
			}

			// The last good epoch is still the served one, and covers no
			// more than the journal made durable.
			if ep := s.CurrentEpoch(); ep != lastGood {
				t.Fatalf("epoch %d (%d events) published after the journal failed", ep.Seq, ep.Events)
			}
			if lastGood.Events > fake.durableRecords() {
				t.Fatalf("published epoch covers %d events, journal made %d durable", lastGood.Events, fake.durableRecords())
			}
			var served epochReply
			getJSON(t, ts.URL+"/v1/suspects", &served)
			if served.Epoch != lastGood.Seq {
				t.Fatalf("/v1/suspects serves epoch %d, want %d", served.Epoch, lastGood.Seq)
			}
			resp, err := http.Get(ts.URL + "/v1/score?id=3")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/score after journal failure = %d, want 200", resp.StatusCode)
			}

			ts.Close()
			if _, err := s.Shutdown(context.Background()); !errors.Is(err, errJournal) {
				t.Fatalf("Shutdown returned %v, want the journal failure", err)
			}
		})
	}
}

// TestFlushFailureSurfacesAtEveryCommitPoint drives a failing Flush through
// each of the group commit's four triggers — commitRecords unflushed, the
// commit delay, the flush before a snapshot hand-out, the shutdown drain.
// Whichever trips it, the failure is sticky and loud: /v1/stats names it,
// ingest and detection answer 503, no epoch is published over the
// unflushed records, and Shutdown returns it.
func TestFlushFailureSurfacesAtEveryCommitPoint(t *testing.T) {
	const n = commitRecords + 200 // room for rejectsFrom's recipients
	failFirstFlush := func(cfg *Config) { cfg.Store.(*failingStore).failFlushAt = 1 }
	assertFailed := func(t *testing.T, s *Server, ts *httptest.Server) {
		t.Helper()
		var st statsReply
		waitFor(t, 10*time.Second, "journal_error in /v1/stats", func() bool {
			st = statsOf(t, ts.URL)
			return st.JournalError != ""
		})
		if !strings.Contains(st.JournalError, errDiskFull.Error()) {
			t.Fatalf("journal_error = %q, want the sink's error", st.JournalError)
		}
		for _, path := range []string{"/v1/events", "/v1/detect"} {
			resp := postJSON(t, ts.URL+path, []byte(`{"type":"reject","from":1,"to":2}`))
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("POST %s after the flush failed = %d, want 503", path, resp.StatusCode)
			}
		}
		if ep := s.CurrentEpoch(); ep.Events != 0 {
			t.Fatalf("epoch %d published over %d records that were never made durable", ep.Seq, ep.Events)
		}
		ts.Close()
		if _, err := s.Shutdown(context.Background()); !errors.Is(err, errJournal) {
			t.Fatalf("Shutdown returned %v, want the journal failure", err)
		}
	}

	t.Run("at N", func(t *testing.T) {
		s, ts, store, _ := newClockedServer(t, n, failFirstFlush)
		for sent := 0; sent < commitRecords-1; {
			chunk := min(4096, commitRecords-1-sent)
			postEvents(t, ts.URL, rejectsFrom(1, sent, chunk))
			sent += chunk
		}
		waitQueueEmpty(t, s)
		if store.flushCalls() != 0 {
			t.Fatalf("%d flushes below commitRecords", store.flushCalls())
		}
		// Record commitRecords trips the failing flush; the five events
		// behind it in the batch were acked and are dropped, counted.
		droppedBefore := statsOf(t, ts.URL).JournalDropped
		postEvents(t, ts.URL, rejectsFrom(1, commitRecords-1, 6))
		waitQueueEmpty(t, s)
		if folded := foldedEvents(s); folded != commitRecords {
			t.Fatalf("server folded %d records, want %d", folded, commitRecords)
		}
		if dropped := statsOf(t, ts.URL).JournalDropped - droppedBefore; dropped != 5 {
			t.Fatalf("dropped_after_journal_error rose by %d, want 5", dropped)
		}
		assertFailed(t, s, ts)
	})

	t.Run("at T", func(t *testing.T) {
		s, ts, _, timers := newClockedServer(t, n, failFirstFlush)
		postEvents(t, ts.URL, rejectsFrom(1, 0, 10))
		waitQueueEmpty(t, s)
		if st := statsOf(t, ts.URL); st.JournalError != "" {
			t.Fatalf("journal_error %q before the delay expired", st.JournalError)
		}
		timers.fire()
		assertFailed(t, s, ts)
	})

	t.Run("before a snapshot hand-out", func(t *testing.T) {
		s, ts, _, _ := newClockedServer(t, n, failFirstFlush)
		postEvents(t, ts.URL, rejectsFrom(1, 0, 10))
		waitQueueEmpty(t, s)
		if _, err := s.Detect(context.Background()); !errors.Is(err, errJournal) {
			t.Fatalf("Detect returned %v, want the journal failure", err)
		}
		assertFailed(t, s, ts)
	})

	t.Run("on shutdown", func(t *testing.T) {
		s, ts, store, _ := newClockedServer(t, n, failFirstFlush)
		hold := parkIngest(s)
		postEvents(t, ts.URL, rejectsFrom(1, 0, 10))
		ts.Close()
		<-hold
		if _, err := s.Shutdown(context.Background()); !errors.Is(err, errJournal) {
			t.Fatalf("Shutdown returned %v, want the journal failure", err)
		}
		if store.durableRecords() != 0 {
			t.Fatalf("%d records reported durable past a failed flush", store.durableRecords())
		}
	})
}
