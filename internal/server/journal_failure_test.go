package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/storage"
)

// failingStore is a storage.Store fake whose failAt-th Append returns an
// error (every later one too, as a full disk would). It counts what it
// took and what a Flush has since made durable.
type failingStore struct {
	failAt int

	mu       sync.Mutex
	appended []core.TimedRequest
	durable  int
}

var errDiskFull = errors.New("no space left on device")

func (f *failingStore) Recover(func([]core.TimedRequest) error) (storage.Recovered, error) {
	return storage.Recovered{}, nil
}

func (f *failingStore) Append(req core.TimedRequest) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.appended)+1 >= f.failAt {
		return errDiskFull
	}
	f.appended = append(f.appended, req)
	return nil
}

func (f *failingStore) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
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
// journal made durable. Same contract whether the sink is the local Store
// or a Backend.
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

			// The second batch runs into the failing Append mid-way.
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
