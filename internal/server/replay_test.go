package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestReplayDeterminismUnderConcurrency is the tentpole invariant: a live
// server fed by 8 concurrent writers — with periodic detections stepping
// the engine over arbitrary journal prefixes and 4 concurrent suspect/user
// readers racing the ingest — must end up with an event log whose batch
// replay (core.DetectSharded over the journal) is byte-identical to the
// server's own final detection. Run it under -race:
// the readers and writers also double as the data-race probe for the
// epoch-swap snapshot model. The "restarts" variant runs every sweep —
// live server and both replays — from two initial partitions;
// byte-equality must survive that too, since the replay contract is about
// the journal, not the sweep.
func TestReplayDeterminismUnderConcurrency(t *testing.T) {
	t.Run("flat", func(t *testing.T) { replayDeterminismUnderConcurrency(t, false) })
	t.Run("restarts", func(t *testing.T) { replayDeterminismUnderConcurrency(t, true) })
}

func replayDeterminismUnderConcurrency(t *testing.T, restarts bool) {
	const (
		n        = 200
		spammers = 30
		writers  = 8
		readers  = 4
	)
	r := rand.New(rand.NewPCG(5, 77))
	events := spamWorkload(r, n, spammers)

	// Partition the log among the writers so each (request, answer) pair
	// stays with one writer in order; spamWorkload emits them adjacently.
	parts := make([][]Event, writers)
	for i := 0; i+1 < len(events); i += 2 {
		w := (i / 2) % writers
		parts[w] = append(parts[w], events[i], events[i+1])
	}

	dir := t.TempDir()
	detOpts := testDetectorOptions()
	if restarts {
		detOpts = restartsDetectorOptions()
	}
	s, ts := newTestServer(t, testBase(n), func(cfg *Config) {
		cfg.Store = openSegmented(t, dir)
		cfg.DetectEvery = 5 * time.Millisecond // detections race the ingest
		cfg.Detector = detOpts
	})

	var writersWG, readersWG sync.WaitGroup
	errc := make(chan error, writers+readers) // buffered: workers never block
	stopReaders := make(chan struct{})

	// t.Fatal is main-goroutine-only, so workers report through errc.
	post := func(batch []Event) error {
		body, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/v1/events", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /v1/events = %d", resp.StatusCode)
		}
		return nil
	}
	get := func(url string) error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("GET %s = %d", url, resp.StatusCode)
		}
		return nil
	}

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(part []Event) {
			defer writersWG.Done()
			// Small batches maximize interleaving across writers.
			for len(part) > 0 {
				k := min(8, len(part))
				if err := post(part[:k]); err != nil {
					errc <- err
					return
				}
				part = part[k:]
			}
		}(parts[w])
	}
	for i := 0; i < readers; i++ {
		readersWG.Add(1)
		go func(i int) {
			defer readersWG.Done()
			for u := i; ; u += readers {
				select {
				case <-stopReaders:
					return
				default:
				}
				if err := get(ts.URL + "/v1/suspects"); err != nil {
					errc <- err
					return
				}
				if err := get(ts.URL + "/v1/score?id=" + strconv.Itoa(u%n)); err != nil {
					errc <- err
					return
				}
			}
		}(i)
	}

	writersWG.Wait()
	close(stopReaders)
	readersWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	total := len(EventsToRequests(events))
	drainIngest(t, s)
	finalEp := detectNow(t, s)
	if finalEp.Events != total {
		t.Fatalf("final epoch covers %d events, want %d", finalEp.Events, total)
	}
	stopServer(t, s, ts)

	// The journal is the server's arrival-ordered answered-request log.
	// Batch-replaying it through DetectSharded must reproduce the server's
	// final detection byte for byte.
	logged := readJournal(t, dir)
	if len(logged) != total {
		t.Fatalf("journal holds %d answered requests, want %d", len(logged), total)
	}
	batch, err := core.DetectSharded(testBase(n), logged, detOpts)
	if err != nil {
		t.Fatal(err)
	}
	liveJSON, err := json.Marshal(finalEp.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	batchJSON, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, batchJSON) {
		t.Fatalf("live detection and batch replay diverge:\nlive:  %s\nbatch: %s", liveJSON, batchJSON)
	}

	// And because detection canonicalizes each interval's overlay, the
	// original pre-shuffle event order replays to the same result too, even
	// though the concurrent arrival order differs from it.
	replayed, err := Replay(testBase(n), events, detOpts)
	if err != nil {
		t.Fatal(err)
	}
	replayJSON, err := json.Marshal(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, replayJSON) {
		t.Fatal("replay of the pre-shuffle log diverges from the live detection")
	}
}
