package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/score"
	"repro/internal/server"
	"repro/internal/storage"
)

// ledgerSample bounds how much of the workload's open-loop input the
// ledger replays; per-event costs are flat well before that.
const ledgerSample = 1 << 17

// ledgerInput is what the single-threaded replay works from: the
// workload's own open-loop stream, the journal the run left behind, and
// the final epoch.
type ledgerInput struct {
	w          *world
	p          plan
	journal    []core.TimedRequest
	finalEvent int     // journal records the final epoch covered
	suspects   []int32 // its suspect union
	dir        string  // scratch directory for the storage stage
}

// runLedger replays the ingest and epoch paths one layer at a time, on one
// goroutine, calling each layer's public functions directly on the
// workload's generated input. Its stages are the parts; the traced run's
// end-to-end numbers are the whole; the *_unattributed_frac metrics are
// what the stages do not explain.
func runLedger(in ledgerInput, m metricSet) error {
	// Ingest path: decode → fold → observe → delta → append/flush, on the
	// workload's open-loop stream cut into saturation-sized batches — the
	// shape ingest_evps is measured on.
	const n = ledgerSample
	st := in.w.stream("open", 1, 0)
	ivOf := in.p.openInterval()
	var bodies [][]byte
	for pos := 0; pos < n; pos += satBatch {
		evs := st.fill(nil, satBatch, pos, ivOf)
		bodies = append(bodies, appendEvents(nil, evs))
	}

	var events []server.Event
	start := time.Now()
	for _, b := range bodies {
		evs, err := server.ParseEvents(b)
		if err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		events = append(events, evs...)
	}
	decodeNS := perItem(time.Since(start), n)

	start = time.Now()
	reqs := server.EventsToRequests(events)
	foldNS := perItem(time.Since(start), n)
	if len(reqs) == 0 {
		return fmt.Errorf("ledger: sample of %d events holds no answered request", n)
	}

	scorer, err := score.New(in.w.n, score.Options{})
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	start = time.Now()
	for _, r := range reqs {
		scorer.Observe(r.From, r.Accepted)
	}
	observeNS := perItem(time.Since(start), len(reqs))

	var delta incr.Delta
	start = time.Now()
	for _, r := range reqs {
		delta.AddRequest(r)
	}
	deltaNS := perItem(time.Since(start), len(reqs))

	dir := filepath.Join(in.dir, "ledger-store")
	store, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if _, err := store.Recover(func([]core.TimedRequest) error { return nil }); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	// One flush per batch's worth of records: the server flushes when its
	// queue runs empty, which under saturation is about once a batch.
	perBatch := max(1, len(reqs)/len(bodies))
	var appendDur, flushDur time.Duration
	for off := 0; off < len(reqs); off += perBatch {
		start = time.Now()
		for _, r := range reqs[off:min(off+perBatch, len(reqs))] {
			if err := store.Append(r); err != nil {
				return fmt.Errorf("ledger: %w", err)
			}
		}
		appendDur += time.Since(start)
		start = time.Now()
		if err := store.Flush(); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		flushDur += time.Since(start)
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	appendNS := perItem(appendDur, len(reqs))

	answeredShare := float64(len(reqs)) / float64(n)
	m.put("server.decode_ns_per_event", decodeNS, n)
	m.put("server.fold_ns_per_event", foldNS, n)
	m.put("score.observe_ns", observeNS, len(reqs))
	m.put("incr.delta_add_ns", deltaNS, len(reqs))
	m.put("storage.ledger_append_ns_per_rec", appendNS, len(reqs))
	m.put("ledger.ingest_ns_per_event", decodeNS+foldNS+(observeNS+deltaNS+appendNS)*answeredShare+perItem(flushDur, n), n)

	// Epoch path: freeze, splice, publish, score, and the cold single-pass
	// detection of the same job.
	covered := in.journal[:in.finalEvent]
	tail := min(len(covered), max(1, int(float64(max(in.p.cut, in.p.openBatch))*answeredShare)))
	aug := in.w.base.Clone()
	for _, r := range covered[:len(covered)-tail] {
		if r.Accepted {
			aug.AddFriendship(r.From, r.To)
		} else {
			aug.AddRejection(r.To, r.From)
		}
	}
	start = time.Now()
	frozen := aug.FreezeCanonical()
	m.put("graph.freeze_ms", millis(time.Since(start)), 1)
	var cutDelta incr.Delta
	for _, r := range covered[len(covered)-tail:] {
		cutDelta.AddRequest(r)
	}
	start = time.Now()
	patched := incr.Patch(frozen, cutDelta)
	m.put("graph.splice_ms", millis(time.Since(start)), 1)
	if patched.NumNodes() != in.w.n {
		return fmt.Errorf("ledger: patched snapshot has %d nodes, base has %d", patched.NumNodes(), in.w.n)
	}

	suspects := make([]graph.NodeID, len(in.suspects))
	for i, u := range in.suspects {
		suspects[i] = graph.NodeID(u)
	}
	var publish []float64
	for i := 0; i < 5; i++ {
		start = time.Now()
		scorer.PublishEpoch(score.NewEpochView(int64(i+1), int64(len(covered)), in.w.n, suspects))
		publish = append(publish, millis(time.Since(start)))
	}
	m.put("score.publish_ms", median(publish), len(publish))

	const scoreCalls = 1 << 18
	denies := 0
	start = time.Now()
	for i := 0; i < scoreCalls; i++ {
		if scorer.Score(graph.NodeID(i%in.w.n)).Verdict == score.VerdictDeny {
			denies++
		}
	}
	m.put("score.score_ns", perItem(time.Since(start), scoreCalls), scoreCalls)
	if denies == 0 && len(suspects) > 0 {
		return fmt.Errorf("ledger: scorer denies nobody with %d suspects published", len(suspects))
	}

	start = time.Now()
	if _, err := core.DetectSharded(in.w.base, covered, detectorOptions()); err != nil {
		return fmt.Errorf("ledger: cold detect: %w", err)
	}
	m.put("core.cold_detect_s", secs(time.Since(start)), 1)
	return nil
}

func perItem(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
