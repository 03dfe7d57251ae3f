package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/simulate"
	"repro/internal/storage"
)

// storageSegBytes keeps segments small enough that the journal spans
// several of them, so compaction and the per-segment scan are exercised.
const storageSegBytes = 128 * 1024

// runStorage measures what a rejectod restart costs and recovers under the
// segmented store: where boot records come from at different snapshot
// coverages, what a torn tail costs, and whether the recovered state's next
// epoch stays byte-identical to a cold batch replay — including across a
// storm of seeded crash injections.
func runStorage(cfg simulate.Config, _ *cliArgs) error {
	n := max(400, int(2000*cfg.Scale))
	journalLen := max(5000, int(50000*cfg.Scale))
	const intervals = 8

	opts := core.DetectorOptions{
		Cut:                 core.CutOptions{RandSeed: cfg.Seed, Parallelism: 2},
		AcceptanceThreshold: 0.6,
		MaxRounds:           4,
	}
	w := newIncrWorld(cfg.Seed, n, journalLen, intervals, 0.01)

	cold, err := core.DetectSharded(w.base, w.journal, opts)
	if err != nil {
		return err
	}

	t := simulate.NewTable(
		fmt.Sprintf("Durability & recovery — segmented store restart (%d users, %d-record journal, %dKiB segments)",
			n, journalLen, storageSegBytes/1024),
		"scenario", "records", "from snap", "from segs", "torn B", "recovery", "epoch==batch")

	for _, sc := range []struct {
		name     string
		coverage float64 // journal fraction covered by the snapshot; <0 = none
		memo     bool
		torn     int // garbage bytes appended to the live segment pre-boot
	}{
		{"segments only", -1, false, 0},
		{"snapshot 50%", 0.50, false, 0},
		{"snapshot 99% + memo", 0.99, true, 0},
		{"99% + torn tail", 0.99, true, 7},
	} {
		info, identical, err := storageScenario(w, opts, cold, sc.coverage, sc.memo, sc.torn)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		t.AddRow(sc.name, info.Records, info.SnapshotRecords, info.SegmentRecords,
			info.TornBytesTruncated, info.Duration.Round(100*time.Microsecond).String(),
			identical)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	// The crash storm: seeded fault injection at every storage crash point,
	// reopening after each simulated crash, resuming the append stream from
	// whatever survived. The bar is the one the property tests enforce —
	// every recovery yields a journal prefix and the final epoch is
	// byte-identical to the cold batch replay.
	const seeds, maxFaults = 8, 4
	crashes, reopens := 0, 0
	for s := uint64(1); s <= seeds; s++ {
		c, r, err := storageCrashStorm(w, cold, opts, cfg.Seed+s, maxFaults)
		if err != nil {
			return fmt.Errorf("crash storm seed %d: %w", s, err)
		}
		crashes += c
		reopens += r
	}
	fmt.Printf("crash storm: %d seeds x <=%d faults -> %d injected crashes, %d recoveries, every final epoch byte-identical to cold replay\n",
		seeds, maxFaults, crashes, reopens)
	return nil
}

// storageScenario seeds a fresh store with w's journal (snapshotting at the
// given coverage), optionally tears the live segment, reboots, and reports
// the recovery shape plus whether the recovered state's epoch matches the
// cold batch detections.
func storageScenario(w *incrWorld, opts core.DetectorOptions, cold []core.IntervalDetection, coverage float64, memo bool, torn int) (storage.RecoveryInfo, bool, error) {
	var info storage.RecoveryInfo
	dir, err := os.MkdirTemp("", "exp-storage-*")
	if err != nil {
		return info, false, err
	}
	defer os.RemoveAll(dir)

	st, err := storage.Open(storage.Options{Dir: dir, SegmentBytes: storageSegBytes})
	if err != nil {
		return info, false, err
	}
	if _, err := st.Recover(nil); err != nil {
		return info, false, err
	}
	snapAt := -1
	if coverage >= 0 {
		snapAt = int(coverage * float64(len(w.journal)))
	}
	for i, req := range w.journal {
		if err := st.Append(req); err != nil {
			return info, false, err
		}
		if i+1 == snapAt {
			if err := st.Flush(); err != nil {
				return info, false, err
			}
			snap := storage.SnapshotState{
				Count:    snapAt,
				Requests: w.journal[:snapAt],
				Frozen:   foldJournal(w.base, w.journal[:snapAt]),
			}
			if memo {
				m, err := memoAt(w, opts, snapAt)
				if err != nil {
					return info, false, err
				}
				snap.Memo = m
			}
			if err := st.Snapshot(snap); err != nil {
				return info, false, err
			}
		}
	}
	if err := st.Close(); err != nil {
		return info, false, err
	}
	if torn > 0 {
		if err := tearLiveSegment(dir, torn); err != nil {
			return info, false, err
		}
	}

	st, err = storage.Open(storage.Options{Dir: dir, SegmentBytes: storageSegBytes})
	if err != nil {
		return info, false, err
	}
	defer st.Close()
	var log []core.TimedRequest
	rec, err := st.Recover(func(reqs []core.TimedRequest) error {
		log = append(log, reqs...)
		return nil
	})
	if err != nil {
		return info, false, err
	}
	info = rec.Info

	// The epoch the restarted server would serve: memo-primed engine steps
	// over the tail when the snapshot carried one, cold detection otherwise.
	// Warm starts stay off on both sides (as in the identity tests and
	// rejectod's -disable-warm-start) — warm sweeps are quality-gated but
	// not byte-identical, and byte-identity is what this column reports.
	var epoch []core.IntervalDetection
	if rec.Memo != nil {
		eng, err := incr.NewEngine(incr.Config{Base: w.base, Detector: opts, DisableWarm: true})
		if err != nil {
			return info, false, err
		}
		if err := eng.ImportMemo(rec.Memo); err != nil {
			return info, false, err
		}
		var tail incr.Delta
		tail.Requests = log[rec.SnapshotCount:]
		if epoch, _, err = eng.Step(tail); err != nil {
			return info, false, err
		}
	} else {
		if epoch, err = core.DetectSharded(w.base, log, opts); err != nil {
			return info, false, err
		}
	}
	same, err := sameDetections(epoch, cold)
	return info, same, err
}

// storageCrashStorm appends w's journal under a seeded fault injector,
// reopening after every simulated crash and resuming from the recovered
// prefix. Returns crash and reopen counts; errors if a recovery is not a
// journal prefix or the final epoch diverges from cold.
func storageCrashStorm(w *incrWorld, cold []core.IntervalDetection, opts core.DetectorOptions, seed uint64, maxFaults int) (crashes, reopens int, err error) {
	dir, err := os.MkdirTemp("", "exp-storage-chaos-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	faults := chaos.NewStoreFaults(chaos.StoreFaultOptions{Seed: seed, PCrash: 0.01, MaxFaults: maxFaults})
	open := func() (storage.Store, []core.TimedRequest, error) {
		st, err := storage.Open(storage.Options{Dir: dir, SegmentBytes: storageSegBytes, Hooks: faults})
		if err != nil {
			return nil, nil, err
		}
		var log []core.TimedRequest
		if _, err := st.Recover(func(reqs []core.TimedRequest) error {
			log = append(log, reqs...)
			return nil
		}); err != nil {
			st.Close()
			if errors.Is(err, storage.ErrCrashed) {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("recover: %w", err)
		}
		return st, log, nil
	}

	next := 0 // journal index to append next
	for attempt := 0; ; attempt++ {
		if attempt > 50 {
			return crashes, reopens, fmt.Errorf("no clean pass in %d attempts", attempt)
		}
		st, log, err := open()
		if err != nil {
			if errors.Is(err, storage.ErrCrashed) {
				crashes++
				continue
			}
			return crashes, reopens, err
		}
		reopens++
		if len(log) > next || !sameLog(log, w.journal[:len(log)]) {
			st.Close()
			return crashes, reopens, fmt.Errorf("recovered %d records, not a flushed prefix of %d appended", len(log), next)
		}
		next = len(log)
		crashed := false
		for ; next < len(w.journal); next++ {
			if err := st.Append(w.journal[next]); err != nil {
				if errors.Is(err, storage.ErrCrashed) {
					crashed = true
					break
				}
				st.Close()
				return crashes, reopens, err
			}
			if next%500 == 499 {
				if err := st.Flush(); err != nil {
					if errors.Is(err, storage.ErrCrashed) {
						crashed = true
						break
					}
					st.Close()
					return crashes, reopens, err
				}
			}
		}
		if crashed {
			crashes++
			st.Close()
			continue
		}
		if err := st.Close(); err != nil {
			if errors.Is(err, storage.ErrCrashed) {
				crashes++
				continue
			}
			return crashes, reopens, err
		}
		break
	}

	// Final clean boot: the journal must be complete and its epoch cold-equal.
	st, log, err := open()
	if err != nil {
		return crashes, reopens, err
	}
	defer st.Close()
	reopens++
	if !sameLog(log, w.journal) {
		return crashes, reopens, fmt.Errorf("final recovery lost records: %d of %d", len(log), len(w.journal))
	}
	epoch, err := core.DetectSharded(w.base, log, opts)
	if err != nil {
		return crashes, reopens, err
	}
	same, err := sameDetections(epoch, cold)
	if err != nil {
		return crashes, reopens, err
	}
	if !same {
		return crashes, reopens, fmt.Errorf("final epoch diverged from cold batch replay")
	}
	return crashes, reopens, nil
}

// foldJournal is the server's read-model fold: base + answered requests,
// canonically frozen.
func foldJournal(base *graph.Graph, reqs []core.TimedRequest) *graph.Frozen {
	g := base.Clone()
	for _, req := range reqs {
		if req.Accepted {
			g.AddFriendship(req.From, req.To)
		} else {
			g.AddRejection(req.To, req.From)
		}
	}
	return g.FreezeCanonical()
}

// memoAt exports the incremental engine's memo after stepping the first
// count journal records — what rejectod persists into a snapshot.
func memoAt(w *incrWorld, opts core.DetectorOptions, count int) (*incr.MemoState, error) {
	eng, err := incr.NewEngine(incr.Config{Base: w.base, Detector: opts, DisableWarm: true})
	if err != nil {
		return nil, err
	}
	var prime incr.Delta
	prime.Requests = w.journal[:count]
	if _, _, err := eng.Step(prime); err != nil {
		return nil, err
	}
	return eng.ExportMemo()
}

// tearLiveSegment appends garbage to the lexicographically last segment
// file — the live one — standing in for a crash mid-write.
func tearLiveSegment(dir string, n int) error {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no segment files to tear: %v", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(bytes.Repeat([]byte{0xEE}, n))
	return err
}

func sameLog(a, b []core.TimedRequest) bool {
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

// sameDetections compares two detection results the way the property tests
// do: by their JSON encoding, the server's own reply format.
func sameDetections(a, b []core.IntervalDetection) (bool, error) {
	if len(a) == 0 && len(b) == 0 {
		return true, nil
	}
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}
