// Crash-recovery property tests: these live in package storage_test so
// they can drive the store through chaos.StoreFaults (package chaos
// imports storage; an in-package test would cycle).
//
// The correctness bar, from the storage engine's contract: every prefix of
// every seeded event sequence must recover to a state whose next epoch is
// byte-identical to a cold batch replay of that prefix — including after
// seeded torn writes and crash-restarts under the chaos clock.
package storage_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/storage"
)

func detOpts() core.DetectorOptions {
	return core.DetectorOptions{
		Cut:                 core.CutOptions{RandSeed: 7, Parallelism: 2},
		AcceptanceThreshold: 0.6,
		MaxRounds:           4,
	}
}

func randomBase(r *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddFriendship(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	for i := 0; i < 2*n; i++ {
		u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if u != v {
			g.AddFriendship(u, v)
		}
	}
	return g
}

func randomReqs(r *rand.Rand, n, count int) []core.TimedRequest {
	reqs := make([]core.TimedRequest, 0, count)
	for len(reqs) < count {
		from, to := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if from == to {
			continue
		}
		reqs = append(reqs, core.TimedRequest{
			From: from, To: to,
			Accepted: r.IntN(3) > 0,
			Interval: r.IntN(3),
		})
	}
	return reqs
}

// checkEpochIdentity asserts the bar: detections computed from the
// recovered state (memo-resumed engine over the tail, or a fresh engine
// over the whole log) are byte-identical, JSON-marshalled, to a cold
// core.DetectSharded replay of the recovered journal. It also checks the
// recovered frozen snapshot patches forward to the canonical fold.
func checkEpochIdentity(t *testing.T, base *graph.Graph, log []core.TimedRequest, rec storage.Recovered) bool {
	t.Helper()
	opts := detOpts()
	cold, err := core.DetectSharded(base, log, opts)
	if err != nil {
		t.Fatalf("cold replay: %v", err)
	}

	eng, err := incr.NewEngine(incr.Config{Base: base, Detector: opts, DisableWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	tail := log
	if rec.Memo != nil {
		if err := eng.ImportMemo(rec.Memo); err != nil {
			t.Fatalf("importing recovered memo: %v", err)
		}
		tail = log[rec.SnapshotCount:]
	}
	var d incr.Delta
	for _, req := range tail {
		d.AddRequest(req)
	}
	warm, _, err := eng.Step(d)
	if err != nil {
		t.Fatalf("memo-resumed step: %v", err)
	}
	ja, _ := json.Marshal(cold)
	jb, _ := json.Marshal(warm)
	if len(cold) == 0 && len(warm) == 0 {
		// nil vs empty: no intervals either way; both publish no suspects.
		return true
	}
	if !bytes.Equal(ja, jb) {
		t.Logf("cold:    %s", ja)
		t.Logf("resumed: %s", jb)
		return false
	}
	return true
}

// TestCrashRecoveryProperty drives a seeded request sequence into a store
// while chaos.StoreFaults injects crashes (with torn writes) at every
// storage fault point. After each simulated crash the store is reopened
// exactly as a restarted process would find it; the recovered journal must
// be a prefix of everything appended and cover everything flushed, and the
// recovered state must pass the epoch-identity bar. The chaos clock stamps
// snapshots so the schedule is fully deterministic per seed.
func TestCrashRecoveryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 83))
		n := 12 + r.IntN(16)
		base := randomBase(r, n)
		reqs := randomReqs(r, n, 100+r.IntN(80))
		clock := chaos.NewClock()
		faults := chaos.NewStoreFaults(chaos.StoreFaultOptions{
			Seed:   seed,
			PCrash: 0.02,
			// Bounded so the run provably terminates once the budget is
			// spent; 8 crashes over ~200 operations is a brutal schedule.
			MaxFaults: 8,
		})
		dir := t.TempDir()
		open := func() storage.Store {
			st, err := storage.Open(storage.Options{
				Dir: dir,
				// Tiny segments: the sequence crosses many seal/roll
				// boundaries, so crashes land on every code path.
				SegmentBytes: 20 * 18,
				Now:          clock.Now,
				Hooks:        faults,
			})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return st
		}

		// The mirror engine advances only at snapshot time, exactly like
		// the server's detector goroutine.
		mirror, err := incr.NewEngine(incr.Config{Base: base, Detector: detOpts(), DisableWarm: true})
		if err != nil {
			t.Fatal(err)
		}
		stepped := 0

		flushed, crashed := 0, false
		for attempt := 0; ; attempt++ {
			if attempt > 40 {
				t.Fatal("crash loop did not converge")
			}
			st := open()
			var log []core.TimedRequest
			rec, err := st.Recover(func(req []core.TimedRequest) error {
				log = append(log, req...)
				return nil
			})
			if errors.Is(err, storage.ErrCrashed) {
				// Recovery itself hit a fault point (a segment roll or
				// manifest rewrite can crash too): the process died again
				// mid-boot. Reopen, like the next restart would.
				crashed = true
				st.Close()
				continue
			}
			if err != nil {
				t.Fatalf("attempt %d: Recover: %v\nfaults: %v", attempt, err, faults.Log())
			}
			if len(log) < flushed {
				t.Fatalf("attempt %d: recovered %d records but %d were flushed", attempt, len(log), flushed)
			}
			if len(log) > len(reqs) {
				t.Fatalf("attempt %d: recovered %d records, only %d ever appended", attempt, len(log), len(reqs))
			}
			for i := range log {
				if log[i] != reqs[i] {
					t.Fatalf("attempt %d: record %d recovered as %+v, want %+v", attempt, i, log[i], reqs[i])
				}
			}
			if rec.SnapshotCount > len(log) {
				t.Fatalf("attempt %d: snapshot covers %d of a %d-record journal", attempt, rec.SnapshotCount, len(log))
			}
			// The bar, after every crash-restart: recovered state's next
			// epoch equals cold replay of the recovered prefix.
			if crashed && !checkEpochIdentity(t, base, log, rec) {
				return false
			}
			crashed = false
			flushed = len(log)

			cursor := len(log)
			ok := func(err error) bool {
				if err == nil {
					return true
				}
				if errors.Is(err, storage.ErrCrashed) {
					crashed = true
					st.Close()
					return false
				}
				t.Fatalf("attempt %d: %v", attempt, err)
				return false
			}
			for cursor < len(reqs) && !crashed {
				clock.Advance(time.Millisecond)
				if !ok(st.Append(reqs[cursor])) {
					break
				}
				cursor++
				if cursor%10 == 0 || cursor == len(reqs) {
					if !ok(st.Flush()) {
						break
					}
					flushed = cursor
					if r.IntN(4) == 0 {
						// Snapshot the flushed prefix, mirroring the
						// server: step the engine to the snapshot count,
						// export its memo, persist frozen + memo.
						var d incr.Delta
						for _, req := range reqs[stepped:cursor] {
							d.AddRequest(req)
						}
						if _, _, err := mirror.Step(d); err != nil {
							t.Fatalf("mirror step: %v", err)
						}
						stepped = cursor
						memo, err := mirror.ExportMemo()
						if err != nil {
							t.Fatalf("ExportMemo: %v", err)
						}
						ok(st.Snapshot(storage.SnapshotState{
							Count:    cursor,
							Requests: reqs[:cursor],
							Memo:     memo,
						}))
					}
				}
			}
			if crashed {
				continue
			}
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			break
		}

		// Final verification under a clean, fault-free open.
		st, err := storage.Open(storage.Options{Dir: dir, SegmentBytes: 20 * 18, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var log []core.TimedRequest
		rec, err := st.Recover(func(req []core.TimedRequest) error {
			log = append(log, req...)
			return nil
		})
		if err != nil {
			t.Fatalf("final Recover: %v\nfaults: %v", err, faults.Log())
		}
		if len(log) != len(reqs) {
			t.Fatalf("final recovery found %d records, want %d", len(log), len(reqs))
		}
		for i := range log {
			if log[i] != reqs[i] {
				t.Fatalf("final record %d is %+v, want %+v", i, log[i], reqs[i])
			}
		}
		return checkEpochIdentity(t, base, log, rec)
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEveryPrefixRecovers is the deterministic half of the bar: for one
// seeded sequence, every prefix length — written cleanly, with a snapshot
// halfway through the prefix — recovers to exactly that prefix, and the
// recovered state passes the epoch-identity check.
func TestEveryPrefixRecovers(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 83))
	n := 14
	base := randomBase(r, n)
	reqs := randomReqs(r, n, 48)
	opts := detOpts()

	for k := 0; k <= len(reqs); k += 3 {
		dir := t.TempDir()
		st, err := storage.Open(storage.Options{Dir: dir, SegmentBytes: 10 * 18})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(nil); err != nil {
			t.Fatal(err)
		}
		snapAt := k / 2
		var memo *incr.MemoState
		if snapAt > 0 {
			eng, err := incr.NewEngine(incr.Config{Base: base, Detector: opts, DisableWarm: true})
			if err != nil {
				t.Fatal(err)
			}
			var d incr.Delta
			for _, req := range reqs[:snapAt] {
				d.AddRequest(req)
			}
			if _, _, err := eng.Step(d); err != nil {
				t.Fatal(err)
			}
			if memo, err = eng.ExportMemo(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			if err := st.Append(reqs[i]); err != nil {
				t.Fatalf("k=%d append %d: %v", k, i, err)
			}
			if i+1 == snapAt {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				err := st.Snapshot(storage.SnapshotState{
					Count:    snapAt,
					Requests: reqs[:snapAt],
					Memo:     memo,
				})
				if err != nil {
					t.Fatalf("k=%d snapshot: %v", k, err)
				}
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := storage.Open(storage.Options{Dir: dir, SegmentBytes: 10 * 18})
		if err != nil {
			t.Fatal(err)
		}
		var log []core.TimedRequest
		rec, err := st2.Recover(func(req []core.TimedRequest) error {
			log = append(log, req...)
			return nil
		})
		if err != nil {
			t.Fatalf("k=%d recover: %v", k, err)
		}
		if len(log) != k {
			t.Fatalf("k=%d: recovered %d records", k, len(log))
		}
		for i := range log {
			if log[i] != reqs[i] {
				t.Fatalf("k=%d: record %d differs", k, i)
			}
		}
		if snapAt > 0 && rec.SnapshotCount != snapAt {
			t.Fatalf("k=%d: snapshot count %d, want %d", k, rec.SnapshotCount, snapAt)
		}
		if !checkEpochIdentity(t, base, log, rec) {
			t.Fatalf("k=%d: epoch identity failed", k)
		}
		st2.Close()
	}
}
