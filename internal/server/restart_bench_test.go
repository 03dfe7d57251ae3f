package server

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/storage"
)

// BenchmarkRestart measures time-to-serving after a process restart: open
// the store, recover, and build epoch 0 — everything between exec and the
// first useful /v1/suspects answer. With no snapshot the server replays
// every segment and folds the whole journal into a fresh frozen read model;
// with one, it loads the snapshot's CSR and engine memo and patches the
// tail, so restart cost tracks the delta since the last snapshot, not
// journal length. The benchmark's restart_s and storage.recover_ms time
// the same path end to end.
func BenchmarkRestart(b *testing.B) {
	for _, nEvents := range []int{100_000, 1_000_000} {
		base, reqs := benchRestartWorld(nEvents)
		// Snapshot covering 99% of the journal: the realistic steady
		// state of a server snapshotting every SnapshotEvery records.
		for _, leg := range []struct {
			name   string
			snapAt int
		}{{"none", 0}, {"99pct", nEvents * 99 / 100}} {
			b.Run(fmt.Sprintf("snapshot=%s/events=%d", leg.name, nEvents), func(b *testing.B) {
				dir := b.TempDir()
				seedStore(b, dir, base, reqs, leg.snapAt)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := storage.Open(storage.Options{Dir: dir})
					if err != nil {
						b.Fatal(err)
					}
					benchRestartOnce(b, base, st)
				}
			})
		}
	}
}

// benchRestartWorld builds an n-event answered-request workload over a
// fixed 5000-user base.
func benchRestartWorld(nEvents int) (*graph.Graph, []core.TimedRequest) {
	const nUsers = 5000
	base := testBase(nUsers)
	r := rand.New(rand.NewPCG(42, 7))
	reqs := make([]core.TimedRequest, 0, nEvents)
	for len(reqs) < nEvents {
		from, to := graph.NodeID(r.IntN(nUsers)), graph.NodeID(r.IntN(nUsers))
		if from == to {
			continue
		}
		reqs = append(reqs, core.TimedRequest{
			From: from, To: to,
			Accepted: r.IntN(4) > 0,
			Interval: r.IntN(4),
		})
	}
	return base, reqs
}

// seedStore writes the whole workload under dir the way a live server
// would have: journal appends, plus — at snapAt records (0 = never) — the
// snapshot a detection there persists: the prefix, its frozen read model,
// and the memo of an engine stepped over it.
func seedStore(b *testing.B, dir string, base *graph.Graph, reqs []core.TimedRequest, snapAt int) {
	b.Helper()
	st, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Recover(nil); err != nil {
		b.Fatal(err)
	}
	for i, req := range reqs {
		if err := st.Append(req); err != nil {
			b.Fatal(err)
		}
		if i+1 != snapAt {
			continue
		}
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
		eng, err := incr.NewEngine(incr.Config{Base: base, Detector: testDetectorOptions()})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := eng.Step(incr.Delta{Requests: reqs[:snapAt]}); err != nil {
			b.Fatal(err)
		}
		memo, err := eng.ExportMemo()
		if err != nil {
			b.Fatal(err)
		}
		err = st.Snapshot(storage.SnapshotState{
			Count: snapAt, Requests: reqs[:snapAt], Frozen: coldFold(base, reqs[:snapAt]), Memo: memo,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchRestartOnce is one timed restart: server.New over an opened store
// (recovery + epoch 0), with shutdown excluded from the timer.
func benchRestartOnce(b *testing.B, base *graph.Graph, st storage.Store) {
	b.Helper()
	s, err := New(Config{
		Base:     base,
		Detector: testDetectorOptions(),
		Store:    st,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if _, err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
}
