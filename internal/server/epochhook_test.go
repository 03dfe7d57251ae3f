package server

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestEpochHookObservesPublishes wires Config.EpochHook — the observation
// seam the adversary game loop taps — and checks that every published epoch
// hands the hook the same ascending suspect union the read endpoints serve.
func TestEpochHookObservesPublishes(t *testing.T) {
	const n, spammers = 300, 40
	type publish struct {
		seq      int64
		suspects []graph.NodeID
	}
	var (
		mu        sync.Mutex
		published []publish
	)
	s, ts := newTestServer(t, testBase(n), func(cfg *Config) {
		cfg.EpochHook = func(seq int64, suspects []graph.NodeID) {
			mu.Lock()
			defer mu.Unlock()
			published = append(published, publish{seq: seq, suspects: suspects})
		}
	})

	r := rand.New(rand.NewPCG(1, 91))
	postEvents(t, ts.URL, spamWorkload(r, n, spammers))
	drainIngest(t, s)
	ep := detectNow(t, s)

	mu.Lock()
	defer mu.Unlock()
	if len(published) == 0 {
		t.Fatal("EpochHook never fired")
	}
	// The startup recovery epoch (seq 0, no detection) publishes too; the
	// detection epoch must be the last publish observed.
	last := published[len(published)-1]
	if last.seq != ep.Seq {
		t.Fatalf("last hooked seq = %d, want detection epoch %d", last.seq, ep.Seq)
	}

	want := make(map[graph.NodeID]bool)
	for _, d := range ep.Intervals {
		for _, u := range d.Detection.Suspects {
			want[u] = true
		}
	}
	if len(last.suspects) != len(want) {
		t.Fatalf("hook saw %d suspects, epoch has %d", len(last.suspects), len(want))
	}
	for i, u := range last.suspects {
		if !want[u] {
			t.Fatalf("hook suspect %d not in the epoch's union", u)
		}
		if i > 0 && last.suspects[i-1] >= u {
			t.Fatalf("hook suspects not strictly ascending at index %d", i)
		}
	}
	if len(want) == 0 {
		t.Fatal("workload produced no suspects; the assertion is vacuous")
	}
}
