package kl

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bucketlist"
	"repro/internal/graph"
)

// TestPartitionFrozenMatchesSlicePath: on randomized graphs, configs, and
// initial partitions — with and without pins — PartitionFrozen must return
// the identical partition, objective, cut statistics, and pass count as the
// slice engine. The "dense" rows run the workspace's specialized bucket
// structure; the "generic" rows give one node at least 40 rejections and
// w_R ≥ 2¹⁷, a gain range past the dense limit, so the pass falls back to
// the generic bucket list.
func TestPartitionFrozenMatchesSlicePath(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		ws := &Workspace{} // shared across instances: reuse must not leak state
		f := func(seed uint64) bool {
			r := rand.New(rand.NewPCG(seed, 41))
			n := 2 + r.IntN(30)
			g := randomAugmented(r, n, r.IntN(4*n), r.IntN(3*n))
			cfg := Config{
				FriendWeight: 64,
				RejectWeight: int64(r.IntN(300)), // includes w_R = 0
			}
			return matchesSlicePath(r, g, cfg, ws) && ws.list == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("generic", func(t *testing.T) {
		ws := &Workspace{}
		f := func(seed uint64) bool {
			r := rand.New(rand.NewPCG(seed, 45))
			n := 30 + r.IntN(40)
			g := randomAugmented(r, n, r.IntN(4*n), r.IntN(3*n))
			for g.InRejections(0)+g.OutRejections(0) < 40 {
				if v := graph.NodeID(1 + r.IntN(n-1)); r.IntN(2) == 0 {
					g.AddRejection(0, v)
				} else {
					g.AddRejection(v, 0)
				}
			}
			cfg := Config{FriendWeight: 64, RejectWeight: 1<<17 + int64(r.IntN(1<<10))}
			if !matchesSlicePath(r, g, cfg, ws) {
				return false
			}
			_, sparse := ws.list.(*bucketlist.Sparse)
			return sparse && ws.dense == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// matchesSlicePath solves g from a random initial partition, pinning a
// random fifth of the nodes half the time, on both engines and reports
// whether every Result field the slice engine fills agrees.
func matchesSlicePath(r *rand.Rand, g *graph.Graph, cfg Config, ws *Workspace) bool {
	n := g.NumNodes()
	init := randomPartition(r, n)
	if r.IntN(2) == 0 {
		pinned := make([]bool, n)
		for i := range pinned {
			pinned[i] = r.IntN(5) == 0
		}
		cfg.Pinned = pinned
	}

	want := Partition(g, init, cfg)
	got := PartitionFrozen(g.Freeze(), init, cfg, ws)

	// The introspection counters feed the tracing layer and must track the
	// slice engine exactly too.
	return got.Objective == want.Objective && got.Passes == want.Passes && got.Stats == want.Stats &&
		got.Switches == want.Switches && got.Rollbacks == want.Rollbacks &&
		len(got.PassGains) == got.Passes && slices.Equal(got.PassGains, want.PassGains) &&
		slices.Equal(got.Partition, want.Partition)
}

// TestPartitionFrozenStatsExact: the incrementally tracked statistics must
// equal a from-scratch Stats walk of the returned partition.
func TestPartitionFrozenStatsExact(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 42))
		n := 2 + r.IntN(25)
		g := randomAugmented(r, n, r.IntN(4*n), r.IntN(3*n))
		fz := g.Freeze()
		init := randomPartition(r, n)
		cfg := Config{FriendWeight: 64, RejectWeight: int64(r.IntN(200))}
		res := PartitionFrozen(fz, init, cfg, nil)
		return res.Stats == fz.Stats(res.Partition)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionFrozenZeroAllocs: after one warm-up call, a PartitionFrozen
// solve through a Workspace — covering every pass it performs — must not
// allocate at all. This is also the observability layer's zero-overhead
// guard: the switch/rollback counters and the PassGains trajectory that
// feed solve.done events are tracked on this path unconditionally, so any
// allocation they introduced would fail here.
func TestPartitionFrozenZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 43))
	g := randomAugmented(r, 400, 1600, 900)
	fz := g.Freeze()
	init := randomPartition(r, 400)
	cfg := Config{FriendWeight: 64, RejectWeight: 96}

	ws := &Workspace{}
	PartitionFrozen(fz, init, cfg, ws) // warm up workspace buffers

	allocs := testing.AllocsPerRun(20, func() {
		PartitionFrozen(fz, init, cfg, ws)
	})
	if allocs != 0 {
		t.Fatalf("PartitionFrozen allocated %.1f objects per run, want 0", allocs)
	}
}

// TestPartitionFrozenWorkspaceAcrossGraphs: one workspace must serve
// differently sized graphs and gain ranges back to back, as the sweep and
// the iterative detector's shrinking residuals do.
func TestPartitionFrozenWorkspaceAcrossGraphs(t *testing.T) {
	ws := &Workspace{}
	r := rand.New(rand.NewPCG(11, 44))
	for _, n := range []int{30, 7, 120, 2, 64} {
		g := randomAugmented(r, n, 3*n, 2*n)
		init := randomPartition(r, n)
		cfg := Config{FriendWeight: 64, RejectWeight: int64(1 + r.IntN(2000))}
		want := Partition(g, init, cfg)
		got := PartitionFrozen(g.Freeze(), init, cfg, ws)
		if got.Objective != want.Objective || got.Stats != want.Stats {
			t.Fatalf("n=%d: frozen result diverged from slice path", n)
		}
	}
}

// TestPartitionFrozenNilWorkspace: a nil workspace must work.
func TestPartitionFrozenNilWorkspace(t *testing.T) {
	g := twoCommunities(6, 4)
	init := graph.NewPartition(12)
	res := PartitionFrozen(g.Freeze(), init, Config{FriendWeight: 64, RejectWeight: 128}, nil)
	want := Partition(g, init, Config{FriendWeight: 64, RejectWeight: 128})
	if res.Objective != want.Objective {
		t.Fatalf("objective = %d, want %d", res.Objective, want.Objective)
	}
}
