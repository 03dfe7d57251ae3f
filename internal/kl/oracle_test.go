package kl

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/bucketlist"
	"repro/internal/graph"
)

// fullPassPartition is the paper's Algorithm 1 taken literally: every pass
// switches every free node once in max-gain order and only then looks for
// the best prefix. It shares the slice engine's gain and switch kernels
// but owns its pass loop, so it is the oracle for everything the
// production passes do differently — the in-loop prefix tracking and the
// fruitless-run exit.
func fullPassPartition(g *graph.Graph, init graph.Partition, cfg Config) Result {
	maxPasses := cfg.MaxPasses
	if maxPasses == 0 {
		maxPasses = DefaultMaxPasses
	}
	n := g.NumNodes()
	p := init.Clone()
	o := &optimizer{g: g, cfg: cfg, maxAbs: maxAbsGain(g, cfg)}
	res := Result{}
	for res.Passes < maxPasses {
		res.Passes++
		list := bucketlist.New(n, -o.maxAbs, o.maxAbs)
		for u := 0; u < n; u++ {
			if cfg.Pinned == nil || !cfg.Pinned[u] {
				list.Add(u, o.gain(p, graph.NodeID(u)))
			}
		}
		var nodes []graph.NodeID
		var gains []int64
		for {
			u, gu, ok := list.PopMax()
			if !ok {
				break
			}
			nodes, gains = append(nodes, graph.NodeID(u)), append(gains, gu)
			o.applySwitch(p, graph.NodeID(u), list)
		}
		var cum, bestCum int64
		bestLen := 0
		for i, gu := range gains {
			if cum += gu; cum > bestCum {
				bestCum, bestLen = cum, i+1
			}
		}
		res.Switches += len(nodes)
		res.Rollbacks += len(nodes) - bestLen
		res.PassGains = append(res.PassGains, bestCum)
		for _, u := range nodes[bestLen:] {
			p[u] = p[u].Other()
		}
		if bestCum <= 0 {
			break
		}
	}
	res.Partition = p
	res.Stats = p.Stats(g)
	res.Objective = Objective(g, p, cfg)
	return res
}

// plantedWorld builds a seeded spam world of n nodes: a legitimate region
// with ring-plus-random friendships and a little internal rejection noise,
// and a fake region (a fifth to a third of the nodes) whose members
// befriend each other and spray requests at the legitimate side, mostly
// rejected. The initial partition is the planted one with noise, which is
// what the acceptance heuristic hands KL in the sweep.
func plantedWorld(r *rand.Rand, n int) (*graph.Graph, graph.Partition) {
	nF := n/5 + r.IntN(n/8)
	nL := n - nF
	g := graph.New(n)
	deg := 2 + r.IntN(4)
	for i := 0; i < nL; i++ {
		g.AddFriendship(graph.NodeID(i), graph.NodeID((i+1)%nL))
		for c := 0; c < deg; c++ {
			if v := r.IntN(nL); v != i {
				g.AddFriendship(graph.NodeID(i), graph.NodeID(v))
			}
		}
	}
	for i := 0; i < nL/3; i++ {
		if u, v := r.IntN(nL), r.IntN(nL); u != v {
			g.AddRejection(graph.NodeID(u), graph.NodeID(v))
		}
	}
	reqs, rejRate := 4+r.IntN(12), 0.5+0.4*r.Float64()
	for i := nL; i < n; i++ {
		for c := 0; c < 3; c++ {
			if v := nL + r.IntN(nF); v != i {
				g.AddFriendship(graph.NodeID(i), graph.NodeID(v))
			}
		}
		for q := 0; q < reqs; q++ {
			target := graph.NodeID(r.IntN(nL))
			if r.Float64() < rejRate {
				g.AddRejection(target, graph.NodeID(i))
			} else {
				g.AddFriendship(graph.NodeID(i), target)
			}
		}
	}
	init := graph.NewPartition(n)
	for i := range init {
		if (i >= nL) != (r.IntN(10) == 0) {
			init[i] = graph.Suspect
		}
	}
	return g, init
}

// sweepRejectWeights is the MAAR sweep's default k grid (1/32 … 32 in
// steps of 1.5) as reject weights at the default weight scale of 64.
func sweepRejectWeights() []int64 {
	var ws []int64
	for k := 1.0 / 32; k <= 32*(1+1e-9); k *= 1.5 {
		ws = append(ws, int64(math.Round(k*64)))
	}
	return ws
}

// TestPassProperties runs the production pass against the full-pass oracle
// over seeded planted worlds × the sweep's k grid. Whatever the pass does
// to end early, these must hold of every solve:
//
//   - the slice engine and the frozen engine agree byte for byte;
//   - with at most 256 free nodes the result is the full pass's, exactly;
//   - the objective is never above the initial partition's, and the pass
//     gains add up to the difference;
//   - the result is a single-switch local optimum whenever the solve
//     converged (its last pass kept nothing);
//   - Passes, PassGains, Switches − Rollbacks and EdgesScanned mean what
//     Result says.
//
// What is *not* guaranteed is the same local optimum as the full pass on a
// larger graph; the test logs the distribution of the objective difference
// so the size of that deviation is a measurement, not a claim. On these
// worlds every difference is at k < 1, where the full pass walks the whole
// planted region across the cut one node at a time to reach the trivial
// all-one-side partition — a valley longer than the rule waits, ending in
// a cut the MAAR sweep discards as invalid.
func TestPassProperties(t *testing.T) {
	worlds := 200
	if testing.Short() {
		worlds = 40
	}
	weights := sweepRejectWeights()
	ws := &Workspace{}
	var solves, same, better, worse, worseAboveOne int
	var relDiffs []float64
	for w := 0; w < worlds; w++ {
		r := rand.New(rand.NewPCG(uint64(w), 51))
		// Log-uniform over [300, 8000], so most worlds are quick and a few
		// are large enough for the n/16 arm of the rule.
		n := int(300 * math.Pow(8000.0/300, r.Float64()))
		if w%10 == 0 {
			n = 40 + r.IntN(217) // at most 256 nodes: must equal the oracle
		}
		g, init := plantedWorld(r, n)
		f := g.Freeze()
		initStats := f.Stats(init)
		objective := func(s graph.CutStats, cfg Config) int64 {
			return int64(s.CrossFriendships)*cfg.FriendWeight - int64(s.RejIntoSuspect)*cfg.RejectWeight
		}
		cfg := Config{FriendWeight: 64}
		if w%4 == 0 {
			cfg.Pinned = make([]bool, n)
			for i := range cfg.Pinned {
				cfg.Pinned[i] = r.IntN(50) == 0
			}
		}
		for _, wR := range weights {
			cfg.RejectWeight = wR
			got := PartitionFrozen(f, init, cfg, ws)
			want := fullPassPartition(g, init, cfg)
			solves++

			if w%5 == 0 {
				slice := Partition(g, init, cfg)
				if slice.Objective != got.Objective || slice.Stats != got.Stats ||
					slice.Passes != got.Passes || slice.Switches != got.Switches ||
					slice.Rollbacks != got.Rollbacks || !slices.Equal(slice.Partition, got.Partition) {
					t.Fatalf("world %d n=%d wR=%d: slice and frozen engines diverge", w, n, wR)
				}
			}
			if n <= 256 {
				if got.Objective != want.Objective || got.Passes != want.Passes ||
					got.Switches != want.Switches || got.Rollbacks != want.Rollbacks ||
					!slices.Equal(got.Partition, want.Partition) {
					t.Fatalf("world %d n=%d wR=%d: differs from the full pass below the floor", w, n, wR)
				}
			}

			initObj := objective(initStats, cfg)
			if got.Objective > initObj {
				t.Fatalf("world %d n=%d wR=%d: objective %d above initial %d", w, n, wR, got.Objective, initObj)
			}
			if got.Stats != f.Stats(got.Partition) || got.Objective != objective(got.Stats, cfg) {
				t.Fatalf("world %d n=%d wR=%d: reported stats/objective do not match the partition", w, n, wR)
			}
			if len(got.PassGains) != got.Passes {
				t.Fatalf("world %d n=%d wR=%d: %d pass gains for %d passes", w, n, wR, len(got.PassGains), got.Passes)
			}
			var kept int64
			for i, pg := range got.PassGains {
				if pg <= 0 && i != len(got.PassGains)-1 {
					t.Fatalf("world %d n=%d wR=%d: pass %d kept nothing but was not the last", w, n, wR, i+1)
				}
				if pg > 0 {
					kept += pg
				}
			}
			if kept != initObj-got.Objective {
				t.Fatalf("world %d n=%d wR=%d: pass gains sum to %d, objective fell by %d", w, n, wR, kept, initObj-got.Objective)
			}
			moved := 0
			for u := range init {
				if got.Partition[u] != init[u] {
					moved++
				}
			}
			if net := got.Switches - got.Rollbacks; got.Rollbacks < 0 || net < moved || (net-moved)%2 != 0 {
				t.Fatalf("world %d n=%d wR=%d: %d switches − %d rollbacks cannot produce %d moved nodes",
					w, n, wR, got.Switches, got.Rollbacks, moved)
			}
			// A pass walks the adjacency of every free node once to fill the
			// bucket list and again for each node it switches: a full pass
			// over an unpinned graph is two walks of the CSR arrays, a pass
			// that ended early between one and two.
			walk := int64(got.Passes) * int64(2*g.NumFriendships()+2*g.NumRejections())
			if cfg.Pinned == nil && (got.EdgesScanned < walk || got.EdgesScanned > 2*walk ||
				n <= 256 && got.EdgesScanned != 2*walk) {
				t.Fatalf("world %d n=%d wR=%d: %d edges scanned over %d passes of a %d-entry graph",
					w, n, wR, got.EdgesScanned, got.Passes, walk/int64(got.Passes))
			}
			if got.PassGains[got.Passes-1] <= 0 {
				o := frozenOptimizer{f: f, cfg: cfg}
				for u := 0; u < n; u++ {
					if cfg.Pinned != nil && cfg.Pinned[u] {
						if got.Partition[u] != init[u] {
							t.Fatalf("world %d: pinned node %d moved", w, u)
						}
						continue
					}
					if gu := o.gain(got.Partition, graph.NodeID(u)); gu > 0 {
						t.Fatalf("world %d n=%d wR=%d: node %d still has switch gain %d", w, n, wR, u, gu)
					}
				}
			}

			switch d := got.Objective - want.Objective; {
			case d == 0:
				same++
			case d < 0:
				better++
			default:
				worse++
				if wR > cfg.FriendWeight {
					worseAboveOne++
				}
			}
			if scale := initObj - want.Objective; scale > 0 {
				relDiffs = append(relDiffs, float64(got.Objective-want.Objective)/float64(scale))
			}
		}
	}
	sort.Float64s(relDiffs)
	q := func(p float64) float64 { return relDiffs[int(p*float64(len(relDiffs)-1))] }
	t.Logf("%d solves: objective equal to the full pass in %d, lower in %d, higher in %d (%d of those at k > 1)",
		solves, same, better, worse, worseAboveOne)
	t.Logf("(objective − full-pass objective) / full-pass improvement: min %.4f p01 %.4f p10 %.4f p50 %.4f p90 %.4f p99 %.4f max %.4f",
		relDiffs[0], q(0.01), q(0.10), q(0.50), q(0.90), q(0.99), relDiffs[len(relDiffs)-1])
}
