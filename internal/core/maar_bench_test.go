package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// benchCutWorld is a planted instance of nL legitimate users with
// OSN-like degree (~12) and nF fakes spraying requests at a 70% rejection
// rate; 24000/6000 is Table I scale. Edges are inserted in shuffled arrival
// order, the way an ingest pipeline receives them — not node by node,
// which would give the mutable graph's per-node slices an unrealistically
// contiguous layout.
func benchCutWorld(nL, nF int) (*graph.Graph, CutOptions) {
	r := rand.New(rand.NewPCG(7, 99))
	type edge struct {
		u, v graph.NodeID
		rej  bool
	}
	var edges []edge
	for i := 0; i < nL; i++ {
		edges = append(edges, edge{graph.NodeID(i), graph.NodeID((i + 1) % nL), false})
		for c := 0; c < 5; c++ {
			v := graph.NodeID(r.IntN(nL))
			if v != graph.NodeID(i) {
				edges = append(edges, edge{graph.NodeID(i), v, false})
			}
		}
	}
	for i := 0; i < nL/2; i++ {
		u, v := r.IntN(nL), r.IntN(nL)
		if u != v {
			edges = append(edges, edge{graph.NodeID(u), graph.NodeID(v), true})
		}
	}
	for i := 0; i < nF; i++ {
		u := graph.NodeID(nL + i)
		for k := 0; k < 6 && k < i; k++ {
			edges = append(edges, edge{u, graph.NodeID(nL + r.IntN(i)), false})
		}
		for req := 0; req < 12; req++ {
			target := graph.NodeID(r.IntN(nL))
			if r.Float64() < 0.7 {
				edges = append(edges, edge{target, u, true})
			} else {
				edges = append(edges, edge{u, target, false})
			}
		}
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g := graph.New(nL + nF)
	for _, e := range edges {
		if e.rej {
			g.AddRejection(e.u, e.v)
		} else {
			g.AddFriendship(e.u, e.v)
		}
	}
	// Serial sweep so ns/op compares engine cost, not scheduling.
	opts := CutOptions{Parallelism: 1, RandSeed: 5}
	return g, opts
}

// assertSameCut fails unless the two cuts agree on acceptance, k, and the
// exact suspect set — the frozen engine must reproduce the seed engine's
// answer byte for byte, not merely an equally good one.
func assertSameCut(tb testing.TB, want, got Cut, okW, okG bool) {
	tb.Helper()
	if okW != okG {
		tb.Fatalf("found mismatch: seed %v, frozen %v", okW, okG)
	}
	if !okW {
		return
	}
	if got.Acceptance != want.Acceptance || got.K != want.K || got.Stats != want.Stats {
		tb.Fatalf("cut mismatch: seed {acc=%v k=%v %+v}, frozen {acc=%v k=%v %+v}",
			want.Acceptance, want.K, want.Stats, got.Acceptance, got.K, got.Stats)
	}
	for u := range want.Partition {
		if want.Partition[u] != got.Partition[u] {
			tb.Fatalf("suspect set mismatch at node %d: seed %v, frozen %v",
				u, want.Partition[u], got.Partition[u])
		}
	}
}

// TestFrozenSweepMatchesSeedSweep: FindMAARCutFrozen returns the identical
// cut to the retained seed slice-of-slices sweep across randomized worlds,
// with and without seeds, at serial and parallel settings. The "multilevel"
// row pins the deprecated CutOptions.Multilevel as inert on a sweep with
// more than one init, the only kind that ever entered the removed ladder.
func TestFrozenSweepMatchesSeedSweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts CutOptions
	}{
		{"serial", CutOptions{Parallelism: 1, Restarts: 2, RandSeed: 3}},
		{"parallel", CutOptions{Parallelism: 4, Restarts: 2, RandSeed: 3}},
		{"seeded", CutOptions{Parallelism: 3, Restarts: 1, RandSeed: 9,
			Seeds: plantedSeeds(300, 100, 4)}},
		{"multilevel", CutOptions{Parallelism: 2, Restarts: 2, RandSeed: 3, Multilevel: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(17, 23))
			for trial := 0; trial < 4; trial++ {
				g, _ := plantedWorld(r, 300, 100, 0.4+0.1*float64(trial))
				want, okW := findMAARCutOnSlices(g, tc.opts)
				got, okG := FindMAARCutFrozen(g.Freeze(), tc.opts)
				assertSameCut(t, want, got, okW, okG)
			}
		})
	}
}

// BenchmarkFindMAARCut compares the frozen CSR sweep against the retained
// seed implementation on the same Table I-scale instance, after asserting
// that both return the identical cut. Run with -benchmem: the frozen
// engine's point is ns/op and allocs/op together.
func BenchmarkFindMAARCut(b *testing.B) {
	g, opts := benchCutWorld(24000, 6000)
	opts.Restarts = 1
	f := g.Freeze()

	want, okW := findMAARCutOnSlices(g, opts)
	got, okG := FindMAARCutFrozen(f, opts)
	assertSameCut(b, want, got, okW, okG)

	b.Run("Frozen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FindMAARCutFrozen(f, opts)
		}
	})
	b.Run("Seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			findMAARCutOnSlices(g, opts)
		}
	})
}

// BenchmarkMAARSweep times the frozen sweep on planted worlds across sizes
// and restart counts, reporting the published acceptance as a metric.
func BenchmarkMAARSweep(b *testing.B) {
	for _, c := range []struct {
		name     string
		nL, nF   int
		restarts int
	}{
		{"n=7500-r12", 6000, 1500, 12},
		{"n=15000-r12", 12000, 3000, 12},
		{"n=30000-r1", 24000, 6000, 1},
		{"n=30000-r4", 24000, 6000, 4},
		{"n=30000-r12", 24000, 6000, 12},
	} {
		g, opts := benchCutWorld(c.nL, c.nF)
		f := g.Freeze()
		opts.Restarts = c.restarts
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var cut Cut
			for i := 0; i < b.N; i++ {
				var ok bool
				if cut, ok = FindMAARCutFrozen(f, opts); !ok {
					b.Fatalf("%s: sweep found no cut", c.name)
				}
			}
			b.ReportMetric(cut.Acceptance, "acc")
		})
	}
}
