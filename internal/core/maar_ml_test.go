package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// randomMLWorld builds a random rejection-augmented graph big enough for
// the ladder to coarsen a few levels.
func randomMLWorld(r *rand.Rand, n, friendships, rejections int) *graph.Graph {
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

// TestMultilevelNeverWorseThanFlat is the quality-gate property test: over
// 220 random worlds, a multilevel sweep must never publish a cut with a
// strictly worse aggregate acceptance than the flat sweep on the same
// graph and options — the gate either proves the refined winner good or
// falls back to the flat sweep itself. Also pins that the published
// statistics are the true statistics of the published partition, and that
// multilevel never loses a cut the flat sweep finds. The seeds that draw
// zero restarts have a single init and pin the one-init rule instead: the
// ladder is not entered and the two sweeps are the same sweep.
func TestMultilevelNeverWorseThanFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("220 double sweeps")
	}
	for seed := uint64(0); seed < 220; seed++ {
		r := rand.New(rand.NewPCG(seed, 91))
		n := 120 + r.IntN(300)
		g := randomMLWorld(r, n, (3+r.IntN(4))*n, (1+r.IntN(3))*n)
		// Restarts up to 5 puts the init count past maxChecksPerK, so
		// the seeds exercise the capped frontier descent, not just the
		// exhaustive small-init path.
		opts := CutOptions{
			RandSeed:        seed,
			Restarts:        r.IntN(6),
			MLCoarsestNodes: 24,
		}
		if r.IntN(3) == 0 {
			opts.Seeds = Seeds{
				Legit:   []graph.NodeID{graph.NodeID(r.IntN(n))},
				Spammer: []graph.NodeID{graph.NodeID(r.IntN(n))},
			}
		}
		flat, okFlat := FindMAARCut(g, opts)
		opts.Multilevel = true
		mlCut, okML := FindMAARCut(g, opts)

		if okFlat && !okML {
			t.Fatalf("seed %d: flat found a cut (acc %.4f) but multilevel found none", seed, flat.Acceptance)
		}
		if opts.Restarts == 0 {
			assertSameCut(t, flat, mlCut, okFlat, okML)
		}
		if !okML {
			continue
		}
		if s := mlCut.Partition.Stats(g); s != mlCut.Stats {
			t.Fatalf("seed %d: published stats %+v != walk %+v", seed, mlCut.Stats, s)
		}
		if got := mlCut.Stats.AcceptanceOfSuspect(); got != mlCut.Acceptance {
			t.Fatalf("seed %d: published acceptance %.6f != stats %.6f", seed, mlCut.Acceptance, got)
		}
		if okFlat && mlCut.Acceptance > flat.Acceptance+1e-12 {
			t.Fatalf("seed %d: multilevel acceptance %.6f worse than flat %.6f",
				seed, mlCut.Acceptance, flat.Acceptance)
		}
		for _, u := range opts.Seeds.Spammer {
			if mlCut.Partition[u] != graph.Suspect {
				t.Fatalf("seed %d: spammer seed %d not in suspect region", seed, u)
			}
		}
		for _, u := range opts.Seeds.Legit {
			if mlCut.Partition[u] != graph.Legit {
				t.Fatalf("seed %d: legit seed %d not in legit region", seed, u)
			}
		}
	}
}

// TestMultilevelMatchesFlatBelowCoarsestBound: when the graph is already
// at or below the coarsest bound the ladder has depth 1 and the multilevel
// sweep must be the flat sweep, byte for byte.
func TestMultilevelMatchesFlatBelowCoarsestBound(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 92))
	g := randomMLWorld(r, 60, 200, 90)
	opts := CutOptions{RandSeed: 11, Restarts: 1}
	flat, okFlat := FindMAARCut(g, opts)
	opts.Multilevel = true
	mlCut, okML := FindMAARCut(g, opts)
	if okFlat != okML {
		t.Fatalf("ok mismatch: flat %v, multilevel %v", okFlat, okML)
	}
	if !okFlat {
		t.Skip("no cut in this world")
	}
	if mlCut.K != flat.K || mlCut.Acceptance != flat.Acceptance || mlCut.Stats != flat.Stats {
		t.Fatalf("depth-1 multilevel diverged: got k=%v acc=%v, want k=%v acc=%v",
			mlCut.K, mlCut.Acceptance, flat.K, flat.Acceptance)
	}
	for i := range flat.Partition {
		if mlCut.Partition[i] != flat.Partition[i] {
			t.Fatalf("partitions differ at node %d", i)
		}
	}
}

// TestMultilevelDeterministicAcrossParallelism: the multilevel reduction,
// like the flat one, must be independent of worker count and scheduling.
func TestMultilevelDeterministicAcrossParallelism(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 93))
	g := randomMLWorld(r, 500, 2500, 900)
	var ref Cut
	var refOK bool
	for i, par := range []int{1, 4, 7} {
		cut, ok := FindMAARCut(g, CutOptions{
			Multilevel: true, MLCoarsestNodes: 32, Parallelism: par, RandSeed: 2, Restarts: 2,
		})
		if i == 0 {
			ref, refOK = cut, ok
			continue
		}
		if ok != refOK {
			t.Fatalf("parallelism %d: ok %v != %v", par, ok, refOK)
		}
		if !ok {
			continue
		}
		if cut.K != ref.K || cut.Acceptance != ref.Acceptance || cut.Stats != ref.Stats {
			t.Fatalf("parallelism %d diverged: k=%v acc=%v, want k=%v acc=%v",
				par, cut.K, cut.Acceptance, ref.K, ref.Acceptance)
		}
		for u := range ref.Partition {
			if cut.Partition[u] != ref.Partition[u] {
				t.Fatalf("parallelism %d: partitions differ at node %d", par, u)
			}
		}
	}
}

// TestMultilevelWarmComposition: a warm hint is the sweep's sole initial
// partition, so a warm multilevel sweep never enters the ladder — it is the
// warm flat sweep, byte for byte, and still at least as good as the cold
// flat sweep that produced the hint.
func TestMultilevelWarmComposition(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 81))
	const nL, nF = 400, 150
	g, isFake := plantedWorld(r, nL, nF, 0.7)
	seeds := plantedSeeds(nL, nF, 20)
	cold, ok := FindMAARCut(g, CutOptions{Seeds: seeds, RandSeed: 3})
	if !ok {
		t.Fatal("no cold cut")
	}
	warm, ok := FindMAARCut(g, CutOptions{
		Seeds: seeds, RandSeed: 3, Multilevel: true, MLCoarsestNodes: 48,
		WarmInit: cold.Partition,
	})
	if !ok {
		t.Fatal("no warm multilevel cut")
	}
	warmFlat, okFlat := FindMAARCut(g, CutOptions{Seeds: seeds, RandSeed: 3, WarmInit: cold.Partition})
	assertSameCut(t, warmFlat, warm, okFlat, ok)
	if warm.Acceptance > cold.Acceptance+1e-12 {
		t.Fatalf("warm multilevel acceptance %.4f worse than cold %.4f", warm.Acceptance, cold.Acceptance)
	}
	// The warm sweep may publish a different minimum-acceptance cut than
	// the hint (on this world it finds a strictly lower one), so assert
	// recall of the planted group rather than exact label agreement: the
	// suspect region must still contain the spammers the hint had caught.
	caught := 0
	for u, reg := range warm.Partition {
		if reg == graph.Suspect && isFake[u] {
			caught++
		}
	}
	if float64(caught) < 0.9*nF {
		t.Fatalf("warm multilevel suspect region holds only %d of %d planted spammers", caught, nF)
	}
}
