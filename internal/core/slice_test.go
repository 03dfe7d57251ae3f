package core

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/bucketlist"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/rng"
)

// findMAARCutOnSlices is the first implementation of the sweep, running
// extended KL directly on the mutable slice-of-slices graph and re-walking
// every edge to score each candidate. It is kept as the correctness bar:
// TestFrozenSweepMatchesSeedSweep and BenchmarkFindMAARCut assert that the
// frozen engine returns byte-identical cuts.
func findMAARCutOnSlices(g *graph.Graph, opts CutOptions) (Cut, bool) {
	opts = opts.WithDefaults()
	if err := opts.Validate(g); err != nil {
		panic(err)
	}
	if g.NumRejections() == 0 || g.NumNodes() < 2 {
		return Cut{}, false
	}

	pinned := pinnedSet(g.NumNodes(), opts.Seeds)
	src := rng.New(opts.RandSeed)
	inits := initialPartitions(g, opts, src.Stream("init"))
	jobs := sweepJobs(opts, len(inits))

	type candidate struct {
		cut Cut
		ok  bool
	}
	results := make([]candidate, len(jobs))
	run := func(j int) {
		jb := jobs[j]
		cfg := kl.Config{
			FriendWeight: opts.WeightScale,
			RejectWeight: jb.wR,
			Pinned:       pinned,
			MaxPasses:    opts.MaxPasses,
		}
		cut, ok := scoreCut(g, slicePartition(g, inits[jb.initIdx], cfg), jb.k, opts.Seeds)
		results[j] = candidate{cut: cut, ok: ok}
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for j := range jobs {
			run(j)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					run(j)
				}
			}()
		}
		for j := range jobs {
			next <- j
		}
		close(next)
		wg.Wait()
	}

	best := Cut{Acceptance: math.Inf(1)}
	found := false
	for _, cand := range results {
		if cand.ok && cand.cut.Acceptance < best.Acceptance {
			best = cand.cut
			found = true
		}
	}
	return best, found
}

// scoreCut evaluates a partition as a MAAR candidate by re-walking the
// graph (the frozen engine reads the statistics off the KL result
// instead). When no seeds constrain orientation, it also scores the
// mirrored cut and keeps the lower acceptance.
func scoreCut(g *graph.Graph, p graph.Partition, k float64, seeds Seeds) (Cut, bool) {
	s := p.Stats(g)
	if s.Trivial() {
		return Cut{}, false
	}
	best := Cut{}
	found := false
	if s.RejIntoSuspect > 0 {
		best = Cut{Partition: p, Stats: s, K: k, Acceptance: s.AcceptanceOfSuspect()}
		found = true
	}
	if seeds.Empty() && s.RejIntoLegit > 0 {
		if acc := s.AcceptanceOfLegit(); !found || acc < best.Acceptance {
			best = Cut{Partition: mirror(p), Stats: mirrorStats(s), K: k, Acceptance: acc}
			found = true
		}
	}
	return best, found
}

func mirror(p graph.Partition) graph.Partition {
	m := make(graph.Partition, len(p))
	for i, r := range p {
		m[i] = r.Other()
	}
	return m
}

// slicePartition is extended KL on the mutable graph: the slice engine
// package kl keeps in its tests as the frozen pass's oracle, restated here
// because test code does not cross packages. Every pass fills a fresh
// bucket list, switches free nodes in max-gain order until Prefix ends the
// pass, and rolls back to the best prefix; passes repeat while one
// improves.
func slicePartition(g *graph.Graph, init graph.Partition, cfg kl.Config) graph.Partition {
	maxPasses := cfg.MaxPasses
	if maxPasses == 0 {
		maxPasses = kl.DefaultMaxPasses
	}
	n := g.NumNodes()
	var maxAbs int64
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		maxAbs = max(maxAbs, int64(g.Degree(id))*cfg.FriendWeight+
			int64(g.InRejections(id)+g.OutRejections(id))*cfg.RejectWeight)
	}
	p := init.Clone()
	for pass := 0; pass < maxPasses; pass++ {
		list := bucketlist.New(n, -maxAbs, maxAbs)
		for u := 0; u < n; u++ {
			if cfg.Pinned == nil || !cfg.Pinned[u] {
				list.Add(u, sliceGain(g, p, graph.NodeID(u), cfg))
			}
		}
		seq := make([]graph.NodeID, 0, list.Len())
		best := kl.NewPrefix(list.Len())
		for {
			u, gu, ok := list.PopMax()
			if !ok {
				break
			}
			seq = append(seq, graph.NodeID(u))
			sliceSwitch(g, p, graph.NodeID(u), cfg, list)
			if best.Step(gu) {
				break
			}
		}
		for _, u := range seq[best.Len:] {
			p[u] = p[u].Other()
		}
		if best.Gain <= 0 {
			break
		}
	}
	return p
}

// sliceGain is the objective reduction of switching u under p.
func sliceGain(g *graph.Graph, p graph.Partition, u graph.NodeID, cfg kl.Config) int64 {
	var gain int64
	for _, v := range g.Friends(u) {
		if p[v] == p[u] {
			gain -= cfg.FriendWeight
		} else {
			gain += cfg.FriendWeight
		}
	}
	for _, x := range g.Rejected(u) {
		gain += kl.RejectedContrib(p[u], p[x], cfg.RejectWeight)
	}
	for _, x := range g.Rejecters(u) {
		gain += kl.RejecterContrib(p[u], p[x], cfg.RejectWeight)
	}
	return gain
}

// sliceSwitch flips u and re-gains its still-free neighbours.
func sliceSwitch(g *graph.Graph, p graph.Partition, u graph.NodeID, cfg kl.Config, list bucketlist.List) {
	oldPu := p[u]
	newPu := oldPu.Other()
	p[u] = newPu
	for _, v := range g.Friends(u) {
		if p[v] == newPu {
			list.AdjustIfPresent(int(v), -2*cfg.FriendWeight)
		} else {
			list.AdjustIfPresent(int(v), 2*cfg.FriendWeight)
		}
	}
	for _, x := range g.Rejected(u) {
		list.AdjustIfPresent(int(x), kl.RejecterContrib(p[x], newPu, cfg.RejectWeight)-
			kl.RejecterContrib(p[x], oldPu, cfg.RejectWeight))
	}
	for _, x := range g.Rejecters(u) {
		list.AdjustIfPresent(int(x), kl.RejectedContrib(p[x], newPu, cfg.RejectWeight)-
			kl.RejectedContrib(p[x], oldPu, cfg.RejectWeight))
	}
}
