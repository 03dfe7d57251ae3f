package core

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/obs"
	"repro/internal/rng"
)

// graphView is the read surface the sweep needs from a graph; both the
// mutable *graph.Graph and the immutable *graph.Frozen satisfy it.
type graphView interface {
	NumNodes() int
	NumFriendships() int
	NumRejections() int
	Acceptance(u graph.NodeID) float64
}

// FindMAARCut approximates the minimum aggregate acceptance rate cut of g
// (§IV-B) by sweeping the linearized objective over a geometric grid of k
// values (Theorem 1, §IV-D) and solving each with extended Kernighan–Lin.
//
// The sweep runs on a frozen CSR snapshot of g (see graph.Freeze); callers
// holding a snapshot already should use FindMAARCutFrozen to skip the
// freeze. ok is false when no valid cut exists: the graph carries no
// rejections, or every candidate partition was trivial (one side empty).
func FindMAARCut(g *graph.Graph, opts CutOptions) (Cut, bool) {
	return FindMAARCutFrozen(g.Freeze(), opts)
}

// FindMAARCutFrozen is FindMAARCut on an immutable CSR snapshot. The
// (k, init) jobs of the sweep are independent KL solves distributed over
// opts.Parallelism workers; each worker reuses one kl.Workspace and keeps
// only its best candidate, so steady-state jobs perform no allocations.
// The reduction is deterministic regardless of completion order or worker
// count, and the tests hold the returned cut byte for byte to the slice
// engine's sweep they keep as an oracle.
func FindMAARCutFrozen(f *graph.Frozen, opts CutOptions) (Cut, bool) {
	opts = opts.WithDefaults()
	if err := opts.validate(f.NumNodes()); err != nil {
		panic(err)
	}
	if f.NumRejections() == 0 || f.NumNodes() < 2 {
		return Cut{}, false
	}

	pinned := pinnedSet(f.NumNodes(), opts.Seeds)
	src := rng.New(opts.RandSeed)
	inits := initialPartitions(f, opts, src.Stream("init"))
	jobs := sweepJobs(opts, len(inits))

	// Every (k, init) job starts KL from one of a handful of shared initial
	// partitions, so their cut statistics are computed once here instead of
	// once per job inside the solver.
	initStats := make([]graph.CutStats, len(inits))
	for i, init := range inits {
		initStats[i] = f.Stats(init)
	}

	// Tracing and counters. A nil tracer keeps the sweep clock-free and
	// allocation-identical; the expvar counters below are always live but
	// tick per solve (a handful of atomic adds), never per edge.
	tr := opts.Tracer
	var sweepPasses atomic.Int64
	var sweepStart time.Time
	if tr != nil {
		sweepStart = time.Now()
		tr.Emit(obs.Event{
			Name: obs.EvSweepStart, Wall: sweepStart, Round: opts.TraceRound,
			Jobs: len(jobs), Nodes: f.NumNodes(),
			Friendships: f.NumFriendships(), Rejections: f.NumRejections(),
		})
	}

	// candidate is a worker-local running best: the cut with the minimum
	// acceptance, ties to the earliest (k, init) job — the order the serial
	// sweep would have kept. The partition buffer is allocated once per
	// worker and overwritten on each adoption, so improving jobs copy out of
	// the workspace without allocating.
	type candidate struct {
		cut    Cut
		jobIdx int
		found  bool
	}
	run := func(ws *kl.Workspace, j int, best *candidate) {
		jb := jobs[j]
		cfg := kl.Config{
			FriendWeight: opts.WeightScale,
			RejectWeight: jb.wR,
			Pinned:       pinned,
			MaxPasses:    opts.MaxPasses,
		}
		obs.Pipeline.SolvesStarted.Add(1)
		var solveStart time.Time
		if tr != nil {
			solveStart = time.Now()
		}
		res := kl.PartitionFrozenFromStats(f, inits[jb.initIdx], initStats[jb.initIdx], cfg, ws)
		acc, mirrored, ok := orientCut(res.Stats, opts.Seeds)
		obs.Pipeline.SolvesFinished.Add(1)
		obs.Pipeline.KLPasses.Add(int64(res.Passes))
		obs.Pipeline.EdgesScanned.Add(res.EdgesScanned)
		if tr != nil {
			sweepPasses.Add(int64(res.Passes))
			ev := obs.Event{
				Name: obs.EvSolveDone, Wall: time.Now(), Dur: time.Since(solveStart),
				Round: opts.TraceRound, Job: j + 1, K: jb.k, Init: jb.initIdx + 1,
				Passes: res.Passes, Switches: res.Switches, Rollbacks: res.Rollbacks,
				Gains: res.PassGains, Acceptance: -1,
			}
			if ok {
				ev.Acceptance = acc
			}
			tr.Emit(ev)
		}
		if !ok {
			return
		}
		if best.found && (acc > best.cut.Acceptance ||
			(acc == best.cut.Acceptance && j > best.jobIdx)) {
			return
		}
		if cap(best.cut.Partition) < len(res.Partition) {
			best.cut.Partition = make(graph.Partition, len(res.Partition))
		}
		p := best.cut.Partition[:len(res.Partition)]
		s := res.Stats
		if mirrored {
			for i, r := range res.Partition {
				p[i] = r.Other()
			}
			s = mirrorStats(s)
		} else {
			copy(p, res.Partition)
		}
		best.cut = Cut{Partition: p, Stats: s, K: jb.k, Acceptance: acc}
		best.jobIdx, best.found = j, true
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	bests := make([]candidate, workers)
	if workers == 1 {
		ws := &kl.Workspace{}
		for j := range jobs {
			run(ws, j, &bests[0])
		}
		obs.Pipeline.WorkspaceReuse.Add(int64(len(jobs) - 1))
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ws := &kl.Workspace{}
				solved := 0
				for j := range next {
					run(ws, j, &bests[w])
					solved++
				}
				if solved > 1 {
					obs.Pipeline.WorkspaceReuse.Add(int64(solved - 1))
				}
			}(w)
		}
		for j := range jobs {
			next <- j
		}
		close(next)
		wg.Wait()
	}

	var final candidate
	for _, b := range bests {
		if !b.found {
			continue
		}
		if !final.found || b.cut.Acceptance < final.cut.Acceptance ||
			(b.cut.Acceptance == final.cut.Acceptance && b.jobIdx < final.jobIdx) {
			final = b
		}
	}
	obs.Pipeline.Sweeps.Add(1)
	if tr != nil {
		ev := obs.Event{
			Name: obs.EvSweepDone, Wall: time.Now(), Dur: time.Since(sweepStart),
			Round: opts.TraceRound, Jobs: len(jobs),
			Passes: int(sweepPasses.Load()), Acceptance: -1,
		}
		if final.found {
			ev.K = final.cut.K
			ev.Acceptance = final.cut.Acceptance
		}
		tr.Emit(ev)
	}
	return final.cut, final.found
}

// sweepJob is one independent KL solve of the sweep.
type sweepJob struct {
	initIdx int
	k       float64
	wR      int64
}

// sweepJobs enumerates the (k, init) jobs in the deterministic order the
// serial sweep would visit them.
func sweepJobs(opts CutOptions, numInits int) []sweepJob {
	grid := opts.KGrid()
	jobs := make([]sweepJob, 0, len(grid)*numInits)
	for _, k := range grid {
		wR := int64(math.Round(k * float64(opts.WeightScale)))
		if wR >= 1 {
			for i := 0; i < numInits; i++ {
				jobs = append(jobs, sweepJob{initIdx: i, k: k, wR: wR})
			}
		}
	}
	return jobs
}

// orientCut evaluates the statistics of a converged partition as a MAAR
// candidate without materializing anything: it reports the candidate's
// acceptance, whether the mirrored orientation (complement region as
// suspect) is the one to keep, and whether the partition is a valid
// candidate at all. When no seeds constrain orientation both orientations
// compete, since both sides of a bipartition are candidate MAAR cuts.
func orientCut(s graph.CutStats, seeds Seeds) (acc float64, mirrored, ok bool) {
	if s.Trivial() {
		return 0, false, false
	}
	if s.RejIntoSuspect > 0 {
		acc, ok = s.AcceptanceOfSuspect(), true
	}
	if seeds.Empty() && s.RejIntoLegit > 0 {
		if a := s.AcceptanceOfLegit(); !ok || a < acc {
			acc, mirrored, ok = a, true, true
		}
	}
	return acc, mirrored, ok
}

func mirrorStats(s graph.CutStats) graph.CutStats {
	return graph.CutStats{
		SuspectSize:      s.LegitSize,
		LegitSize:        s.SuspectSize,
		CrossFriendships: s.CrossFriendships,
		RejIntoSuspect:   s.RejIntoLegit,
		RejIntoLegit:     s.RejIntoSuspect,
	}
}

// pinnedSet returns the pin mask for the seed sets, or nil if no seeds.
func pinnedSet(numNodes int, seeds Seeds) []bool {
	if seeds.Empty() {
		return nil
	}
	pinned := make([]bool, numNodes)
	for _, u := range seeds.Legit {
		pinned[u] = true
	}
	for _, u := range seeds.Spammer {
		pinned[u] = true
	}
	return pinned
}

// initialPartitions builds the KL starting points: the per-node acceptance
// heuristic plus opts.Restarts random partitions. Seeds are pre-placed in
// all of them (§IV-F).
func initialPartitions(g graphView, opts CutOptions, r *rand.Rand) []graph.Partition {
	n := g.NumNodes()
	placeSeeds := func(p graph.Partition) graph.Partition {
		for _, u := range opts.Seeds.Legit {
			p[u] = graph.Legit
		}
		for _, u := range opts.Seeds.Spammer {
			p[u] = graph.Suspect
		}
		return p
	}

	// A warm start supersedes every standard starting point: the previous
	// epoch's converged cut is a better seed than the acceptance heuristic,
	// and random restarts would only re-explore ground the quality gate in
	// the incremental engine already covers by falling back to a cold solve.
	if opts.WarmInit != nil {
		return []graph.Partition{placeSeeds(slices.Clone(opts.WarmInit))}
	}

	// Heuristic start: the aggregate acceptance rate over the whole graph
	// separates users with excess in-rejections from the rest. Collusion
	// defeats this per-user signal — that is why it is only a starting
	// point for KL's group moves, never the detector itself.
	totalF, totalR := g.NumFriendships(), g.NumRejections()
	threshold := float64(2*totalF) / float64(2*totalF+totalR)
	heur := graph.NewPartition(n)
	for u := 0; u < n; u++ {
		if g.Acceptance(graph.NodeID(u)) < threshold {
			heur[u] = graph.Suspect
		}
	}
	inits := []graph.Partition{placeSeeds(heur)}

	for i := 0; i < opts.Restarts; i++ {
		p := graph.NewPartition(n)
		for u := range p {
			if r.Float64() < 0.5 {
				p[u] = graph.Suspect
			}
		}
		inits = append(inits, placeSeeds(p))
	}
	return inits
}
