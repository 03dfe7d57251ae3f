package core

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/ml"
	"repro/internal/obs"
)

// Shortlist sizing for the multilevel sweep. refineShortlist is how many
// distinct-k coarse winners are refined down the ladder: one is not
// enough, because coarse granularity can underrate the k whose flat solve
// wins, so the sweep hedges across the best few k values and lets the
// full-resolution acceptances pick the winner. The frontier descent
// additionally refines the k values below the smallest shortlisted k: the
// MAAR winner tends to sit just above the k where cuts stop being
// trivial, and supernode granularity shifts that boundary upward — a
// trivial coarse cut at such a k still projects to a fine starting point
// whose polish can open the cut the flat sweep would have found. The
// descent walks downward until a polished cut comes back invalid (the
// flat validity boundary), visiting at least frontierMin k values before
// an invalid polish can end it. Each step costs one refinement descent
// plus one flat polish — a handful of solves next to the flat sweep's
// |grid|×|inits|.
const (
	refineShortlist = 4
	frontierMin     = 2
	// maxChecksPerK bounds the cold flat checks at each non-winning k the
	// gate visits (shortlisted and frontier alike): the acceptance-
	// heuristic init plus the first random inits up to the cap. The coarse
	// solve often collapses distinct inits onto one supernode-granularity
	// cut, so the flat sweep's init diversity must be probed at full
	// resolution — but random inits are exchangeable, so a fixed-size
	// prefix samples that diversity as well as any subset, and the cap
	// keeps the gate's cost per k independent of the restart count. That
	// independence is what lets the multilevel speedup grow with restarts
	// instead of being eaten by its own gate. Only the published k is
	// checked against every init, uncapped.
	maxChecksPerK = 4
)

// findMAARCutMultilevel runs the sweep through the multilevel ladder:
// coarsen once, score every (k, init) job with a KL solve on the coarsest
// graph, refine only a short-list of the best distinct-k candidates back
// down the ladder, flat-polish the best refined cut, and gate it against a
// flat solve of the same job. Contraction is exact (graph.Contract), so
// the coarse acceptances the jobs are ranked by are true fine-graph
// acceptances of the projected partitions — the ladder changes the move
// set KL explores per job, never the scoring.
//
// done reports whether the multilevel path produced a decision. It is
// false when the sweep must be re-run flat: the graph would not coarsen,
// no coarse job yielded a valid candidate, or the quality gate rejected
// the polished winner (obs.EvMLFallback). The caller then runs
// flatSweepFrozen on the same jobs, cold. FindMAARCutFrozen only calls this
// for sweeps with more than one init.
func findMAARCutMultilevel(f *graph.Frozen, opts CutOptions, pinned []bool, inits []graph.Partition, initStats []graph.CutStats, jobs []sweepJob) (Cut, bool, bool) {
	tr := opts.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	lad := ml.Coarsen(f, pinned, ml.Options{
		CoarsestNodes: opts.MLCoarsestNodes,
		MaxLevels:     opts.MLMaxLevels,
	})
	obs.ML.Coarsens.Add(1)
	obs.ML.CoarsenLevels.Add(int64(lad.Depth() - 1))
	if tr != nil {
		tr.Emit(obs.Event{
			Name: obs.EvMLCoarsen, Wall: time.Now(), Dur: time.Since(t0),
			Round: opts.TraceRound, Nodes: lad.CoarsestNodes(), Attempt: lad.Depth(),
		})
	}
	if lad.Depth() == 1 {
		// Nothing coarsened (the residual is already at or below the
		// coarsest bound): the flat sweep is the multilevel sweep, minus
		// the ladder overhead. Not a gate failure, so no fallback event.
		obs.ML.FlatDepth1.Add(1)
		return Cut{}, false, false
	}

	top := lad.Levels[lad.Depth()-1]
	cf := top.F

	// Project each shared initial partition onto the coarsest level once;
	// every job then starts from the small coarse copy.
	cInits := make([]graph.Partition, len(inits))
	cStats := make([]graph.CutStats, len(inits))
	for i, init := range inits {
		cInits[i] = lad.ProjectToCoarsest(init)
		cStats[i] = cf.Stats(cInits[i])
	}

	numK := 0
	for _, jb := range jobs {
		if jb.kIdx >= numK {
			numK = jb.kIdx + 1
		}
	}

	var sweepStart time.Time
	var coarsePasses atomic.Int64
	if tr != nil {
		sweepStart = time.Now()
	}

	// candidate is the result of one coarse (k, init) job. A solve whose
	// coarse cut was trivial (no valid MAAR candidate at supernode
	// granularity) is still recorded, marked invalid: the frontier refines
	// such partitions anyway, because triviality at coarse granularity
	// need not survive projection plus polish. The raw (solver-
	// orientation) partition and statistics are retained for refinement:
	// RefineDown continues optimizing the same linear objective the coarse
	// solve did, and orientation is re-decided at full resolution. Every
	// job's candidate is kept — not just the per-k best — because coarse
	// scores mislead per init too: the init whose coarse cut scored worse
	// can be the one whose refinement reaches the flat winner, so the
	// refinement stage needs each init's coarse partition.
	type candidate struct {
		part   graph.Partition // coarse partition, solver orientation
		stats  graph.CutStats
		acc    float64
		jobIdx int
		kIdx   int
		found  bool
		valid  bool
	}
	cands := make([]candidate, len(jobs))
	run := func(ws *kl.Workspace, j int) {
		jb := jobs[j]
		cfg := kl.Config{
			FriendWeight: opts.WeightScale,
			RejectWeight: jb.wR,
			Pinned:       top.Pinned,
			MaxPasses:    opts.MaxPasses,
		}
		res := kl.PartitionFrozenFromStats(cf, cInits[jb.initIdx], cStats[jb.initIdx], cfg, ws)
		obs.ML.CoarseSolves.Add(1)
		if tr != nil {
			coarsePasses.Add(int64(res.Passes))
		}
		acc, _, ok := orientCut(res.Stats, opts.Seeds)
		c := &cands[j]
		c.part = append(c.part[:0], res.Partition...)
		c.stats, c.acc, c.jobIdx, c.kIdx = res.Stats, acc, j, jb.kIdx
		c.found, c.valid = true, ok
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
	if workers == 1 {
		ws := &kl.Workspace{}
		for j := range jobs {
			run(ws, j)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := &kl.Workspace{}
				for j := range next {
					run(ws, j)
				}
			}()
		}
		for j := range jobs {
			next <- j
		}
		close(next)
		wg.Wait()
	}

	// better orders candidates for one k: valid beats invalid, then lowest
	// acceptance, then earliest job.
	better := func(acc float64, jobIdx int, valid bool, b *candidate) bool {
		if !b.found || valid != b.valid {
			return !b.found || valid
		}
		if valid && acc != b.acc {
			return acc < b.acc
		}
		return jobIdx < b.jobIdx
	}
	// Reduce to the per-k winners in job order — cands is indexed by job,
	// so the outcome is independent of worker count and scheduling.
	perK := make([]candidate, numK)
	for _, c := range cands {
		if c.found && better(c.acc, c.jobIdx, c.valid, &perK[c.kIdx]) {
			perK[c.kIdx] = c
		}
	}

	// Shortlist: the best valid per-k winners by (acceptance, job index),
	// plus the frontier — the k values directly below the smallest
	// shortlisted k (all the largest ones, when nothing was valid). The
	// coarse move set systematically inflates small-k acceptances: a
	// precise small cut may not exist at supernode granularity at all, so
	// the k the flat sweep would win at tends to sit just below the k
	// values the coarse ranking prefers, and its candidate earns a descent
	// even when its coarse score was poor or trivial.
	valid := make([]candidate, 0, numK)
	for _, c := range perK {
		if c.found && c.valid {
			valid = append(valid, c)
		}
	}
	sort.Slice(valid, func(a, b int) bool {
		if valid[a].acc != valid[b].acc {
			return valid[a].acc < valid[b].acc
		}
		return valid[a].jobIdx < valid[b].jobIdx
	})
	shortlist := valid
	if len(shortlist) > refineShortlist {
		// Keep every candidate tied with the last one that made the cut:
		// coarse acceptances often plateau across a k range (the coarse
		// move set cannot express the cuts that would separate them), and
		// which end of the plateau polishes best depends on the k-weighted
		// objective, not the tied score. Dropping ties by job order would
		// systematically refine the wrong end.
		end := refineShortlist
		thresh := shortlist[end-1].acc
		for end < len(shortlist) && shortlist[end].acc <= thresh+1e-12 {
			end++
		}
		shortlist = shortlist[:end]
	}
	kLo := numK
	for _, c := range shortlist {
		if c.kIdx < kLo {
			kLo = c.kIdx
		}
	}

	if tr != nil {
		ev := obs.Event{
			Name: obs.EvMLSolve, Wall: time.Now(), Dur: time.Since(sweepStart),
			Round: opts.TraceRound, Jobs: len(jobs),
			Passes: int(coarsePasses.Load()), Acceptance: -1,
		}
		if len(shortlist) > 0 {
			ev.Job = shortlist[0].jobIdx + 1
			ev.K = jobs[shortlist[0].jobIdx].k
			ev.Init = jobs[shortlist[0].jobIdx].initIdx + 1
			ev.Acceptance = shortlist[0].acc
		}
		tr.Emit(ev)
	}
	// Refine each shortlisted candidate down the ladder (boundary-only,
	// shared pooled solver), flat-polish it — a full KL solve from the
	// refined partition, finishing what greedy boundary passes left and
	// reopening cuts that were trivial at coarse granularity — and keep
	// the best polished cut by its full-resolution acceptance.
	cfgAt := func(jb sweepJob) kl.Config {
		return kl.Config{
			FriendWeight: opts.WeightScale,
			RejectWeight: jb.wR,
			Pinned:       pinned,
			MaxPasses:    opts.MaxPasses,
		}
	}
	solver := ml.NewSolver()
	ws := &kl.Workspace{}
	var best struct {
		part     graph.Partition
		stats    graph.CutStats
		acc      float64
		jobIdx   int
		mirrored bool
		found    bool
	}
	refinedKs := make([]int, 0, len(shortlist)+frontierMin)
	refineOne := func(cand candidate) bool {
		jb := jobs[cand.jobIdx]
		cfg := cfgAt(jb)
		var refineStart time.Time
		if tr != nil {
			refineStart = time.Now()
		}
		refined := solver.RefineDown(lad, cand.part, cand.stats, cfg)
		polished := kl.PartitionFrozenFromStats(f, refined.Partition, refined.Stats, cfg, ws)
		acc, mirrored, ok := orientCut(polished.Stats, opts.Seeds)
		obs.ML.Refines.Add(1)
		if !slices.Contains(refinedKs, cand.kIdx) {
			refinedKs = append(refinedKs, cand.kIdx)
		}
		if tr != nil {
			ev := obs.Event{
				Name: obs.EvMLRefine, Wall: time.Now(), Dur: time.Since(refineStart),
				Round: opts.TraceRound, Job: cand.jobIdx + 1, K: jb.k,
				Init: jb.initIdx + 1, Passes: refined.Passes + polished.Passes,
				Switches:   refined.Switches + polished.Switches,
				Rollbacks:  refined.Rollbacks + polished.Rollbacks,
				Acceptance: -1,
			}
			if ok {
				ev.Acceptance = acc
			}
			tr.Emit(ev)
		}
		if !ok {
			return false
		}
		if best.found && (acc > best.acc || acc == best.acc && cand.jobIdx > best.jobIdx) {
			return true
		}
		// The polished partition aliases the shared workspace and the next
		// candidate overwrites it, so an adopted candidate is copied out.
		best.part = append(best.part[:0], polished.Partition...)
		best.stats, best.acc, best.jobIdx = polished.Stats, acc, cand.jobIdx
		best.mirrored, best.found = mirrored, true
		return true
	}
	// checkBeats cold-solves one flat job and reports whether its cut is
	// valid and whether it beats the best polished candidate so far — the
	// signal that the ladder lost something and the sweep must re-run
	// flat. best only ever improves, so a check that passed against an
	// earlier best still passes against the final one.
	checked := make(map[int]bool, len(inits)*frontierMin)
	checkBeats := func(j int) (beats, okFlat bool) {
		if checked[j] {
			return false, false
		}
		checked[j] = true
		cj := jobs[j]
		obs.Pipeline.SolvesStarted.Add(1)
		check := kl.PartitionFrozenFromStats(f, inits[cj.initIdx], initStats[cj.initIdx], cfgAt(cj), ws)
		obs.Pipeline.SolvesFinished.Add(1)
		obs.Pipeline.KLPasses.Add(int64(check.Passes))
		accFlat, _, ok := orientCut(check.Stats, opts.Seeds)
		return ok && (!best.found || accFlat < best.acc), ok
	}
	fallback := func(k float64, detail string) {
		obs.ML.Fallbacks.Add(1)
		if tr != nil {
			ev := obs.Event{
				Name: obs.EvMLFallback, Wall: time.Now(), Round: opts.TraceRound,
				K: k, Acceptance: -1, Detail: detail,
			}
			if best.found {
				ev.Acceptance = best.acc
			}
			tr.Emit(ev)
		}
	}
	// Refine every init's coarse candidate at each shortlisted k, not just
	// the per-k winner: the coarse ranking can invert the inits (the
	// worse-scored coarse cut refining to the better fine cut), so each
	// distinct coarse partition gets its own descent. Inits frequently
	// collapse onto the same coarse cut, and duplicates would refine
	// identically, so they are skipped.
	for _, cand := range shortlist {
		base := cand.kIdx * len(inits)
		for i := range inits {
			c := cands[base+i]
			if !c.found {
				continue
			}
			dup := false
			for ii := 0; ii < i; ii++ {
				if prev := cands[base+ii]; prev.found && slices.Equal(prev.part, c.part) {
					dup = true
					break
				}
			}
			if !dup {
				refineOne(c)
			}
		}
	}
	// Frontier descent: walk the k values below the smallest shortlisted k
	// (all of them, when nothing was valid). The coarse move set
	// systematically inflates small-k acceptances — a precise small cut
	// may not exist at supernode granularity at all — so the k the flat
	// sweep would win at tends to sit below the k values the coarse
	// ranking prefers, at the flat validity boundary. The ladder is
	// structurally blind here (projection through supernodes erases the
	// very structure that makes these cuts precise), so each step both
	// refines the k's coarse candidate as one more polished entrant and
	// cold-solves the flat jobs at that k (up to maxChecksPerK inits) as
	// gate checks. The walk stops only once a k yields nothing valid from
	// either path frontierMin times in a row — the validity boundary of
	// the flat sweep itself, not of the coarser move set.
	checksPerK := len(inits)
	if checksPerK > maxChecksPerK {
		checksPerK = maxChecksPerK
	}
	invalidRun := 0
	for k := kLo - 1; k >= 0; k-- {
		if !perK[k].found {
			break
		}
		anyValid := refineOne(perK[k])
		for i := 0; i < checksPerK; i++ {
			j := k*len(inits) + i
			beats, okFlat := checkBeats(j)
			if beats {
				fallback(jobs[j].k, "flat check beat polished winner")
				return Cut{}, false, false
			}
			anyValid = anyValid || okFlat
		}
		if anyValid {
			invalidRun = 0
		} else if invalidRun++; invalidRun >= frontierMin {
			break
		}
	}
	if !best.found {
		fallback(0, "no refined candidate")
		return Cut{}, false, false
	}

	// Final gate over the shortlisted ks. At the winning k every initial
	// partition is checked, uncapped — the published cut must survive the
	// flat sweep's full init diversity at its own k. Every other refined k
	// gets the capped init prefix (maxChecksPerK, same as the frontier):
	// the coarse solve can collapse distinct inits onto one coarse cut
	// whose single refinement misrepresents an init whose flat solve
	// diverges, so one check per k is not enough, but a capped prefix
	// keeps the gate's cost per k independent of the restart count.
	// (Frontier ks were already checked during the descent; checkBeats
	// dedups.) Jobs enumerate k-major with a full init block per surviving
	// grid point, so job indices recover as kIdx·|inits| + initIdx.
	jb := jobs[best.jobIdx]
	checks := make([]int, 0, len(refinedKs)*checksPerK+len(inits))
	for i := range inits {
		checks = append(checks, jb.kIdx*len(inits)+i)
	}
	for _, k := range refinedKs {
		if k != jb.kIdx && k >= kLo {
			for i := 0; i < checksPerK; i++ {
				checks = append(checks, k*len(inits)+i)
			}
		}
	}
	for _, j := range checks {
		if beats, _ := checkBeats(j); beats {
			fallback(jobs[j].k, "flat check beat polished winner")
			return Cut{}, false, false
		}
	}

	p := best.part[:len(best.part):len(best.part)]
	s := best.stats
	if best.mirrored {
		p = slices.Clone(p)
		for i, r := range p {
			p[i] = r.Other()
		}
		s = mirrorStats(s)
	}
	obs.Pipeline.Sweeps.Add(1)
	return Cut{Partition: p, Stats: s, K: jb.k, Acceptance: best.acc}, true, true
}
