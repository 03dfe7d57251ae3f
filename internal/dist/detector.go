package dist

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bucketlist"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Detector runs Rejecto's MAAR search and iterative detection with the
// graph sharded across the cluster and only per-node algorithm state on the
// master — the architecture of §V. It mirrors the single-machine detector
// in package core step for step, and the tests assert that the two produce
// identical detections.
type Detector struct {
	c  *Cluster
	n  int
	pf *Prefetcher

	// Master-resident per-node state (~20 bytes/node, as in the paper).
	part   bitset
	alive  bitset
	pinned bitset

	// Per-node structural counts, refreshed per round from the workers.
	deg    []int64
	inRej  []int64
	outRej []int64
}

// DetectorConfig parameterizes a distributed detection run.
type DetectorConfig struct {
	// Cut carries the MAAR sweep parameters; its Seeds pin nodes exactly
	// as in package core.
	Cut core.CutOptions
	// TargetCount and AcceptanceThreshold are the §IV-E termination
	// conditions; at least one must be set.
	TargetCount         int
	AcceptanceThreshold float64
	// MaxRounds caps detection rounds; zero means core.DefaultMaxRounds.
	MaxRounds int
	// PrefetchBatch and BufferCap size the §V prefetcher; zero selects
	// the defaults.
	PrefetchBatch int
	BufferCap     int
	// Cancel, when non-nil, stops detection cleanly between rounds once
	// the channel is closed: Detect returns the rounds completed so far
	// with core.ErrInterrupted, exactly like the single-machine detector.
	Cancel <-chan struct{}
	// Retry, when non-zero, replaces the cluster's call-retry policy for
	// this detector's runs: transient-failure attempts, per-call timeout,
	// capped exponential backoff with deterministic jitter, and the
	// recovery-cycle budget. The zero value keeps the cluster's current
	// policy (the defaults, unless SetRetryPolicy was called).
	Retry RetryPolicy
}

// NewDetector prepares a detector for a graph of n nodes already loaded
// into the cluster via LoadGraph.
func NewDetector(c *Cluster, n int, cfg DetectorConfig) *Detector {
	if cfg.Retry != (RetryPolicy{}) {
		c.SetRetryPolicy(cfg.Retry)
	}
	return &Detector{
		c:  c,
		n:  n,
		pf: NewPrefetcher(c, cfg.PrefetchBatch, cfg.BufferCap),
	}
}

// Prefetcher exposes the detector's prefetch statistics.
func (d *Detector) Prefetcher() *Prefetcher { return d.pf }

// Detect runs the full iterative detection (§IV-E) on the cluster.
func (d *Detector) Detect(cfg DetectorConfig) (core.Detection, error) {
	if cfg.TargetCount <= 0 && cfg.AcceptanceThreshold <= 0 {
		return core.Detection{}, fmt.Errorf("dist: Detect needs TargetCount or AcceptanceThreshold")
	}
	if cfg.TargetCount < 0 || cfg.TargetCount > d.n {
		return core.Detection{}, fmt.Errorf("dist: TargetCount %d out of range", cfg.TargetCount)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = core.DefaultMaxRounds
	}
	opts := cfg.Cut.WithDefaults()

	// The cut's tracer observes the whole distributed detection; the
	// freeze span was already emitted by LoadGraph (via the cluster's own
	// tracer), so only detection/round/sweep/prune spans originate here.
	tr := opts.Tracer
	var detectStart time.Time
	if tr != nil {
		detectStart = time.Now()
		tr.Emit(obs.Event{Name: obs.EvDetectStart, Wall: detectStart, Nodes: d.n})
	}

	d.alive = newBitset(d.n)
	for u := 0; u < d.n; u++ {
		d.alive.set(int32(u), true)
	}
	d.pinned = newBitset(d.n)
	for _, u := range opts.Seeds.Legit {
		d.pinned.set(int32(u), true)
	}
	for _, u := range opts.Seeds.Spammer {
		d.pinned.set(int32(u), true)
	}

	var det core.Detection
	detected := 0
	aliveCount := d.n
	stopReason := ""
	for det.Rounds < maxRounds {
		if canceled(cfg.Cancel) {
			stopReason = "interrupted"
			break
		}
		if cfg.TargetCount > 0 && detected >= cfg.TargetCount {
			stopReason = "target"
			break
		}
		roundStart := time.Now()
		if tr != nil {
			tr.Emit(obs.Event{
				Name: obs.EvRoundStart, Wall: roundStart,
				Round: det.Rounds + 1, Nodes: aliveCount,
			})
		}
		roundOpts := opts
		roundOpts.RandSeed = opts.RandSeed + uint64(det.Rounds)*0x9e3779b9
		roundOpts.TraceRound = det.Rounds + 1

		cut, ok, err := d.findMAARCut(roundOpts)
		if err != nil {
			return core.Detection{}, err
		}
		if !ok {
			stopReason = "no-cut"
			break
		}
		det.Rounds++
		if cfg.AcceptanceThreshold > 0 && cut.Acceptance > cfg.AcceptanceThreshold {
			stopReason = "threshold"
			endRound(tr, det.Rounds, roundStart, cut, 0)
			break
		}

		members := make([]graph.NodeID, 0, cut.Stats.SuspectSize)
		pb := newBitset(d.n)
		for u := 0; u < d.n; u++ {
			if d.alive.get(int32(u)) && cut.Partition[u] == graph.Suspect {
				members = append(members, graph.NodeID(u))
				pb.set(int32(u), true)
			}
		}
		if err := d.sortBySuspicion(members, pb); err != nil {
			return core.Detection{}, err
		}
		det.Groups = append(det.Groups, core.Group{
			Members:    members,
			Acceptance: cut.Acceptance,
			K:          cut.K,
			Round:      det.Rounds,
		})
		detected += len(members)

		// The distributed prune flips alive bits on the master instead of
		// deriving a residual snapshot; it is this engine's phase.prune.
		pruneStart := time.Now()
		for _, u := range members {
			d.alive.set(int32(u), false)
		}
		aliveCount -= len(members)
		d.pf.Reset()
		if tr != nil {
			tr.Emit(obs.Event{
				Name: obs.EvPrune, Wall: time.Now(), Dur: time.Since(pruneStart),
				Round: det.Rounds, Nodes: aliveCount,
			})
		}
		endRound(tr, det.Rounds, roundStart, cut, len(members))
	}

	for _, grp := range det.Groups {
		det.Suspects = append(det.Suspects, grp.Members...)
	}
	if cfg.TargetCount > 0 && len(det.Suspects) > cfg.TargetCount {
		det.Suspects = det.Suspects[:cfg.TargetCount]
	}
	if tr != nil {
		tr.Emit(obs.Event{
			Name: obs.EvDetectDone, Wall: time.Now(), Dur: time.Since(detectStart),
			Round: det.Rounds, Suspects: len(det.Suspects), Detail: stopReason,
		})
	}
	if stopReason == "interrupted" {
		return det, core.ErrInterrupted
	}
	return det, nil
}

// endRound mirrors the single-machine detector's round bookkeeping: it
// ticks the always-live round counters and emits round.done when tracing.
func endRound(tr obs.Tracer, round int, start time.Time, cut core.Cut, suspects int) {
	dur := time.Since(start)
	obs.Pipeline.Rounds.Add(1)
	ms := float64(dur) / float64(time.Millisecond)
	obs.Pipeline.RoundMS.Add(ms)
	obs.Pipeline.LastRoundMS.Set(ms)
	if tr != nil {
		tr.Emit(obs.Event{
			Name: obs.EvRoundDone, Wall: time.Now(), Dur: dur, Round: round,
			K: cut.K, Acceptance: cut.Acceptance, Suspects: suspects,
		})
	}
}

// canceled reports whether the cancellation channel has fired; a nil
// channel never cancels.
func canceled(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// refreshCounts pulls the alive-filtered degree and rejection counts from
// the workers via three ComputeGains probes with degenerate weights: under
// an all-Legit partition the gain reduces to wR·inRej − wF·deg, and under
// all-Suspect to wR·outRej − wF·deg.
func (d *Detector) refreshCounts() error {
	allLegit := newBitset(d.n)
	var err error
	if d.deg, err = d.c.gatherGains(d.n, allLegit, d.alive, -1, 0); err != nil {
		return err
	}
	if d.inRej, err = d.c.gatherGains(d.n, allLegit, d.alive, 0, 1); err != nil {
		return err
	}
	allSuspect := newBitset(d.n)
	for u := 0; u < d.n; u++ {
		allSuspect.set(int32(u), true)
	}
	if d.outRej, err = d.c.gatherGains(d.n, allSuspect, d.alive, 0, 1); err != nil {
		return err
	}
	return nil
}

// findMAARCut mirrors core.FindMAARCut over the cluster.
func (d *Detector) findMAARCut(opts core.CutOptions) (core.Cut, bool, error) {
	if err := d.refreshCounts(); err != nil {
		return core.Cut{}, false, err
	}
	var totalF, totalR int64
	aliveCount := 0
	for u := 0; u < d.n; u++ {
		if !d.alive.get(int32(u)) {
			continue
		}
		aliveCount++
		totalF += d.deg[u]
		totalR += d.inRej[u]
	}
	totalF /= 2
	if totalR == 0 || aliveCount < 2 {
		return core.Cut{}, false, nil
	}

	src := rng.New(opts.RandSeed)
	inits := d.initialPartitions(opts, src)

	// The master solves the (k, init) jobs serially — the parallelism of
	// the distributed engine lives inside each solve, in the fan-out to
	// the workers — so the sweep events arrive in job order by nature.
	tr := opts.Tracer
	var sweepStart time.Time
	if tr != nil {
		gridJobs := 0
		for _, k := range opts.KGrid() {
			if int64(math.Round(k*float64(opts.WeightScale))) >= 1 {
				gridJobs++
			}
		}
		sweepStart = time.Now()
		tr.Emit(obs.Event{
			Name: obs.EvSweepStart, Wall: sweepStart, Round: opts.TraceRound,
			Jobs: gridJobs * len(inits), Nodes: aliveCount,
			Friendships: int(totalF), Rejections: int(totalR),
		})
	}

	best := core.Cut{Acceptance: math.Inf(1)}
	found := false
	job, sweepPasses := 0, 0
	for _, k := range opts.KGrid() {
		wR := int64(math.Round(k * float64(opts.WeightScale)))
		if wR < 1 {
			continue
		}
		for initIdx, init := range inits {
			obs.Pipeline.SolvesStarted.Add(1)
			var solveStart time.Time
			if tr != nil {
				solveStart = time.Now()
			}
			p, passes, err := d.extendedKL(init, opts.WeightScale, wR, opts.MaxPasses)
			if err != nil {
				return core.Cut{}, false, err
			}
			cand, ok, err := d.scoreCut(p, k, opts.Seeds)
			if err != nil {
				return core.Cut{}, false, err
			}
			obs.Pipeline.SolvesFinished.Add(1)
			obs.Pipeline.KLPasses.Add(int64(passes))
			sweepPasses += passes
			job++
			if tr != nil {
				ev := obs.Event{
					Name: obs.EvSolveDone, Wall: time.Now(), Dur: time.Since(solveStart),
					Round: opts.TraceRound, Job: job, K: k, Init: initIdx + 1,
					Passes: passes, Acceptance: -1,
				}
				if ok {
					ev.Acceptance = cand.Acceptance
				}
				tr.Emit(ev)
			}
			if ok && cand.Acceptance < best.Acceptance {
				best = cand
				found = true
			}
		}
	}
	obs.Pipeline.Sweeps.Add(1)
	if tr != nil {
		ev := obs.Event{
			Name: obs.EvSweepDone, Wall: time.Now(), Dur: time.Since(sweepStart),
			Round: opts.TraceRound, Jobs: job, Passes: sweepPasses, Acceptance: -1,
		}
		if found {
			ev.K = best.K
			ev.Acceptance = best.Acceptance
		}
		tr.Emit(ev)
	}
	return best, found, nil
}

// initialPartitions mirrors core's starting points: the per-node acceptance
// heuristic against the global aggregate acceptance, plus optional random
// restarts, with seeds pre-placed. Dead nodes stay Legit (they are skipped
// everywhere).
func (d *Detector) initialPartitions(opts core.CutOptions, src *rng.Source) []bitset {
	var totalF, totalR int64
	for u := 0; u < d.n; u++ {
		if d.alive.get(int32(u)) {
			totalF += d.deg[u]
			totalR += d.inRej[u]
		}
	}
	threshold := float64(totalF) / float64(totalF+totalR) // totalF is already 2|F|

	placeSeeds := func(p bitset) bitset {
		for _, u := range opts.Seeds.Legit {
			p.set(int32(u), false)
		}
		for _, u := range opts.Seeds.Spammer {
			p.set(int32(u), true)
		}
		return p
	}

	heur := newBitset(d.n)
	for u := 0; u < d.n; u++ {
		if !d.alive.get(int32(u)) {
			continue
		}
		f, r := d.deg[u], d.inRej[u]
		acc := 1.0
		if f+r > 0 {
			acc = float64(f) / float64(f+r)
		}
		if acc < threshold {
			heur.set(int32(u), true)
		}
	}
	inits := []bitset{placeSeeds(heur)}

	r := src.Stream("init")
	for i := 0; i < opts.Restarts; i++ {
		p := newBitset(d.n)
		for u := 0; u < d.n; u++ {
			// Draw for every node (dead included) so the stream consumption
			// matches core's, which draws over the residual graph; parity
			// of detections is asserted set-wise, not stream-wise, so a
			// simple per-alive draw is fine too — but be deterministic.
			if r.Float64() < 0.5 && d.alive.get(int32(u)) {
				p.set(int32(u), true)
			}
		}
		inits = append(inits, placeSeeds(p))
	}
	return inits
}

// extendedKL is the distributed Algorithm 1: gains are initialized
// worker-side, the switching sequence runs on the master with prefetched
// adjacency, and the best prefix is applied. The second result is the
// number of passes executed, counted exactly like kl.Result.Passes (the
// final non-improving pass included).
func (d *Detector) extendedKL(init bitset, wF, wR int64, maxPasses int) (graph.Partition, int, error) {
	if maxPasses == 0 {
		maxPasses = kl.DefaultMaxPasses
	}
	p := make(bitset, len(init))
	copy(p, init)

	passes := 0
	for pass := 0; pass < maxPasses; pass++ {
		improved, err := d.klPass(p, wF, wR)
		if err != nil {
			return nil, 0, err
		}
		passes++
		if !improved {
			break
		}
	}
	out := graph.NewPartition(d.n)
	for u := 0; u < d.n; u++ {
		if p.get(int32(u)) {
			out[u] = graph.Suspect
		}
	}
	return out, passes, nil
}

func (d *Detector) klPass(p bitset, wF, wR int64) (bool, error) {
	gains, err := d.c.gatherGains(d.n, p, d.alive, wF, wR)
	if err != nil {
		return false, err
	}

	var maxAbs int64 = 1
	for u := 0; u < d.n; u++ {
		if !d.alive.get(int32(u)) {
			continue
		}
		wd := d.deg[u]*wF + (d.inRej[u]+d.outRej[u])*wR
		if wd > maxAbs {
			maxAbs = wd
		}
	}
	list := bucketlist.New(d.n, -maxAbs, maxAbs)
	for u := 0; u < d.n; u++ {
		if d.alive.get(int32(u)) && !d.pinned.get(int32(u)) {
			list.Add(u, gains[u])
		}
	}

	// The master steps the same kl.Prefix as the single-machine passes, over
	// the alive unpinned nodes, so it ends the pass at the same switch.
	seq := make([]int32, 0, list.Len())
	best := kl.NewPrefix(list.Len())
	for {
		u, gu, ok := list.PopMax()
		if !ok {
			break
		}
		seq = append(seq, int32(u))
		if err := d.applySwitch(p, int32(u), wF, wR, list); err != nil {
			return false, err
		}
		if best.Step(gu) {
			break
		}
	}
	for _, u := range seq[best.Len:] {
		p.set(u, !p.get(u))
	}
	return best.Gain > 0, nil
}

// applySwitch flips u and updates the gains of its still-listed neighbours,
// pulling u's adjacency through the prefetcher. Dead neighbours are
// filtered master-side, which is what lets pruning avoid re-sharding.
func (d *Detector) applySwitch(p bitset, u int32, wF, wR int64, list bucketlist.List) error {
	adj, err := d.pf.Get(u, list)
	if err != nil {
		return err
	}
	oldSuspect := p.get(u)
	p.set(u, !oldSuspect)
	oldPu, newPu := region(oldSuspect), region(!oldSuspect)

	for _, v := range adj.Friends {
		if !list.Contains(int(v)) {
			continue
		}
		if p.get(v) == !oldSuspect {
			list.Update(int(v), list.Gain(int(v))-2*wF)
		} else {
			list.Update(int(v), list.Gain(int(v))+2*wF)
		}
	}
	if wR == 0 {
		return nil
	}
	for _, x := range adj.RejOut { // edges ⟨u, x⟩; x sees u as a rejecter
		if !list.Contains(int(x)) {
			continue
		}
		px := region(p.get(x))
		delta := kl.RejecterContrib(px, newPu, wR) - kl.RejecterContrib(px, oldPu, wR)
		if delta != 0 {
			list.Update(int(x), list.Gain(int(x))+delta)
		}
	}
	for _, x := range adj.RejIn { // edges ⟨x, u⟩; x sees u as its target
		if !list.Contains(int(x)) {
			continue
		}
		px := region(p.get(x))
		delta := kl.RejectedContrib(px, newPu, wR) - kl.RejectedContrib(px, oldPu, wR)
		if delta != 0 {
			list.Update(int(x), list.Gain(int(x))+delta)
		}
	}
	return nil
}

// scoreCut mirrors core's cut scoring, including the mirrored orientation
// when no seeds constrain it.
func (d *Detector) scoreCut(p graph.Partition, k float64, seeds core.Seeds) (core.Cut, bool, error) {
	pb := newBitset(d.n)
	suspectSize, legitSize := 0, 0
	for u := 0; u < d.n; u++ {
		if !d.alive.get(int32(u)) {
			continue
		}
		if p[u] == graph.Suspect {
			pb.set(int32(u), true)
			suspectSize++
		} else {
			legitSize++
		}
	}
	partial, err := d.c.cutStats(pb, d.alive)
	if err != nil {
		return core.Cut{}, false, err
	}
	s := graph.CutStats{
		SuspectSize:      suspectSize,
		LegitSize:        legitSize,
		CrossFriendships: int(partial.CrossFriendships),
		RejIntoSuspect:   int(partial.RejIntoSuspect),
		RejIntoLegit:     int(partial.RejIntoLegit),
	}
	if s.Trivial() {
		return core.Cut{}, false, nil
	}
	best := core.Cut{}
	found := false
	if s.RejIntoSuspect > 0 {
		best = core.Cut{Partition: p, Stats: s, K: k, Acceptance: s.AcceptanceOfSuspect()}
		found = true
	}
	if seeds.Empty() && s.RejIntoLegit > 0 {
		if acc := s.AcceptanceOfLegit(); !found || acc < best.Acceptance {
			m := p.Clone()
			for u := 0; u < d.n; u++ {
				if d.alive.get(int32(u)) {
					m[u] = m[u].Other()
				}
			}
			best = core.Cut{
				Partition: m,
				Stats: graph.CutStats{
					SuspectSize:      s.LegitSize,
					LegitSize:        s.SuspectSize,
					CrossFriendships: s.CrossFriendships,
					RejIntoSuspect:   s.RejIntoLegit,
					RejIntoLegit:     s.RejIntoSuspect,
				},
				K:          k,
				Acceptance: acc,
			}
			found = true
		}
	}
	return best, found, nil
}

// sortBySuspicion orders members by the same group-aware trim score as the
// single-machine detector (see core's sortBySuspicion). The in-group
// friendship counts come from one more degenerate-weight probe: under the
// cut partition, ComputeGains with (wF=−1, wR=0) returns same−cross per
// node, so friendsInGroup = (gain + deg) / 2.
func (d *Detector) sortBySuspicion(members []graph.NodeID, cut bitset) error {
	sameMinusCross, err := d.c.gatherGains(d.n, cut, d.alive, -1, 0)
	if err != nil {
		return err
	}
	type scored struct{ rejRatio, inGroup float64 }
	score := func(u graph.NodeID) scored {
		deg, inRej := d.deg[u], d.inRej[u]
		var s scored
		if deg+inRej > 0 {
			s.rejRatio = float64(inRej) / float64(deg+inRej)
		}
		if deg > 0 {
			inGroup := (sameMinusCross[u] + deg) / 2
			s.inGroup = float64(inGroup) / float64(deg)
		}
		return s
	}
	sort.Slice(members, func(i, j int) bool {
		si, sj := score(members[i]), score(members[j])
		if si.rejRatio != sj.rejRatio {
			return si.rejRatio > sj.rejRatio
		}
		if si.inGroup != sj.inGroup {
			return si.inGroup > sj.inGroup
		}
		return members[i] < members[j]
	})
	return nil
}
