package kl

import (
	"repro/internal/bucketlist"
	"repro/internal/graph"
)

// Workspace holds the reusable scratch state of PartitionFrozen: the FM
// bucket list (reset in place between passes and jobs), the tentative
// switch sequence, and the working partition. A Workspace is owned by one
// goroutine; the independent (k, init) jobs of a MAAR sweep each reuse
// their worker's Workspace, so steady-state solves allocate nothing.
//
// The zero value is ready for use; the first calls through a Workspace
// size its buffers (and re-size them if the graph or gain range grows),
// after which PartitionFrozen performs no allocations at all.
type Workspace struct {
	dense *denseBuckets   // specialized structure for dense gain ranges
	list  bucketlist.List // fallback for gain ranges too wide for dense
	seq   []wsStep
	p     graph.Partition
	gains []int64 // per-pass best-gain trajectory (Result.PassGains)
}

// wsStep records one tentative switch of a KL pass: the node and the
// switch's effect on the incremental cut statistics, so a rollback can
// subtract it.
type wsStep struct {
	node   graph.NodeID
	dCross int32 // delta CrossFriendships
	dRejS  int32 // delta RejIntoSuspect
	dRejL  int32 // delta RejIntoLegit
	dSusp  int8  // delta SuspectSize (±1)
}

// PartitionFrozen runs extended KL on a CSR snapshot. It is byte-identical
// to Partition on the graph the snapshot was frozen from — same partition,
// objective, cut statistics, and pass count — but tracks the objective and
// cut statistics incrementally as nodes switch (so Result.Stats costs no
// final O(V+E) walk) and reuses ws across calls (so a warmed-up call
// performs zero allocations; see BenchmarkPartitionFrozen and the
// TestPartitionFrozenZeroAllocs guarantee).
//
// ws may be nil, in which case a throwaway workspace is used. When ws is
// non-nil the returned Result.Partition and Result.PassGains alias
// workspace memory: they are valid until the next PartitionFrozen call
// with the same ws, and callers keeping them longer must Clone/copy.
func PartitionFrozen(f *graph.Frozen, init graph.Partition, cfg Config, ws *Workspace) Result {
	checkFrozenArgs(f, init, cfg)
	return partitionFrozen(f, init, f.Stats(init), cfg, nil, ws)
}

// PartitionFrozenFromStats is PartitionFrozen for callers that already
// hold init's cut statistics — a sweep reuses the same few initial
// partitions across every weight configuration, so computing each init's
// stats once replaces an O(V+E) walk per solve. initStats must equal
// f.Stats(init); everything else is as documented on PartitionFrozen.
func PartitionFrozenFromStats(f *graph.Frozen, init graph.Partition, initStats graph.CutStats, cfg Config, ws *Workspace) Result {
	checkFrozenArgs(f, init, cfg)
	return partitionFrozen(f, init, initStats, cfg, nil, ws)
}

func checkFrozenArgs(f *graph.Frozen, init graph.Partition, cfg Config) {
	n := f.NumNodes()
	if len(init) != n {
		panic("kl: initial partition length mismatch")
	}
	if cfg.Pinned != nil && len(cfg.Pinned) != n {
		panic("kl: pinned length mismatch")
	}
	if cfg.FriendWeight <= 0 {
		panic("kl: FriendWeight must be positive")
	}
	if cfg.RejectWeight < 0 {
		panic("kl: RejectWeight must be non-negative")
	}
}

func partitionFrozen(f *graph.Frozen, init graph.Partition, initStats graph.CutStats, cfg Config, active []bool, ws *Workspace) Result {
	n := f.NumNodes()
	maxPasses := cfg.MaxPasses
	if maxPasses == 0 {
		maxPasses = DefaultMaxPasses
	}
	if ws == nil {
		ws = &Workspace{}
	}
	if cap(ws.p) < n {
		ws.p = make(graph.Partition, n)
	}
	if cap(ws.seq) < n {
		// A pass records at most one step per node; sizing the sequence up
		// front avoids append-doubling through the first pass.
		ws.seq = make([]wsStep, 0, n)
	}
	if cap(ws.gains) < maxPasses {
		ws.gains = make([]int64, 0, maxPasses)
	}
	ws.gains = ws.gains[:0]
	p := ws.p[:n]
	ws.p = p
	copy(p, init)

	opt := frozenOptimizer{
		f:        f,
		cfg:      cfg,
		ws:       ws,
		active:   active,
		weighted: f.Weighted(),
		maxAbs:   frozenMaxAbsGain(f, cfg),
		stats:    initStats,
	}
	for u := 0; u < n; u++ {
		if cfg.Pinned != nil && cfg.Pinned[u] || active != nil && !active[u] {
			continue
		}
		opt.fillEdges += adjacency(f, graph.NodeID(u))
	}
	passes := 0
	for passes < maxPasses {
		passes++
		if improved := opt.pass(p); !improved {
			break
		}
	}
	return Result{
		Partition: p,
		Objective: int64(opt.stats.CrossFriendships)*cfg.FriendWeight -
			int64(opt.stats.RejIntoSuspect)*cfg.RejectWeight,
		Stats:        opt.stats,
		Passes:       passes,
		Switches:     opt.switches,
		Rollbacks:    opt.rollbacks,
		EdgesScanned: opt.edges,
		PassGains:    ws.gains,
	}
}

// frozenMaxAbsGain is maxAbsGain over a CSR snapshot. On weighted (coarse)
// snapshots the bound is the weighted degree — see frozen_ml.go.
func frozenMaxAbsGain(f *graph.Frozen, cfg Config) int64 {
	if f.Weighted() {
		return frozenMaxAbsGainWeighted(f, cfg)
	}
	var maxAbs int64
	for u := 0; u < f.NumNodes(); u++ {
		wd := int64(f.Degree(graph.NodeID(u)))*cfg.FriendWeight +
			int64(f.InRejections(graph.NodeID(u))+f.OutRejections(graph.NodeID(u)))*cfg.RejectWeight
		if wd > maxAbs {
			maxAbs = wd
		}
	}
	return maxAbs
}

type frozenOptimizer struct {
	f   *graph.Frozen
	cfg Config
	ws  *Workspace
	// active, when non-nil, restricts switching to the marked nodes: the
	// others keep their init region and are never added to the bucket
	// structure (RefineFrozen's boundary-only refinement). Inactive nodes
	// still shape their neighbours' gains and the incremental statistics.
	active []bool
	// weighted dispatches the gain/switch kernels to their multiplicity-
	// counting forms (frozen_ml.go); set once from f.Weighted().
	weighted bool
	maxAbs   int64
	// stats are the cut statistics of the current partition, updated on
	// every tentative switch and rollback.
	stats graph.CutStats
	// Trace counters surfaced through Result; kept identical to the seed
	// optimizer's so the parity tests can pin them field for field.
	switches  int
	rollbacks int
	// fillEdges is the adjacency a pass walks to initialize the gains of
	// the nodes it enters into the bucket structure — the same every pass —
	// and edges the running total of Result.EdgesScanned.
	fillEdges int64
	edges     int64
}

// pass performs one KL improvement pass over p in place, mirroring
// (*optimizer).pass step for step on the snapshot — including where it
// stops (see Prefix). Whenever the gain range is one bucketlist.New would
// serve with the dense implementation — every realistic configuration —
// the pass runs on the workspace's specialized denseBuckets structure
// (same tie-break order, cache-packed layout, no interface dispatch);
// otherwise it falls back to the generic bucket list.
func (o *frozenOptimizer) pass(p graph.Partition) bool {
	f, cfg := o.f, o.cfg
	n := f.NumNodes()

	seq := o.ws.seq[:0]
	var best Prefix
	if bucketlist.PrefersDense(-o.maxAbs, o.maxAbs) {
		d := o.ws.dense
		if d == nil {
			d = &denseBuckets{}
			o.ws.dense = d
		}
		d.reset(n, -o.maxAbs, o.maxAbs)
		if cfg.Pinned == nil && o.active == nil {
			for u := 0; u < n; u++ {
				d.add(int32(u), o.gain(p, graph.NodeID(u)))
			}
		} else {
			for u := 0; u < n; u++ {
				if cfg.Pinned != nil && cfg.Pinned[u] || o.active != nil && !o.active[u] {
					continue
				}
				d.add(int32(u), o.gain(p, graph.NodeID(u)))
			}
		}
		best = NewPrefix(d.size)
		for {
			u, gu, ok := d.popMax()
			if !ok || cfg.Greedy && gu <= 0 {
				break
			}
			seq = append(seq, wsStep{node: graph.NodeID(u)})
			o.applySwitchDense(p, graph.NodeID(u), d, &seq[len(seq)-1])
			if best.Step(gu) {
				break
			}
		}
	} else {
		list := bucketlist.Renew(o.ws.list, n, -o.maxAbs, o.maxAbs)
		o.ws.list = list
		for u := 0; u < n; u++ {
			if cfg.Pinned != nil && cfg.Pinned[u] || o.active != nil && !o.active[u] {
				continue
			}
			list.Add(u, o.gain(p, graph.NodeID(u)))
		}
		best = NewPrefix(list.Len())
		for {
			u, gu, ok := list.PopMax()
			if !ok || cfg.Greedy && gu <= 0 {
				break
			}
			seq = append(seq, wsStep{node: graph.NodeID(u)})
			o.applySwitch(p, graph.NodeID(u), list, &seq[len(seq)-1])
			if best.Step(gu) {
				break
			}
		}
	}
	o.ws.seq = seq

	// Roll back to the best prefix; with no improving prefix best.Len is
	// zero and everything is undone.
	o.switches += len(seq)
	o.rollbacks += len(seq) - best.Len
	o.ws.gains = append(o.ws.gains, best.Gain)
	o.edges += o.fillEdges
	for i := range seq {
		o.edges += adjacency(f, seq[i].node)
	}
	for i := best.Len; i < len(seq); i++ {
		st := &seq[i]
		p[st.node] = p[st.node].Other()
		o.stats.CrossFriendships -= int(st.dCross)
		o.stats.RejIntoSuspect -= int(st.dRejS)
		o.stats.RejIntoLegit -= int(st.dRejL)
		o.stats.SuspectSize -= int(st.dSusp)
		o.stats.LegitSize += int(st.dSusp)
	}
	return best.Gain > 0
}

// adjacency is the number of CSR entries a gain computation or a switch of
// u walks: its friends, the users it rejected and the users that rejected
// it.
func adjacency(f *graph.Frozen, u graph.NodeID) int64 {
	return int64(f.Degree(u) + f.OutRejections(u) + f.InRejections(u))
}

// gain computes (*optimizer).gain on the snapshot, in counting form: each
// adjacency walk tallies the neighbours matching its gating region — a
// compare-and-increment the compiler lowers without branches — and the
// weights multiply the counts once at the end. The value is identical to
// the seed's per-edge accumulation (integer arithmetic, same terms).
func (o *frozenOptimizer) gain(p graph.Partition, u graph.NodeID) int64 {
	if o.weighted {
		return o.gainWeighted(p, u)
	}
	f, cfg := o.f, o.cfg
	pu := p[u]
	friends := f.Friends(u)
	same := 0
	for _, v := range friends {
		if p[v] == pu {
			same++
		}
	}
	gain := cfg.FriendWeight * int64(len(friends)-2*same)
	suspectRejected := 0
	for _, x := range f.Rejected(u) {
		if p[x] == graph.Suspect {
			suspectRejected++
		}
	}
	legitRejecters := 0
	for _, x := range f.Rejecters(u) {
		if p[x] == graph.Legit {
			legitRejecters++
		}
	}
	if pu == graph.Legit {
		return gain + cfg.RejectWeight*int64(legitRejecters-suspectRejected)
	}
	return gain + cfg.RejectWeight*int64(suspectRejected-legitRejecters)
}

// applySwitch flips u in p, updates the bucket-list gains of u's still-free
// neighbours exactly as (*optimizer).applySwitch does, and — in the same
// adjacency walk — accumulates the switch's effect on the cut statistics
// into st and o.stats. Every friendship of u toggles its cross status;
// every rejection incident to u moves between counted and uncounted
// depending on the fixed endpoint's region.
func (o *frozenOptimizer) applySwitch(p graph.Partition, u graph.NodeID, list bucketlist.List, st *wsStep) {
	if o.weighted {
		o.applySwitchWeighted(p, u, list, st)
		return
	}
	f, cfg := o.f, o.cfg
	oldPu := p[u]
	newPu := oldPu.Other()
	p[u] = newPu
	if oldPu == graph.Legit {
		st.dSusp = 1
	} else {
		st.dSusp = -1
	}

	for _, v := range f.Friends(u) {
		if p[v] == newPu {
			st.dCross-- // edge was cross, now internal
			list.AdjustIfPresent(int(v), -2*cfg.FriendWeight)
		} else {
			st.dCross++ // edge was internal, now cross
			list.AdjustIfPresent(int(v), 2*cfg.FriendWeight)
		}
	}
	// Edges ⟨u, x⟩: u is the rejecter. With x Suspect the edge counts in
	// RejIntoSuspect exactly while u is Legit; with x Legit it counts in
	// RejIntoLegit exactly while u is Suspect.
	for _, x := range f.Rejected(u) {
		if p[x] == graph.Suspect {
			if newPu == graph.Legit {
				st.dRejS++
			} else {
				st.dRejS--
			}
		} else if newPu == graph.Suspect {
			st.dRejL++
		} else {
			st.dRejL--
		}
		list.AdjustIfPresent(int(x), RejecterContrib(p[x], newPu, cfg.RejectWeight)-
			RejecterContrib(p[x], oldPu, cfg.RejectWeight))
	}
	// Edges ⟨x, u⟩: u is the target. With x Legit the edge counts in
	// RejIntoSuspect exactly while u is Suspect; with x Suspect it counts
	// in RejIntoLegit exactly while u is Legit.
	for _, x := range f.Rejecters(u) {
		if p[x] == graph.Legit {
			if newPu == graph.Suspect {
				st.dRejS++
			} else {
				st.dRejS--
			}
		} else if newPu == graph.Legit {
			st.dRejL++
		} else {
			st.dRejL--
		}
		list.AdjustIfPresent(int(x), RejectedContrib(p[x], newPu, cfg.RejectWeight)-
			RejectedContrib(p[x], oldPu, cfg.RejectWeight))
	}

	o.stats.CrossFriendships += int(st.dCross)
	o.stats.RejIntoSuspect += int(st.dRejS)
	o.stats.RejIntoLegit += int(st.dRejL)
	o.stats.SuspectSize += int(st.dSusp)
	o.stats.LegitSize -= int(st.dSusp)
}

// applySwitchDense is applySwitch on the workspace's specialized dense
// structure: identical step for step, but the membership probe is a
// caller-side bitmap test (absent neighbours never touch their node
// record) and the gain deltas are folded to their sign form. For both
// rejection directions the Contrib difference collapses to +wR when the
// listed neighbour now shares u's region and −wR otherwise, since exactly
// one of oldPu/newPu satisfies each Contrib's gating region. This is the
// hottest loop of the whole sweep.
func (o *frozenOptimizer) applySwitchDense(p graph.Partition, u graph.NodeID, d *denseBuckets, st *wsStep) {
	if o.weighted {
		o.applySwitchDenseWeighted(p, u, d, st)
		return
	}
	f := o.f
	wF2, wR := 2*o.cfg.FriendWeight, o.cfg.RejectWeight
	oldPu := p[u]
	newPu := oldPu.Other()
	p[u] = newPu
	if oldPu == graph.Legit {
		st.dSusp = 1
	} else {
		st.dSusp = -1
	}

	for _, v := range f.Friends(u) {
		if p[v] == newPu {
			st.dCross--
			if d.present(int32(v)) {
				d.relink(int32(v), -wF2)
			}
		} else {
			st.dCross++
			if d.present(int32(v)) {
				d.relink(int32(v), wF2)
			}
		}
	}
	for _, x := range f.Rejected(u) {
		if p[x] == graph.Suspect {
			if newPu == graph.Legit {
				st.dRejS++
			} else {
				st.dRejS--
			}
		} else if newPu == graph.Suspect {
			st.dRejL++
		} else {
			st.dRejL--
		}
		if wR != 0 && d.present(int32(x)) {
			if p[x] == newPu {
				d.relink(int32(x), wR)
			} else {
				d.relink(int32(x), -wR)
			}
		}
	}
	for _, x := range f.Rejecters(u) {
		if p[x] == graph.Legit {
			if newPu == graph.Suspect {
				st.dRejS++
			} else {
				st.dRejS--
			}
		} else if newPu == graph.Legit {
			st.dRejL++
		} else {
			st.dRejL--
		}
		if wR != 0 && d.present(int32(x)) {
			if p[x] == newPu {
				d.relink(int32(x), wR)
			} else {
				d.relink(int32(x), -wR)
			}
		}
	}

	o.stats.CrossFriendships += int(st.dCross)
	o.stats.RejIntoSuspect += int(st.dRejS)
	o.stats.RejIntoLegit += int(st.dRejL)
	o.stats.SuspectSize += int(st.dSusp)
	o.stats.LegitSize -= int(st.dSusp)
}
