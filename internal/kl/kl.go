package kl

import (
	"fmt"

	"repro/internal/bucketlist"
	"repro/internal/graph"
)

// Config parameterizes one extended-KL optimization.
type Config struct {
	// FriendWeight is the fixed-point objective weight of a cross-cut
	// friendship (w_F above). Must be positive.
	FriendWeight int64
	// RejectWeight is the fixed-point objective credit of a rejection
	// crossing from Legit into Suspect (w_R above). Must be non-negative;
	// the effective ratio k of §IV-D is RejectWeight/FriendWeight.
	RejectWeight int64
	// Pinned marks seed nodes that must stay in their initial region.
	// May be nil (no seeds); otherwise len(Pinned) == g.NumNodes().
	Pinned []bool
	// MaxPasses bounds the number of KL passes. Zero means DefaultMaxPasses.
	// In practice KL converges in a handful of passes [Fiduccia 1982].
	MaxPasses int
	// Greedy switches the frozen engine's pass to strict hill climbing: it
	// stops popping at the first non-positive gain instead of tentatively
	// switching every node and rolling back to the best prefix. A greedy
	// pass reaches single-switch convergence on its own (gains are
	// maintained incrementally, so the loop only ends when no remaining
	// node improves), making one pass sufficient — at the price of KL's
	// ability to cross objective plateaus. The multilevel ladder uses it
	// for per-level boundary refinement, where the projected partition is
	// already near-optimal and plateau-crossing is the coarsest solve's
	// job. Only PartitionFrozen/RefineFrozen honor it.
	Greedy bool
}

// DefaultMaxPasses bounds KL passes when Config.MaxPasses is zero.
const DefaultMaxPasses = 40

// Result reports the outcome of a Partition call.
type Result struct {
	Partition graph.Partition
	// Objective is the final fixed-point objective value
	// |F(Ū,U)|·w_F − |R⃗⟨Ū,U⟩|·w_R.
	Objective int64
	// Stats are the cut statistics of Partition, so callers scoring the
	// cut do not re-walk the graph. PartitionFrozen maintains them
	// incrementally as nodes switch.
	Stats graph.CutStats
	// Passes is the number of improvement passes performed.
	Passes int
	// Switches is the total number of tentative node switches across all
	// passes, and Rollbacks the number undone by best-prefix rollback;
	// Switches − Rollbacks is the net moves the solve kept. Both are
	// plain counters the passes maintain anyway, so recording them costs
	// nothing — they exist for the observability layer (obs.EvSolveDone).
	Switches  int
	Rollbacks int
	// EdgesScanned is the number of adjacency entries the solve walked:
	// per pass, the gain initialization of every node entered into the
	// bucket structure plus the adjacency of every node actually switched.
	// Only PartitionFrozen/RefineFrozen report it.
	EdgesScanned int64
	// PassGains is the best-gain trajectory: the best cumulative
	// objective reduction each pass found (the amount it kept after
	// rollback). Its length equals Passes, and the final entry is ≤ 0
	// exactly when the solve converged before MaxPasses. In
	// PartitionFrozen the slice aliases workspace memory — valid until
	// the next call with the same Workspace; Clone to retain.
	PassGains []int64
}

// Partition runs extended KL from the given initial partition and returns
// the locally optimal partition for the configured linear objective. The
// input partition is not modified.
func Partition(g *graph.Graph, init graph.Partition, cfg Config) Result {
	n := g.NumNodes()
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
	maxPasses := cfg.MaxPasses
	if maxPasses == 0 {
		maxPasses = DefaultMaxPasses
	}

	p := init.Clone()
	opt := &optimizer{g: g, cfg: cfg, maxAbs: maxAbsGain(g, cfg),
		passGains: make([]int64, 0, maxPasses)}

	passes := 0
	for passes < maxPasses {
		passes++
		if improved := opt.pass(p); !improved {
			break
		}
	}
	s := p.Stats(g)
	return Result{
		Partition: p,
		Objective: int64(s.CrossFriendships)*cfg.FriendWeight -
			int64(s.RejIntoSuspect)*cfg.RejectWeight,
		Stats:     s,
		Passes:    passes,
		Switches:  opt.switches,
		Rollbacks: opt.rollbacks,
		PassGains: opt.passGains,
	}
}

// maxAbsGain bounds any node's switch gain by its weighted degree. The
// bound depends only on degrees and weights — never on the partition — so
// it is computed once per (graph, config) rather than once per pass.
func maxAbsGain(g *graph.Graph, cfg Config) int64 {
	var maxAbs int64
	for u := 0; u < g.NumNodes(); u++ {
		wd := int64(g.Degree(graph.NodeID(u)))*cfg.FriendWeight +
			int64(g.InRejections(graph.NodeID(u))+g.OutRejections(graph.NodeID(u)))*cfg.RejectWeight
		if wd > maxAbs {
			maxAbs = wd
		}
	}
	return maxAbs
}

// Objective evaluates the fixed-point linear objective of partition p.
func Objective(g *graph.Graph, p graph.Partition, cfg Config) int64 {
	s := p.Stats(g)
	return int64(s.CrossFriendships)*cfg.FriendWeight -
		int64(s.RejIntoSuspect)*cfg.RejectWeight
}

type optimizer struct {
	g      *graph.Graph
	cfg    Config
	maxAbs int64 // per-graph gain bound, computed once by maxAbsGain

	// Trace counters surfaced through Result; see Result.Switches.
	switches  int
	rollbacks int
	passGains []int64
}

// pass performs one KL improvement pass over p in place, returning whether
// the objective strictly improved.
func (o *optimizer) pass(p graph.Partition) bool {
	g, cfg := o.g, o.cfg
	n := g.NumNodes()

	list := bucketlist.New(n, -o.maxAbs, o.maxAbs)
	for u := 0; u < n; u++ {
		if cfg.Pinned != nil && cfg.Pinned[u] {
			continue
		}
		list.Add(u, o.gain(p, graph.NodeID(u)))
	}

	// Tentatively switch free nodes in greedy max-gain order, recording
	// the sequence (Algorithm 1 lines 7–15), until the list drains or the
	// run of switches since the best prefix is fruitlessly long (see
	// Prefix). p is mutated as the tentative p_tmp and rolled back below.
	seq := make([]graph.NodeID, 0, list.Len())
	best := NewPrefix(list.Len())
	for {
		u, gu, ok := list.PopMax()
		if !ok {
			break
		}
		seq = append(seq, graph.NodeID(u))
		o.applySwitch(p, graph.NodeID(u), list)
		if best.Step(gu) {
			break
		}
	}

	// Keep the prefix with the largest positive cumulative gain (Algorithm
	// 1 line 18; ties take the shortest) and roll back the rest — all of
	// it when no prefix improved.
	o.switches += len(seq)
	o.rollbacks += len(seq) - best.Len
	o.passGains = append(o.passGains, best.Gain)
	for _, u := range seq[best.Len:] {
		p[u] = p[u].Other()
	}
	return best.Gain > 0
}

// gain returns the objective reduction achieved by switching u to the other
// region under partition p.
func (o *optimizer) gain(p graph.Partition, u graph.NodeID) int64 {
	g, cfg := o.g, o.cfg
	var gain int64
	pu := p[u]
	for _, v := range g.Friends(u) {
		if p[v] == pu {
			gain -= cfg.FriendWeight
		} else {
			gain += cfg.FriendWeight
		}
	}
	// Edges ⟨u, x⟩ (u rejected x's request) count only while u is Legit
	// and x is Suspect.
	for _, x := range g.Rejected(u) {
		if p[x] == graph.Suspect {
			if pu == graph.Legit {
				gain -= cfg.RejectWeight // switch un-counts the rejection
			} else {
				gain += cfg.RejectWeight // switch makes it count
			}
		}
	}
	// Edges ⟨x, u⟩ (x rejected u's request) count only while x is Legit
	// and u is Suspect.
	for _, x := range g.Rejecters(u) {
		if p[x] == graph.Legit {
			if pu == graph.Legit {
				gain += cfg.RejectWeight // switch makes it count
			} else {
				gain -= cfg.RejectWeight // switch un-counts the rejection
			}
		}
	}
	return gain
}

// applySwitch flips u in p and incrementally updates the bucket-list gains
// of u's still-free neighbours (Algorithm 1 line 14).
func (o *optimizer) applySwitch(p graph.Partition, u graph.NodeID, list bucketlist.List) {
	g, cfg := o.g, o.cfg
	oldPu := p[u]
	newPu := oldPu.Other()
	p[u] = newPu

	// Friendship (u, v): v's gain term for this edge is −w_F when v and u
	// share a region, +w_F otherwise; flipping u flips the term.
	for _, v := range g.Friends(u) {
		if !list.Contains(int(v)) {
			continue
		}
		if p[v] == newPu {
			list.Update(int(v), list.Gain(int(v))-2*cfg.FriendWeight)
		} else {
			list.Update(int(v), list.Gain(int(v))+2*cfg.FriendWeight)
		}
	}
	if cfg.RejectWeight == 0 {
		return
	}
	// Edge ⟨u, x⟩: from x's perspective a rejection cast on it by u. Its
	// contribution to gain(x) is nonzero only while u is Legit:
	// +w_R if x is Legit (switching x starts counting the edge),
	// −w_R if x is Suspect (switching x stops counting it).
	for _, x := range g.Rejected(u) {
		if !list.Contains(int(x)) {
			continue
		}
		delta := RejecterContrib(p[x], newPu, cfg.RejectWeight) -
			RejecterContrib(p[x], oldPu, cfg.RejectWeight)
		if delta != 0 {
			list.Update(int(x), list.Gain(int(x))+delta)
		}
	}
	// Edge ⟨x, u⟩: from x's perspective a rejection x cast on u. Its
	// contribution to gain(x) is nonzero only while u is Suspect:
	// −w_R if x is Legit, +w_R if x is Suspect.
	for _, x := range g.Rejecters(u) {
		if !list.Contains(int(x)) {
			continue
		}
		delta := RejectedContrib(p[x], newPu, cfg.RejectWeight) -
			RejectedContrib(p[x], oldPu, cfg.RejectWeight)
		if delta != 0 {
			list.Update(int(x), list.Gain(int(x))+delta)
		}
	}
}

// RejecterContrib is the contribution to gain(x) of a rejection edge
// ⟨rejecter, x⟩ cast on x, given the regions of x and the rejecter.
// Exported for the distributed engine, whose workers compute the same
// gains over graph shards.
func RejecterContrib(px, pRejecter graph.Region, wR int64) int64 {
	if pRejecter != graph.Legit {
		return 0
	}
	if px == graph.Legit {
		return wR
	}
	return -wR
}

// RejectedContrib is the contribution to gain(x) of a rejection edge
// ⟨x, target⟩ cast by x, given the regions of x and the target.
// Exported for the distributed engine; see RejecterContrib.
func RejectedContrib(px, pTarget graph.Region, wR int64) int64 {
	if pTarget != graph.Suspect {
		return 0
	}
	if px == graph.Legit {
		return -wR
	}
	return wR
}

// Validate checks the Config against a graph, returning a descriptive
// error instead of the panics Partition raises. Exported for callers that
// accept configs from flags or files.
func (cfg Config) Validate(g *graph.Graph) error {
	if cfg.FriendWeight <= 0 {
		return fmt.Errorf("kl: FriendWeight %d must be positive", cfg.FriendWeight)
	}
	if cfg.RejectWeight < 0 {
		return fmt.Errorf("kl: RejectWeight %d must be non-negative", cfg.RejectWeight)
	}
	if cfg.Pinned != nil && len(cfg.Pinned) != g.NumNodes() {
		return fmt.Errorf("kl: Pinned length %d != %d nodes", len(cfg.Pinned), g.NumNodes())
	}
	if cfg.MaxPasses < 0 {
		return fmt.Errorf("kl: MaxPasses %d must be non-negative", cfg.MaxPasses)
	}
	return nil
}
