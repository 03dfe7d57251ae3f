package kl

import "repro/internal/graph"

// Config parameterizes one extended-KL optimization.
type Config struct {
	// FriendWeight is the fixed-point objective weight of a cross-cut
	// friendship (w_F). Must be positive.
	FriendWeight int64
	// RejectWeight is the fixed-point objective credit of a rejection
	// crossing from Legit into Suspect (w_R). Must be non-negative;
	// the effective ratio k of §IV-D is RejectWeight/FriendWeight.
	RejectWeight int64
	// Pinned marks seed nodes that must stay in their initial region.
	// May be nil (no seeds); otherwise len(Pinned) == f.NumNodes().
	Pinned []bool
	// MaxPasses bounds the number of KL passes. Zero means DefaultMaxPasses.
	// In practice KL converges in a handful of passes [Fiduccia 1982].
	MaxPasses int
}

// DefaultMaxPasses bounds KL passes when Config.MaxPasses is zero.
const DefaultMaxPasses = 40

// Result reports the outcome of a PartitionFrozen call.
type Result struct {
	Partition graph.Partition
	// Objective is the final fixed-point objective value
	// |F(Ū,U)|·w_F − |R⃗⟨Ū,U⟩|·w_R.
	Objective int64
	// Stats are the cut statistics of Partition, so callers scoring the
	// cut do not re-walk the graph. The pass maintains them incrementally
	// as nodes switch.
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
	EdgesScanned int64
	// PassGains is the best-gain trajectory: the best cumulative
	// objective reduction each pass found (the amount it kept after
	// rollback). Its length equals Passes, and the final entry is ≤ 0
	// exactly when the solve converged before MaxPasses. With a non-nil
	// Workspace the slice aliases workspace memory — valid until the next
	// call with the same Workspace; Clone to retain.
	PassGains []int64
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
