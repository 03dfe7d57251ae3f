package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Seeds carries the OSN provider's prior knowledge: a small set of users
// manually verified as legitimate or as friend spammers (§III-B, §IV-F).
// Seeds are pinned to their region during partitioning, ruling out the
// spurious low-ratio cuts inside the legitimate region that would otherwise
// cause false positives.
type Seeds struct {
	Legit   []graph.NodeID
	Spammer []graph.NodeID
}

// Empty reports whether no seeds are configured.
func (s Seeds) Empty() bool { return len(s.Legit) == 0 && len(s.Spammer) == 0 }

// CutOptions parameterizes a single MAAR cut search.
type CutOptions struct {
	// KMin and KMax bound the geometric sweep over the friends-to-
	// rejections ratio k of §IV-D. Defaults: [1/32, 32].
	KMin, KMax float64
	// KFactor is the geometric step between successive k values.
	// Default: 1.5.
	KFactor float64
	// WeightScale converts k into integral edge weights for the bucket
	// list: friendships weigh WeightScale, rejections round(k·WeightScale).
	// Default: 64.
	WeightScale int64
	// Seeds pins known users to their regions.
	Seeds Seeds
	// Restarts adds that many random initial partitions per k on top of
	// the acceptance-heuristic initialization; the best cut across all
	// starts wins. Default: 0.
	Restarts int
	// MaxPasses caps KL passes per (k, start). Zero uses kl's default.
	MaxPasses int
	// Parallelism is the number of goroutines solving the sweep's
	// independent (k, init) jobs. Zero means GOMAXPROCS. The result is
	// identical at any parallelism: the reduction is deterministic.
	Parallelism int
	// RandSeed makes the run reproducible. The zero value is a valid seed.
	RandSeed uint64
	// Multilevel has no effect: every sweep runs flat.
	//
	// Deprecated: the multilevel ladder it selected is removed. Only the
	// frozen benchmark module (bench/) still sets it. Drop it there, then
	// delete the field (ROADMAP item 1(g)).
	Multilevel bool
	// WarmInit, when non-nil, replaces the standard initial partitions
	// (acceptance heuristic plus Restarts random starts) with this single
	// partition: every (k, init) job starts KL from it, with seeds still
	// pre-placed. The incremental epoch engine (internal/incr) threads the
	// previous epoch's converged cut through here so the sweep resumes
	// near the old optimum instead of rediscovering it. Length must equal
	// the graph's node count.
	WarmInit graph.Partition
	// Tracer receives structured sweep events (obs.EvSweepStart, one
	// obs.EvSolveDone per KL solve, obs.EvSweepDone). nil disables
	// tracing at zero cost: no events are built and the hot path reads
	// no clocks. Tracing never changes the returned cut.
	Tracer obs.Tracer
	// TraceRound tags this sweep's events with a 1-based detection round
	// for correlation; Detect stamps it automatically. Zero means the
	// sweep runs outside any round.
	TraceRound int
}

// Default sweep and scaling constants for CutOptions.
const (
	DefaultKMin        = 1.0 / 32
	DefaultKMax        = 32.0
	DefaultKFactor     = 1.5
	DefaultWeightScale = 64
)

// WithDefaults returns a copy of o with zero fields replaced by the
// package defaults.
func (o CutOptions) WithDefaults() CutOptions {
	if o.KMin <= 0 {
		o.KMin = DefaultKMin
	}
	if o.KMax <= 0 {
		o.KMax = DefaultKMax
	}
	if o.KFactor <= 1 {
		o.KFactor = DefaultKFactor
	}
	if o.WeightScale <= 0 {
		o.WeightScale = DefaultWeightScale
	}
	return o
}

// KGrid returns the geometric k grid of the MAAR sweep (§IV-D) for o with
// defaults applied. Each grid point is derived from an integer exponent —
// KMin·KFactor^i — rather than by accumulating k *= KFactor, so rounding
// error does not compound across the grid and the KMax inclusion guard
// cannot include or drop the last point platform-dependently.
func (o CutOptions) KGrid() []float64 {
	o = o.WithDefaults()
	points := 0
	for o.KMin*math.Pow(o.KFactor, float64(points)) <= o.KMax*(1+1e-9) {
		points++
	}
	grid := make([]float64, points)
	for i := range grid {
		grid[i] = o.KMin * math.Pow(o.KFactor, float64(i))
	}
	return grid
}

// Validate reports configuration errors in o relative to graph g.
func (o CutOptions) Validate(g *graph.Graph) error { return o.validate(g.NumNodes()) }

// validate is Validate against a bare node count, shared with the frozen
// snapshot path.
func (o CutOptions) validate(numNodes int) error {
	o = o.WithDefaults()
	if o.KMin > o.KMax {
		return fmt.Errorf("core: KMin %v > KMax %v", o.KMin, o.KMax)
	}
	if math.Round(o.KMin*float64(o.WeightScale)) < 1 {
		return fmt.Errorf("core: KMin %v rounds to zero at weight scale %d", o.KMin, o.WeightScale)
	}
	n := graph.NodeID(numNodes)
	for _, u := range o.Seeds.Legit {
		if u < 0 || u >= n {
			return fmt.Errorf("core: legit seed %d out of range", u)
		}
	}
	for _, u := range o.Seeds.Spammer {
		if u < 0 || u >= n {
			return fmt.Errorf("core: spammer seed %d out of range", u)
		}
	}
	if o.Restarts < 0 {
		return fmt.Errorf("core: negative Restarts %d", o.Restarts)
	}
	if o.WarmInit != nil && len(o.WarmInit) != numNodes {
		return fmt.Errorf("core: WarmInit length %d != %d nodes", len(o.WarmInit), numNodes)
	}
	return nil
}

// Cut is the result of one MAAR search.
type Cut struct {
	// Partition labels every node; the Suspect region is the detected
	// spammer-candidate group.
	Partition graph.Partition
	// Stats are the cut statistics of Partition.
	Stats graph.CutStats
	// K is the sweep value whose linear objective produced the cut.
	K float64
	// Acceptance is Stats.AcceptanceOfSuspect(), the aggregate acceptance
	// rate of the suspect region's outgoing requests.
	Acceptance float64
}
