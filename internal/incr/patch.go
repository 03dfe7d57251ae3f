package incr

import "repro/internal/graph"

// DefaultMaxPatchFraction is the delta-to-graph edge ratio above which the
// engine rebuilds a snapshot cold instead of patching: splicing walks the
// full CSR arrays once regardless of delta size, but its per-edge merge
// work and the patch's usefulness as a "small change" both degrade as the
// delta approaches the graph itself.
const DefaultMaxPatchFraction = 0.25

// Patch splices the delta's edges (base edges plus request-derived edges,
// see Delta.Edges) and new nodes into the canonical snapshot prev. The
// result is byte-identical to FreezeCanonical of the equivalent mutable
// graph with the delta folded in — the property the package's tests assert
// over hundreds of random delta sequences.
func Patch(prev *graph.Frozen, d Delta) *graph.Frozen {
	friendships, rejections := d.Edges()
	return prev.SpliceCanonical(d.NewNodes, friendships, rejections)
}

// ShouldPatch reports whether d is small enough, relative to prev
// (DefaultMaxPatchFraction of its edges), to splice rather than rebuild
// cold. A nil prev always rebuilds.
func ShouldPatch(prev *graph.Frozen, d Delta) bool {
	if prev == nil {
		return false
	}
	existing := prev.NumFriendships() + prev.NumRejections()
	return float64(d.EdgeCount()) <= DefaultMaxPatchFraction*float64(existing)
}
