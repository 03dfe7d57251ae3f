package bucketlist

// List indexes nodes by integer gain and yields max-gain nodes.
//
// Node IDs must be in [0, n) where n is the capacity the list was built
// with, and each node may be present at most once.
type List interface {
	// Add inserts node with the given gain. It panics if node is already
	// present or out of range.
	Add(node int, gain int64)
	// Update changes the gain of a present node. It panics if absent.
	Update(node int, gain int64)
	// Remove deletes node if present, reporting whether it was.
	Remove(node int) bool
	// Contains reports whether node is present.
	Contains(node int) bool
	// Gain returns the current gain of a present node. It panics if absent.
	Gain(node int) int64
	// AdjustIfPresent adds delta to node's gain when node is present; an
	// absent node or a zero delta is a no-op. It is exactly equivalent to
	//
	//	if l.Contains(node) { l.Update(node, l.Gain(node)+delta) }
	//
	// fused into one call, since that triple is the inner loop of KL's
	// neighbour re-gain updates.
	AdjustIfPresent(node int, delta int64)
	// PopMax removes and returns a node with the maximum gain.
	// ok is false when the list is empty. Ties break toward the node most
	// recently inserted into its bucket (LIFO), the classic FM policy.
	PopMax() (node int, gain int64, ok bool)
	// Len reports the number of present nodes.
	Len() int
	// Reset empties the list and rebinds it to the given gain bounds,
	// reusing its memory: after Reset the list behaves exactly like a
	// freshly constructed one for the same node capacity. It allocates only
	// when a dense list's bucket range grows beyond any range it has held
	// before. Reset lets a KL workspace reuse one list across passes and
	// jobs instead of reallocating O(n + gain-range) each pass.
	Reset(minGain, maxGain int64)
}

// denseRangeLimit bounds the bucket count of the dense implementation:
// 4M buckets ≈ 16 MB of list heads.
const denseRangeLimit = 1 << 22

// PrefersDense reports whether New selects the dense implementation for
// the given gain bounds. Exported so that engines carrying their own
// specialized dense structure (package kl's workspace) can make the same
// choice New would, keeping tie-break behavior — and therefore results —
// identical across implementations.
func PrefersDense(minGain, maxGain int64) bool {
	return maxGain-minGain+1 <= denseRangeLimit
}

// New returns a List for nodes in [0, n) whose gains stay within
// [minGain, maxGain]. It selects the dense implementation when the gain
// range is affordable (at most denseRangeLimit buckets) and the sparse one
// otherwise.
func New(n int, minGain, maxGain int64) List {
	if maxGain < minGain {
		panic("bucketlist: maxGain < minGain")
	}
	if PrefersDense(minGain, maxGain) {
		return NewDense(n, minGain, maxGain)
	}
	return NewSparse(n)
}

// Renew returns a list for n nodes and the given gain bounds, reusing l's
// memory via Reset when l (possibly nil) has the same node capacity and the
// implementation New would select for the bounds. Callers holding a
// workspace use it instead of New to make steady-state passes allocation
// free.
func Renew(l List, n int, minGain, maxGain int64) List {
	if maxGain < minGain {
		panic("bucketlist: maxGain < minGain")
	}
	dense := PrefersDense(minGain, maxGain)
	switch impl := l.(type) {
	case *Dense:
		if dense && len(impl.next) == n {
			impl.Reset(minGain, maxGain)
			return impl
		}
	case *Sparse:
		if !dense && len(impl.in) == n {
			impl.Reset(minGain, maxGain)
			return impl
		}
	}
	return New(n, minGain, maxGain)
}
