package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// SpliceCanonical returns the canonical CSR snapshot of the graph obtained
// by adding newNodes isolated nodes, the undirected friendship pairs, and
// the directed rejection edges ⟨from, to⟩ to the graph f snapshots.
//
// f must itself be canonical — every adjacency range ascending, the order
// FreezeCanonical produces — and the result is then guaranteed to be
// byte-identical to FreezeCanonical of the equivalent mutable graph: the
// incremental epoch engine (internal/incr) leans on that identity to keep
// patched and cold-built snapshots interchangeable. Edges already present
// in f and duplicates within the batch are ignored, exactly as
// Graph.AddFriendship / Graph.AddRejection collapse them.
//
// Cost: the three edge arrays are rebuilt with one bulk copy each, but only
// the adjacency ranges of nodes named by the batch are merged edge by edge —
// everything between two touched nodes moves with a single copy. Self-edges
// and out-of-range endpoints panic, mirroring the mutable graph.
func (f *Frozen) SpliceCanonical(newNodes int, friendships, rejections [][2]NodeID) *Frozen {
	if newNodes < 0 {
		panic(fmt.Sprintf("graph: negative newNodes %d", newNodes))
	}
	nOld := f.NumNodes()
	n := nOld + newNodes
	check := func(e [2]NodeID, kind string) {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			panic(fmt.Sprintf("graph: splice %s %d–%d out of range [0, %d)", kind, e[0], e[1], n))
		}
		if e[0] == e[1] {
			panic(fmt.Sprintf("graph: splice self-%s at node %d", kind, e[0]))
		}
	}

	// Friendships: each surviving pair contributes one entry to both
	// endpoints' ranges. Membership is checked against f's sorted range, so
	// both directions of a pair reach the same verdict.
	friendAdd := make(map[NodeID][]NodeID)
	for _, e := range friendships {
		check(e, "friendship")
		friendAdd[e[0]] = append(friendAdd[e[0]], e[1])
		friendAdd[e[1]] = append(friendAdd[e[1]], e[0])
	}
	friendTotal := 0
	for u := range friendAdd {
		friendAdd[u] = compactAdds(friendAdd[u], f.csrRange(f.friendOff, f.friendDst, u, nOld))
		if len(friendAdd[u]) == 0 {
			delete(friendAdd, u)
			continue
		}
		friendTotal += len(friendAdd[u])
	}

	// Rejections: ⟨from, to⟩ lands in rejOut[from] and rejIn[to]; the two
	// sides are checked against the matching stored direction, so they
	// agree on what survives.
	rejOutAdd := make(map[NodeID][]NodeID)
	rejInAdd := make(map[NodeID][]NodeID)
	for _, e := range rejections {
		check(e, "rejection")
		rejOutAdd[e[0]] = append(rejOutAdd[e[0]], e[1])
		rejInAdd[e[1]] = append(rejInAdd[e[1]], e[0])
	}
	rejTotal := 0
	for u := range rejOutAdd {
		rejOutAdd[u] = compactAdds(rejOutAdd[u], f.csrRange(f.rejOutOff, f.rejOutDst, u, nOld))
		if len(rejOutAdd[u]) == 0 {
			delete(rejOutAdd, u)
			continue
		}
		rejTotal += len(rejOutAdd[u])
	}
	for u := range rejInAdd {
		rejInAdd[u] = compactAdds(rejInAdd[u], f.csrRange(f.rejInOff, f.rejInSrc, u, nOld))
		if len(rejInAdd[u]) == 0 {
			delete(rejInAdd, u)
		}
	}

	if e := len(f.friendDst) + friendTotal; e > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d friendship endpoints overflow int32 CSR offsets", e))
	}

	out := &Frozen{
		numFriendships: f.numFriendships + friendTotal/2,
		numRejections:  f.numRejections + rejTotal,
	}
	out.friendOff, out.friendDst = spliceCSR(f.friendOff, f.friendDst, nOld, n, friendAdd)
	out.rejOutOff, out.rejOutDst = spliceCSR(f.rejOutOff, f.rejOutDst, nOld, n, rejOutAdd)
	out.rejInOff, out.rejInSrc = spliceCSR(f.rejInOff, f.rejInSrc, nOld, n, rejInAdd)
	return out
}

// csrRange is the adjacency range of u in one of f's relations; empty for
// nodes beyond the snapshot (the batch's new nodes).
func (f *Frozen) csrRange(off []int32, dst []NodeID, u NodeID, nOld int) []NodeID {
	if int(u) >= nOld {
		return nil
	}
	return dst[off[u]:off[u+1]]
}

// compactAdds sorts one node's pending additions, drops duplicates within
// the batch, and drops entries already present in the node's existing
// (sorted) adjacency range.
func compactAdds(adds, existing []NodeID) []NodeID {
	slices.Sort(adds)
	adds = slices.Compact(adds)
	kept := adds[:0]
	for _, v := range adds {
		if _, found := slices.BinarySearch(existing, v); !found {
			kept = append(kept, v)
		}
	}
	return kept
}

// spliceCSR rebuilds one CSR relation with adds merged in. adds maps each
// touched node to its sorted, deduplicated, not-already-present additions;
// untouched stretches of the edge array move with bulk copies.
func spliceCSR(off []int32, dst []NodeID, nOld, n int, adds map[NodeID][]NodeID) ([]int32, []NodeID) {
	touched := make([]NodeID, 0, len(adds))
	total := 0
	for u, list := range adds {
		touched = append(touched, u)
		total += len(list)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })

	// Offsets: the old offset (saturated at the old tail for new nodes)
	// plus the cumulative insertion shift; runs between touched nodes take
	// a straight add, no per-node map lookups.
	newOff := make([]int32, n+1)
	oldOff := func(u int) int32 {
		if u <= nOld {
			return off[u]
		}
		return off[nOld]
	}
	shift := int32(0)
	next := 0
	for _, u := range touched {
		for i := next; i <= int(u); i++ {
			newOff[i] = oldOff(i) + shift
		}
		shift += int32(len(adds[u]))
		next = int(u) + 1
	}
	for i := next; i <= n; i++ {
		newOff[i] = oldOff(i) + shift
	}

	newDst := make([]NodeID, len(dst)+total)
	pos, srcPos := 0, 0
	for _, u := range touched {
		lo, hi := len(dst), len(dst)
		if int(u) < nOld {
			lo, hi = int(off[u]), int(off[u+1])
		}
		pos += copy(newDst[pos:], dst[srcPos:lo])
		pos = mergeSorted(newDst, pos, dst[lo:hi], adds[u])
		srcPos = hi
	}
	copy(newDst[pos:], dst[srcPos:])
	return newOff, newDst
}

// mergeSorted merges two ascending lists into out starting at pos and
// returns the new position. a and b are disjoint by construction
// (compactAdds removed b's entries already present in a).
func mergeSorted(out []NodeID, pos int, a, b []NodeID) int {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out[pos] = a[0]
			a = a[1:]
		} else {
			out[pos] = b[0]
			b = b[1:]
		}
		pos++
	}
	pos += copy(out[pos:], a)
	pos += copy(out[pos:], b)
	return pos
}

// Equal reports whether f and g are structurally identical snapshots: the
// same offset and edge arrays, entry for entry. This is the byte-identity
// relation the incremental engine's property tests assert between a
// patched snapshot and a cold FreezeCanonical rebuild.
func (f *Frozen) Equal(g *Frozen) bool {
	return f.numFriendships == g.numFriendships &&
		f.numRejections == g.numRejections &&
		slices.Equal(f.friendOff, g.friendOff) &&
		slices.Equal(f.friendDst, g.friendDst) &&
		slices.Equal(f.rejInOff, g.rejInOff) &&
		slices.Equal(f.rejInSrc, g.rejInSrc) &&
		slices.Equal(f.rejOutOff, g.rejOutOff) &&
		slices.Equal(f.rejOutDst, g.rejOutDst)
}
