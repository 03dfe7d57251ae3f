package graph

import (
	"fmt"
	"math"
	"slices"
)

// Frozen is an immutable compressed-sparse-row (CSR) snapshot of a Graph.
//
// Each of the three adjacency relations — friendships, incoming rejections,
// outgoing rejections — is stored as a flat edge array indexed by a flat
// offset array: the neighbours of node u live in edges[off[u]:off[u+1]].
// Compared with the mutable Graph's slice-of-slices layout this removes one
// pointer dereference per node, packs all adjacency contiguously (a full
// scan is a single sequential sweep), and makes the whole structure three
// pairs of arrays — cheap to share between the sweep workers of
// core.FindMAARCut and trivially safe for concurrent reads.
//
// Freeze is the intended entry point for read-only detection workloads:
// build the graph once, Freeze it, and run every cut search and detection
// round on the snapshot.
type Frozen struct {
	friendOff []int32  // len n+1; friends of u in friendDst[friendOff[u]:friendOff[u+1]]
	friendDst []NodeID // 2·|F| entries, each link stored in both directions
	rejInOff  []int32  // len n+1; rejecters of u (edges ⟨x, u⟩)
	rejInSrc  []NodeID
	rejOutOff []int32 // len n+1; users u rejected (edges ⟨u, x⟩)
	rejOutDst []NodeID

	numFriendships int // |F| (distinct links; see NumFriendships)
	numRejections  int // |R⃗| (distinct directed edges)
}

// Freeze returns an immutable CSR snapshot of g. The snapshot preserves the
// per-node adjacency order of g exactly, so algorithms whose tie-breaking
// depends on iteration order (extended KL's bucket updates) produce
// byte-identical results on the snapshot and on g.
func (g *Graph) Freeze() *Frozen {
	n := g.NumNodes()
	if e := 2 * g.numFriendships; e > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d friendship endpoints overflow int32 CSR offsets", e))
	}
	f := &Frozen{
		friendOff:      make([]int32, n+1),
		friendDst:      make([]NodeID, 0, 2*g.numFriendships),
		rejInOff:       make([]int32, n+1),
		rejInSrc:       make([]NodeID, 0, g.numRejections),
		rejOutOff:      make([]int32, n+1),
		rejOutDst:      make([]NodeID, 0, g.numRejections),
		numFriendships: g.numFriendships,
		numRejections:  g.numRejections,
	}
	for u := 0; u < n; u++ {
		f.friendDst = append(f.friendDst, g.friends[u]...)
		f.friendOff[u+1] = int32(len(f.friendDst))
		f.rejInSrc = append(f.rejInSrc, g.rejIn[u]...)
		f.rejInOff[u+1] = int32(len(f.rejInSrc))
		f.rejOutDst = append(f.rejOutDst, g.rejOut[u]...)
		f.rejOutOff[u+1] = int32(len(f.rejOutDst))
	}
	return f
}

// NumNodes reports |V|.
func (f *Frozen) NumNodes() int { return len(f.friendOff) - 1 }

// NumFriendships reports |F|, counting each undirected link once.
func (f *Frozen) NumFriendships() int { return f.numFriendships }

// NumRejections reports |R⃗|.
func (f *Frozen) NumRejections() int { return f.numRejections }

func (f *Frozen) checkNode(u NodeID) {
	if u < 0 || int(u) >= f.NumNodes() {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", u, f.NumNodes()))
	}
}

// Friends returns the friendship neighbours of u, in the same order as the
// source graph. The slice aliases the snapshot's storage: callers must not
// mutate it.
func (f *Frozen) Friends(u NodeID) []NodeID {
	f.checkNode(u)
	return f.friendDst[f.friendOff[u]:f.friendOff[u+1]]
}

// Rejecters returns the users that cast a rejection on u (edges ⟨x, u⟩).
// The slice aliases the snapshot's storage.
func (f *Frozen) Rejecters(u NodeID) []NodeID {
	f.checkNode(u)
	return f.rejInSrc[f.rejInOff[u]:f.rejInOff[u+1]]
}

// Rejected returns the users u cast a rejection on (edges ⟨u, x⟩).
// The slice aliases the snapshot's storage.
func (f *Frozen) Rejected(u NodeID) []NodeID {
	f.checkNode(u)
	return f.rejOutDst[f.rejOutOff[u]:f.rejOutOff[u+1]]
}

// Degree reports the number of friendship links incident to u.
func (f *Frozen) Degree(u NodeID) int {
	f.checkNode(u)
	return int(f.friendOff[u+1] - f.friendOff[u])
}

// InRejections reports the number of rejections cast on u.
func (f *Frozen) InRejections(u NodeID) int {
	f.checkNode(u)
	return int(f.rejInOff[u+1] - f.rejInOff[u])
}

// OutRejections reports the number of rejections cast by u.
func (f *Frozen) OutRejections(u NodeID) int {
	f.checkNode(u)
	return int(f.rejOutOff[u+1] - f.rejOutOff[u])
}

// HasFriendship reports whether the undirected link (u, v) exists.
func (f *Frozen) HasFriendship(u, v NodeID) bool {
	f.checkNode(u)
	f.checkNode(v)
	a, b := u, v
	if f.Degree(a) > f.Degree(b) {
		a, b = b, a
	}
	return slices.Contains(f.Friends(a), b)
}

// HasRejection reports whether the rejection edge ⟨from, to⟩ exists.
func (f *Frozen) HasRejection(from, to NodeID) bool {
	f.checkNode(from)
	f.checkNode(to)
	if f.OutRejections(from) <= f.InRejections(to) {
		return slices.Contains(f.Rejected(from), to)
	}
	return slices.Contains(f.Rejecters(to), from)
}

// Acceptance returns u's individual request acceptance estimate f/(f+r);
// see (*Graph).Acceptance.
func (f *Frozen) Acceptance(u NodeID) float64 {
	fr, r := f.Degree(u), f.InRejections(u)
	if fr+r == 0 {
		return 1
	}
	return float64(fr) / float64(fr+r)
}

// ForEachFriendship calls fn once per undirected link with u < v.
func (f *Frozen) ForEachFriendship(fn func(u, v NodeID)) {
	for u := 0; u < f.NumNodes(); u++ {
		for _, v := range f.Friends(NodeID(u)) {
			if NodeID(u) < v {
				fn(NodeID(u), v)
			}
		}
	}
}

// ForEachRejection calls fn once per directed rejection edge ⟨from, to⟩.
func (f *Frozen) ForEachRejection(fn func(from, to NodeID)) {
	for u := 0; u < f.NumNodes(); u++ {
		for _, v := range f.Rejected(NodeID(u)) {
			fn(NodeID(u), v)
		}
	}
}

// Stats computes the cut statistics of partition p over the snapshot,
// exactly as Partition.Stats does over the mutable graph.
// p must have length f.NumNodes().
func (f *Frozen) Stats(p Partition) CutStats {
	if len(p) != f.NumNodes() {
		panic("graph: partition length mismatch")
	}
	var s CutStats
	for u, r := range p {
		if r == Suspect {
			s.SuspectSize++
		} else {
			s.LegitSize++
		}
		for _, v := range f.friendDst[f.friendOff[u]:f.friendOff[u+1]] {
			if NodeID(u) < v && p[v] != r {
				s.CrossFriendships++
			}
		}
		for _, v := range f.rejOutDst[f.rejOutOff[u]:f.rejOutOff[u+1]] {
			switch {
			case r == Legit && p[v] == Suspect:
				s.RejIntoSuspect++
			case r == Suspect && p[v] == Legit:
				s.RejIntoLegit++
			}
		}
	}
	return s
}

// Subgraph returns the induced CSR subgraph on the nodes where keep[u] is
// true, together with origIDs mapping each new node ID back to its ID in f.
// It is the pruning step of iterative detection (§IV-E) run natively on the
// snapshot: two counting passes size the new arrays exactly, so no
// per-node reallocation happens.
//
// The adjacency order of the result matches (*Graph).Subgraph on the
// equivalent mutable graph edge for edge, keeping the two pruning paths
// byte-identical for order-sensitive consumers.
//
// keep must have length f.NumNodes().
func (f *Frozen) Subgraph(keep []bool) (sub *Frozen, origIDs []NodeID) {
	n := f.NumNodes()
	if len(keep) != n {
		panic("graph: Subgraph keep length mismatch")
	}
	newID := make([]NodeID, n)
	kept := 0
	for u := 0; u < n; u++ {
		if keep[u] {
			newID[u] = NodeID(kept)
			kept++
		} else {
			newID[u] = -1
		}
	}
	origIDs = make([]NodeID, kept)
	for u := 0; u < n; u++ {
		if keep[u] {
			origIDs[newID[u]] = NodeID(u)
		}
	}

	sub = &Frozen{
		friendOff: make([]int32, kept+1),
		rejInOff:  make([]int32, kept+1),
		rejOutOff: make([]int32, kept+1),
	}

	// Pass 1: count surviving edges per new node (offsets hold counts,
	// shifted by one, then prefix-summed).
	for _, origU := range origIDs {
		u := newID[origU]
		for _, origV := range f.Friends(origU) {
			if newID[origV] >= 0 {
				sub.friendOff[u+1]++
			}
		}
		for _, origV := range f.Rejected(origU) {
			if v := newID[origV]; v >= 0 {
				sub.rejOutOff[u+1]++
				sub.rejInOff[v+1]++
				sub.numRejections++
			}
		}
	}
	for i := 0; i < kept; i++ {
		sub.friendOff[i+1] += sub.friendOff[i]
		sub.rejInOff[i+1] += sub.rejInOff[i]
		sub.rejOutOff[i+1] += sub.rejOutOff[i]
	}
	sub.friendDst = make([]NodeID, sub.friendOff[kept])
	sub.rejInSrc = make([]NodeID, sub.rejInOff[kept])
	sub.rejOutDst = make([]NodeID, sub.rejOutOff[kept])
	sub.numFriendships = len(sub.friendDst) / 2

	// Pass 2: fill. Mirroring (*Graph).Subgraph, each surviving friendship
	// is placed from its low-new-ID endpoint into both endpoints' ranges,
	// and each rejection from its caster, so adjacency order matches the
	// mutable path exactly.
	friendCur := make([]int32, kept)
	rejInCur := make([]int32, kept)
	copy(friendCur, sub.friendOff[:kept])
	copy(rejInCur, sub.rejInOff[:kept])
	for _, origU := range origIDs {
		u := newID[origU]
		rejOutPos := sub.rejOutOff[u]
		for _, origV := range f.Friends(origU) {
			if v := newID[origV]; v >= 0 && u < v {
				sub.friendDst[friendCur[u]] = v
				friendCur[u]++
				sub.friendDst[friendCur[v]] = u
				friendCur[v]++
			}
		}
		for _, origV := range f.Rejected(origU) {
			if v := newID[origV]; v >= 0 {
				sub.rejOutDst[rejOutPos] = v
				rejOutPos++
				sub.rejInSrc[rejInCur[v]] = u
				rejInCur[v]++
			}
		}
	}
	return sub, origIDs
}
