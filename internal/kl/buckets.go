package kl

import "math/bits"

// denseBuckets is the frozen engine's private FM gain structure: the same
// bucket-array-of-LIFO-lists discipline as bucketlist.Dense — identical
// insertion, update, and max-pop tie-break order, which the cross-path
// property tests verify — rearranged for the memory system:
//
//   - Node state is an array of structs (next, prev, gain in one 12-byte
//     record), so relinking a node in the switching loop costs one cache
//     line instead of several scattered array reads.
//   - Membership lives in its own bitmap (n/8 bytes, L1-resident), so
//     probing a neighbour that has already been switched out — half of all
//     adjacency visits, averaged over a pass — never touches its node
//     record at all.
//   - Gains are int32. The structure is only used when the gain range fits
//     the dense bucket limit (≤ 2²² buckets, so |gain| ≤ 2²¹), exactly the
//     condition under which bucketlist.New picks Dense.
//   - An occupancy bitmap (one bit per bucket) turns the max-bucket scan
//     over mostly-empty heads — the dominant PopMax cost when the gain
//     range is much wider than the node count — into word-at-a-time skips.
//
// It is not an implementation of bucketlist.List: no panics, no bounds
// checks, int32 everywhere. The generic interface remains the pass's
// fallback for gain ranges too wide for dense buckets.
type denseBuckets struct {
	minGain   int32
	heads     []int32  // heads[b] = first node of bucket b, or -1
	occ       []uint64 // bit b set iff heads[b] >= 0
	nodes     []fmNode
	inBits    []uint64 // bit u set iff node u is present
	maxCursor int32    // highest bucket that may be occupied; -1 when fresh
	size      int
}

// fmNode is one node's intrusive list record.
type fmNode struct {
	next, prev int32
	gain       int32
}

// reset rebinds d to a node count and gain range, reusing storage. Like
// bucketlist.Dense.Reset it relies on the all-(-1) heads invariant: pops
// and unlinks restore emptied buckets, so a drained structure resets in
// O(1) and a partially-full one in O(present nodes).
func (d *denseBuckets) reset(n int, minGain, maxGain int64) {
	if d.size > 0 {
		for w, word := range d.inBits {
			for word != 0 {
				u := int32(w<<6 | bits.TrailingZeros64(word))
				word &= word - 1
				d.unlink(&d.nodes[u])
			}
			d.inBits[w] = 0
		}
		d.size = 0
	}
	buckets := maxGain - minGain + 1
	if buckets > int64(len(d.heads)) {
		d.heads = make([]int32, buckets)
		for i := range d.heads {
			d.heads[i] = -1
		}
		d.occ = make([]uint64, (buckets+63)/64)
	}
	if n > len(d.nodes) {
		d.nodes = make([]fmNode, n)
		d.inBits = make([]uint64, (n+63)/64)
	}
	d.minGain = int32(minGain)
	d.maxCursor = -1
}

// present reports whether node is in the structure. It reads only the
// membership bitmap, never the node record.
func (d *denseBuckets) present(node int32) bool {
	return d.inBits[node>>6]>>(uint(node)&63)&1 != 0
}

// add inserts node with the given gain (LIFO within its bucket).
func (d *denseBuckets) add(node int32, gain int64) {
	nd := &d.nodes[node]
	nd.gain = int32(gain)
	d.inBits[node>>6] |= 1 << (uint(node) & 63)
	d.push(node, nd, int32(gain)-d.minGain)
	d.size++
}

// relink adds delta to node's gain and moves it to the front of its new
// bucket — Update semantics for a node the caller has checked is present
// (see present) with a non-zero delta.
func (d *denseBuckets) relink(node int32, delta int64) {
	nd := &d.nodes[node]
	d.unlink(nd)
	g := nd.gain + int32(delta)
	nd.gain = g
	d.push(node, nd, g-d.minGain)
}

// popMax removes and returns a node with maximum gain, ties to the node
// most recently pushed into its bucket.
func (d *denseBuckets) popMax() (node int32, gain int64, ok bool) {
	if d.size == 0 {
		return 0, 0, false
	}
	b := d.maxCursor
	if d.heads[b] < 0 {
		// Bitmap scan: skip 64 empty buckets per word.
		w := int(b >> 6)
		x := d.occ[w] & (^uint64(0) >> (63 - uint(b)&63))
		for x == 0 {
			w--
			x = d.occ[w]
		}
		b = int32(w<<6 | (63 - bits.LeadingZeros64(x)))
		d.maxCursor = b
	}
	n := d.heads[b]
	nd := &d.nodes[n]
	nx := nd.next
	d.heads[b] = nx
	if nx >= 0 {
		d.nodes[nx].prev = -1
	} else {
		d.occ[b>>6] &^= 1 << (uint(b) & 63)
	}
	d.inBits[n>>6] &^= 1 << (uint(n) & 63)
	d.size--
	return n, int64(nd.gain), true
}

// push prepends node to bucket b.
func (d *denseBuckets) push(node int32, nd *fmNode, b int32) {
	head := d.heads[b]
	nd.next = head
	nd.prev = -1
	if head >= 0 {
		d.nodes[head].prev = node
	} else {
		d.occ[b>>6] |= 1 << (uint(b) & 63)
	}
	d.heads[b] = node
	if b > d.maxCursor {
		d.maxCursor = b
	}
}

// unlink removes nd from its bucket without clearing membership.
func (d *denseBuckets) unlink(nd *fmNode) {
	b := nd.gain - d.minGain
	nx, pv := nd.next, nd.prev
	if pv >= 0 {
		d.nodes[pv].next = nx
	} else {
		d.heads[b] = nx
		if nx < 0 {
			d.occ[b>>6] &^= 1 << (uint(b) & 63)
		}
	}
	if nx >= 0 {
		d.nodes[nx].prev = pv
	}
}
