package graph

import "fmt"

// FrozenParts is the raw CSR representation of a Frozen,
// exposed so the binary snapshot codec (internal/graphio) can serialize a
// snapshot without re-deriving the arrays edge by edge. The slices alias
// the snapshot's storage: callers must treat them as read-only.
type FrozenParts struct {
	// FriendOff/FriendDst: friends of u in FriendDst[FriendOff[u]:FriendOff[u+1]];
	// every undirected link appears in both endpoints' ranges.
	FriendOff []int32
	FriendDst []NodeID
	// RejInOff/RejInSrc: rejecters of u (edges ⟨x, u⟩).
	RejInOff []int32
	RejInSrc []NodeID
	// RejOutOff/RejOutDst: users u rejected (edges ⟨u, x⟩).
	RejOutOff []int32
	RejOutDst []NodeID

	NumFriendships int
	NumRejections  int
}

// Parts returns f's raw CSR arrays.
func (f *Frozen) Parts() FrozenParts {
	return FrozenParts{
		FriendOff: f.friendOff, FriendDst: f.friendDst,
		RejInOff: f.rejInOff, RejInSrc: f.rejInSrc,
		RejOutOff: f.rejOutOff, RejOutDst: f.rejOutDst,
		NumFriendships: f.numFriendships,
		NumRejections:  f.numRejections,
	}
}

// FrozenFromParts reassembles a Frozen from its raw CSR arrays, validating
// every structural invariant a decoder could violate: offset arrays must be
// equal-length, start at 0, be non-decreasing, and end at the length of
// their edge array; every stored ID must be in range; and the friendship /
// rejection totals must match the array lengths. The Frozen takes ownership
// of the slices.
func FrozenFromParts(p FrozenParts) (*Frozen, error) {
	if len(p.FriendOff) == 0 || len(p.FriendOff) != len(p.RejInOff) || len(p.FriendOff) != len(p.RejOutOff) {
		return nil, fmt.Errorf("graph: offset arrays have lengths %d/%d/%d, want equal and nonzero",
			len(p.FriendOff), len(p.RejInOff), len(p.RejOutOff))
	}
	n := len(p.FriendOff) - 1
	check := func(name string, off []int32, dst []NodeID) error {
		if off[0] != 0 {
			return fmt.Errorf("graph: %s offsets start at %d, want 0", name, off[0])
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return fmt.Errorf("graph: %s offsets decrease at node %d", name, i-1)
			}
		}
		if int(off[n]) != len(dst) {
			return fmt.Errorf("graph: %s offsets end at %d, want %d", name, off[n], len(dst))
		}
		for i, v := range dst {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: %s entry %d is node %d, outside [0, %d)", name, i, v, n)
			}
		}
		return nil
	}
	if err := check("friendship", p.FriendOff, p.FriendDst); err != nil {
		return nil, err
	}
	if err := check("rejection-in", p.RejInOff, p.RejInSrc); err != nil {
		return nil, err
	}
	if err := check("rejection-out", p.RejOutOff, p.RejOutDst); err != nil {
		return nil, err
	}
	if len(p.FriendDst)%2 != 0 || p.NumFriendships != len(p.FriendDst)/2 {
		return nil, fmt.Errorf("graph: %d friendship endpoints for a declared count of %d",
			len(p.FriendDst), p.NumFriendships)
	}
	if p.NumRejections != len(p.RejOutDst) || len(p.RejInSrc) != len(p.RejOutDst) {
		return nil, fmt.Errorf("graph: %d out / %d in rejection entries for a declared count of %d",
			len(p.RejOutDst), len(p.RejInSrc), p.NumRejections)
	}
	return &Frozen{
		friendOff: p.FriendOff, friendDst: p.FriendDst,
		rejInOff: p.RejInOff, rejInSrc: p.RejInSrc,
		rejOutOff: p.RejOutOff, rejOutDst: p.RejOutDst,
		numFriendships: p.NumFriendships,
		numRejections:  p.NumRejections,
	}, nil
}
