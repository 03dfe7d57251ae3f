package graphio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// Versioned binary codec for graph.Frozen CSR snapshots, used by the
// durable storage engine (internal/storage) to persist each epoch's read
// model and the incremental engine's per-interval snapshots. The format
// stores the six CSR arrays verbatim, so a decode is a header read plus six
// bulk reads — no canonicalization, no sorting, no re-freeze.
//
// Both directions consume exactly the encoded bytes and no more, so the
// codec composes inside larger streams (the storage snapshot file nests
// frozen blobs between other sections).
//
// Layout (all little-endian):
//
//	magic    [8]byte  "REJFRZN1"
//	version  uint32   currently 1
//	nodes    uint32
//	nFriend  uint32   |F| (distinct links)
//	nRej     uint32   |R⃗| (distinct directed edges)
//	friendOff, rejInOff, rejOutOff   (nodes+1) × int32 each
//	friendDst  2·nFriend × uint32
//	rejInSrc   nRej × uint32
//	rejOutDst  nRej × uint32

var frozenMagic = [8]byte{'R', 'E', 'J', 'F', 'R', 'Z', 'N', '1'}

// frozenVersion is the current codec version. Decoders reject versions they
// do not know; bumping it is how a future layout change stays detectable.
const frozenVersion = 1

// WriteFrozen serializes f in the versioned binary snapshot format.
func WriteFrozen(w io.Writer, f *graph.Frozen) error {
	p := f.Parts()
	hdr := make([]byte, 8+16)
	copy(hdr, frozenMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], frozenVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.NumNodes()))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(p.NumFriendships))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(p.NumRejections))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	// Each array is encoded into one contiguous buffer and written in a
	// single call: recovery speed is the whole point of this format.
	var buf []byte
	writeInt32s := func(vals []int32) error {
		if cap(buf) < 4*len(vals) {
			buf = make([]byte, 4*len(vals))
		}
		b := buf[:4*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		_, err := w.Write(b)
		return err
	}
	writeIDs := func(ids []graph.NodeID) error {
		if cap(buf) < 4*len(ids) {
			buf = make([]byte, 4*len(ids))
		}
		b := buf[:4*len(ids)]
		for i, v := range ids {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		_, err := w.Write(b)
		return err
	}
	for _, off := range [][]int32{p.FriendOff, p.RejInOff, p.RejOutOff} {
		if err := writeInt32s(off); err != nil {
			return err
		}
	}
	for _, ids := range [][]graph.NodeID{p.FriendDst, p.RejInSrc, p.RejOutDst} {
		if err := writeIDs(ids); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrozen parses a binary snapshot, validating the CSR invariants
// (graph.FrozenFromParts) so a truncated or corrupted stream surfaces as an
// error instead of a panic downstream. It reads exactly the encoded bytes
// from r.
func ReadFrozen(r io.Reader) (*graph.Frozen, error) {
	hdr := make([]byte, 8+16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("graphio: frozen header: %w", err)
	}
	if string(hdr[:8]) != string(frozenMagic[:]) {
		return nil, fmt.Errorf("graphio: bad frozen magic %q", hdr[:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:])
	if version != frozenVersion {
		return nil, fmt.Errorf("graphio: frozen snapshot version %d, this build reads %d", version, frozenVersion)
	}
	nodes := binary.LittleEndian.Uint32(hdr[12:])
	nFriend := binary.LittleEndian.Uint32(hdr[16:])
	nRej := binary.LittleEndian.Uint32(hdr[20:])
	if nodes > math.MaxInt32 || nFriend > math.MaxInt32/2 || nRej > math.MaxInt32 {
		return nil, fmt.Errorf("graphio: frozen header counts %d/%d/%d overflow int32", nodes, nFriend, nRej)
	}

	readInt32s := func(n int) ([]int32, error) {
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return out, nil
	}
	readIDs := func(n int) ([]graph.NodeID, error) {
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return out, nil
	}

	var p graph.FrozenParts
	p.NumFriendships = int(nFriend)
	p.NumRejections = int(nRej)
	var err error
	if p.FriendOff, err = readInt32s(int(nodes) + 1); err != nil {
		return nil, fmt.Errorf("graphio: frozen friendship offsets: %w", err)
	}
	if p.RejInOff, err = readInt32s(int(nodes) + 1); err != nil {
		return nil, fmt.Errorf("graphio: frozen rejection-in offsets: %w", err)
	}
	if p.RejOutOff, err = readInt32s(int(nodes) + 1); err != nil {
		return nil, fmt.Errorf("graphio: frozen rejection-out offsets: %w", err)
	}
	if p.FriendDst, err = readIDs(2 * int(nFriend)); err != nil {
		return nil, fmt.Errorf("graphio: frozen friendship adjacency: %w", err)
	}
	if p.RejInSrc, err = readIDs(int(nRej)); err != nil {
		return nil, fmt.Errorf("graphio: frozen rejection-in adjacency: %w", err)
	}
	if p.RejOutDst, err = readIDs(int(nRej)); err != nil {
		return nil, fmt.Errorf("graphio: frozen rejection-out adjacency: %w", err)
	}
	f, err := graph.FrozenFromParts(p)
	if err != nil {
		return nil, fmt.Errorf("graphio: frozen snapshot invalid: %w", err)
	}
	return f, nil
}
