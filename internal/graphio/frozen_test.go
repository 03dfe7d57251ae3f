package graphio

import (
	"bytes"
	"io"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// randomFrozen freezes a random augmented graph canonically, the shape the
// storage engine persists.
func randomFrozen(r *rand.Rand, n int) *graph.Frozen {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddFriendship(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	for i := 0; i < 3*n; i++ {
		u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if u == v {
			continue
		}
		if r.IntN(3) == 0 {
			g.AddRejection(u, v)
		} else {
			g.AddFriendship(u, v)
		}
	}
	return g.FreezeCanonical()
}

func TestFrozenRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 41))
		want := randomFrozen(r, 3+r.IntN(40))
		var buf bytes.Buffer
		if err := WriteFrozen(&buf, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadFrozen(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenReadsExactBytes is the composition contract: ReadFrozen must
// consume exactly the encoded bytes, leaving trailing stream content (the
// next section of a storage snapshot file) untouched.
func TestFrozenReadsExactBytes(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 41))
	fz := randomFrozen(r, 17)
	var buf bytes.Buffer
	if err := WriteFrozen(&buf, fz); err != nil {
		t.Fatal(err)
	}
	trailer := []byte("next-section")
	buf.Write(trailer)
	got, err := ReadFrozen(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(fz) {
		t.Fatal("frozen snapshot mutated by round trip")
	}
	rest, _ := io.ReadAll(&buf)
	if !bytes.Equal(rest, trailer) {
		t.Fatalf("ReadFrozen over-read: %d trailing bytes left, want %d", len(rest), len(trailer))
	}
}

// TestFrozenRejectsCorruption flips each byte of an encoding and demands
// either a decode error or an Equal result (a flip in padding that cannot
// change meaning does not exist in this dense format — but a flipped bit
// that survives decoding must at least never panic).
func TestFrozenRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 41))
	fz := randomFrozen(r, 9)
	var buf bytes.Buffer
	if err := WriteFrozen(&buf, fz); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		got, err := ReadFrozen(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		// A surviving decode must be structurally valid; Equal may or may
		// not hold (e.g. an adjacency value flip keeps the CSR legal).
		_ = got.NumNodes()
	}
	// Truncations must always error.
	for _, cut := range []int{1, 8, 12, len(enc) / 2, len(enc) - 1} {
		if cut >= len(enc) {
			continue
		}
		if _, err := ReadFrozen(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
}

func TestFrozenRejectsUnknownVersion(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 41))
	var buf bytes.Buffer
	if err := WriteFrozen(&buf, randomFrozen(r, 5)); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	enc[8] = 99 // version field
	if _, err := ReadFrozen(bytes.NewReader(enc)); err == nil {
		t.Fatal("unknown version decoded without error")
	}
}
