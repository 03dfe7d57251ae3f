package bucketlist

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// implementations under test; all must satisfy the same contract.
func implementations(n int, minG, maxG int64) map[string]List {
	return map[string]List{
		"dense":  NewDense(n, minG, maxG),
		"sparse": NewSparse(n),
	}
}

func TestAddPopMax(t *testing.T) {
	for name, l := range implementations(10, -100, 100) {
		t.Run(name, func(t *testing.T) {
			l.Add(1, 5)
			l.Add(2, -3)
			l.Add(3, 7)
			node, gain, ok := l.PopMax()
			if !ok || node != 3 || gain != 7 {
				t.Fatalf("PopMax = %d, %d, %v; want 3, 7, true", node, gain, ok)
			}
			node, gain, _ = l.PopMax()
			if node != 1 || gain != 5 {
				t.Fatalf("second PopMax = %d, %d; want 1, 5", node, gain)
			}
			node, gain, _ = l.PopMax()
			if node != 2 || gain != -3 {
				t.Fatalf("third PopMax = %d, %d; want 2, -3", node, gain)
			}
			if _, _, ok := l.PopMax(); ok {
				t.Fatal("PopMax on empty list reported ok")
			}
		})
	}
}

func TestUpdateMovesBuckets(t *testing.T) {
	for name, l := range implementations(4, -10, 10) {
		t.Run(name, func(t *testing.T) {
			l.Add(0, 1)
			l.Add(1, 2)
			l.Update(0, 9)
			if g := l.Gain(0); g != 9 {
				t.Fatalf("Gain(0) = %d, want 9", g)
			}
			node, gain, _ := l.PopMax()
			if node != 0 || gain != 9 {
				t.Fatalf("PopMax after update = %d, %d; want 0, 9", node, gain)
			}
		})
	}
}

func TestUpdateSameGainNoOp(t *testing.T) {
	for name, l := range implementations(4, -10, 10) {
		t.Run(name, func(t *testing.T) {
			l.Add(0, 3)
			l.Update(0, 3)
			if !l.Contains(0) || l.Gain(0) != 3 || l.Len() != 1 {
				t.Fatal("same-gain update corrupted state")
			}
		})
	}
}

func TestRemove(t *testing.T) {
	for name, l := range implementations(4, -10, 10) {
		t.Run(name, func(t *testing.T) {
			l.Add(0, 3)
			l.Add(1, 3)
			if !l.Remove(0) {
				t.Fatal("Remove of present node = false")
			}
			if l.Remove(0) {
				t.Fatal("Remove of absent node = true")
			}
			if l.Contains(0) || !l.Contains(1) || l.Len() != 1 {
				t.Fatal("state wrong after Remove")
			}
			node, _, _ := l.PopMax()
			if node != 1 {
				t.Fatalf("PopMax = %d, want 1", node)
			}
		})
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	for name, l := range implementations(4, -10, 10) {
		t.Run(name, func(t *testing.T) {
			l.Add(0, 1)
			defer func() {
				if recover() == nil {
					t.Fatal("duplicate Add did not panic")
				}
			}()
			l.Add(0, 2)
		})
	}
}

func TestUpdateAbsentPanics(t *testing.T) {
	for name, l := range implementations(4, -10, 10) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Update of absent node did not panic")
				}
			}()
			l.Update(0, 2)
		})
	}
}

func TestDenseGainOutOfRangePanics(t *testing.T) {
	l := NewDense(4, -5, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range gain did not panic")
		}
	}()
	l.Add(0, 6)
}

func TestDenseLIFOTieBreak(t *testing.T) {
	l := NewDense(4, 0, 10)
	l.Add(0, 5)
	l.Add(1, 5)
	l.Add(2, 5)
	node, _, _ := l.PopMax()
	if node != 2 {
		t.Fatalf("PopMax tie-break = %d, want most recent (2)", node)
	}
}

func TestNewSelectsImplementation(t *testing.T) {
	if _, ok := New(4, -100, 100).(*Dense); !ok {
		t.Error("small range should select Dense")
	}
	if _, ok := New(4, -(1 << 40), 1<<40).(*Sparse); !ok {
		t.Error("huge range on a small node count should select Sparse")
	}
	if _, ok := New(1<<13, -(1 << 40), 1<<40).(*Sparse); !ok {
		t.Error("huge range on a large node count should select Sparse")
	}
}

// TestCrossImplementation runs a random op sequence against Dense and
// Sparse and checks they agree on every observable.
func TestCrossImplementation(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		crossCheck(t, func() List { return NewSparse(64) })
	})
}

func crossCheck(t *testing.T, mk func() List) {
	const n = 64
	f := func(seed uint64, opsRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 11))
		ops := int(opsRaw) + 20
		d := NewDense(n, -50, 50)
		s := mk()
		for i := 0; i < ops; i++ {
			node := r.IntN(n)
			gain := int64(r.IntN(101) - 50)
			switch r.IntN(5) {
			case 0:
				if !d.Contains(node) {
					d.Add(node, gain)
					s.Add(node, gain)
				}
			case 1:
				if d.Contains(node) {
					d.Update(node, gain)
					s.Update(node, gain)
				}
			case 2:
				if d.Remove(node) != s.Remove(node) {
					return false
				}
			case 4:
				// Reset must leave both implementations observably empty and
				// fully usable under the (possibly different) new bounds.
				lo := int64(-50 - r.IntN(30))
				hi := int64(50 + r.IntN(30))
				d.Reset(lo, hi)
				s.Reset(lo, hi)
				if d.Len() != 0 || s.Len() != 0 {
					return false
				}
				if _, _, ok := d.PopMax(); ok {
					return false
				}
				if _, _, ok := s.PopMax(); ok {
					return false
				}
				for u := 0; u < n; u++ {
					if d.Contains(u) || s.Contains(u) {
						return false
					}
				}
			case 3:
				nd, gd, okd := d.PopMax()
				ns, gs, oks := s.PopMax()
				if okd != oks || gd != gs {
					return false
				}
				// Max gain must agree; the node may differ within a tie
				// bucket, so re-align state by removing the other's pick.
				if okd && nd != ns {
					if d.Contains(ns) && d.Gain(ns) == gd && s.Contains(nd) && s.Gain(nd) == gs {
						d.Remove(ns)
						s.Remove(nd)
					} else {
						return false
					}
				}
			}
			if d.Len() != s.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResetEquivalentToFresh: after arbitrary use, a Reset list must be
// indistinguishable from a freshly constructed one — same PopMax sequence,
// LIFO tie-breaks included — for every implementation.
func TestResetEquivalentToFresh(t *testing.T) {
	const n = 48
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 12))
		dirty := []List{NewDense(n, -30, 30), NewSparse(n)}
		for i := 0; i < 40; i++ {
			node, gain := r.IntN(n), int64(r.IntN(61)-30)
			if !dirty[0].Contains(node) {
				for _, l := range dirty {
					l.Add(node, gain)
				}
			} else if r.IntN(2) == 0 {
				for _, l := range dirty {
					l.Update(node, gain)
				}
			}
		}
		// Leave some residue, pop some, then Reset to different bounds.
		lo, hi := int64(-40), int64(55)
		for _, l := range dirty {
			l.PopMax()
			l.Reset(lo, hi)
		}

		fresh := []List{NewDense(n, lo, hi), NewSparse(n)}
		for i := 0; i < n; i++ {
			gain := int64(r.IntN(int(hi-lo+1))) + lo
			for _, l := range dirty {
				l.Add(i, gain)
			}
			for _, l := range fresh {
				l.Add(i, gain)
			}
		}
		for {
			done := false
			for i := range dirty {
				n1, g1, ok1 := dirty[i].PopMax()
				n2, g2, ok2 := fresh[i].PopMax()
				if n1 != n2 || g1 != g2 || ok1 != ok2 {
					return false
				}
				done = !ok1
			}
			if done {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDenseResetGrowsRange: Reset to wider bounds than construction must
// accept the full new range.
func TestDenseResetGrowsRange(t *testing.T) {
	l := NewDense(4, -5, 5)
	l.Add(0, 5)
	l.Reset(-100, 100)
	l.Add(0, 99)
	l.Add(1, -100)
	if node, gain, _ := l.PopMax(); node != 0 || gain != 99 {
		t.Fatalf("PopMax = %d, %d; want 0, 99", node, gain)
	}
}

// TestRenew: Renew must reuse a compatible list and rebuild otherwise.
func TestRenew(t *testing.T) {
	d := NewDense(8, -10, 10)
	d.Add(3, 4)
	if got := Renew(d, 8, -20, 20); got != List(d) {
		t.Error("Renew did not reuse a compatible Dense list")
	} else if got.Len() != 0 {
		t.Error("Renew did not reset the reused list")
	}
	if _, ok := Renew(d, 9, -10, 10).(*Dense); !ok {
		t.Error("Renew with different n should build a fresh Dense")
	}
	sp := Renew(d, 8, -(1 << 40), 1<<40)
	if _, ok := sp.(*Sparse); !ok {
		t.Error("Renew with a huge range should switch to Sparse")
	}
	sp.Add(1, 1<<30)
	if got := Renew(sp, 8, -(1 << 40), 1<<40); got != sp {
		t.Error("Renew did not reuse a compatible Sparse list")
	} else if got.Len() != 0 {
		t.Error("Renew did not reset the reused Sparse list")
	}
	if got := Renew(sp, 9, -(1 << 40), 1<<40); got == sp {
		t.Error("Renew reused a Sparse list of the wrong capacity")
	} else if _, ok := got.(*Sparse); !ok {
		t.Error("Renew with different n should build a fresh Sparse")
	}
	if _, ok := Renew(sp, 8, -10, 10).(*Dense); !ok {
		t.Error("Renew with a small range should switch to Dense")
	}
	if _, ok := Renew(nil, 8, -10, 10).(*Dense); !ok {
		t.Error("Renew(nil) should construct a list")
	}
}

// TestPopMaxIsMonotoneWithoutMutation: absent interleaved updates, PopMax
// yields non-increasing gains.
func TestPopMaxIsMonotoneWithoutMutation(t *testing.T) {
	for name, l := range implementations(256, -1000, 1000) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(4, 2))
			for i := 0; i < 256; i++ {
				l.Add(i, int64(r.IntN(2001)-1000))
			}
			prev := int64(1 << 62)
			for {
				_, g, ok := l.PopMax()
				if !ok {
					break
				}
				if g > prev {
					t.Fatalf("PopMax gain increased: %d after %d", g, prev)
				}
				prev = g
			}
		})
	}
}
