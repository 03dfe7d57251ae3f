package kl

// Prefix follows one KL pass as it switches nodes: it keeps the best
// prefix of the switch sequence so far (what the pass will roll back to)
// and decides when the pass has run long enough without improving on it.
//
// Algorithm 1 of the paper switches every free node before it looks for
// the best prefix. The prefix it then keeps is short — on the serving
// configuration ~1.3 % of the switches survive the rollback — because
// once the profitable moves are made the remaining switches only dig the
// cumulative gain deeper, and a prefix that recovers from there is rare.
// So the pass ends once fruitlessRun(free) consecutive switches have
// failed to beat the best cumulative gain: the standard Fiduccia–
// Mattheyses early exit. Every implementation of the pass — the frozen
// engine's dense and generic loops, the slice engine, the distributed
// master — steps a Prefix, so they stop at the same switch and stay
// byte-identical to one another.
type Prefix struct {
	// Gain is the best cumulative gain of any prefix so far, and Len the
	// length of the shortest prefix reaching it. Gain > 0 exactly when
	// Len > 0: an empty prefix (roll everything back) is the baseline.
	Gain int64
	Len  int

	cum   int64
	steps int
	limit int
}

// fruitlessRun is the number of consecutive non-improving switches that
// ends a pass with free nodes in its bucket structure. n/16 lets a pass
// cross plateaus in proportion to the graph; the floor of 256 keeps small
// residuals on the full pass (with at most 256 free nodes the rule can
// never fire before the bucket list drains) and is where the adversary
// matrix stops moving — a floor of 64 loses a cell that 128, 256 and 512
// all keep (DESIGN.md §5).
func fruitlessRun(free int) int { return max(256, free/16) }

// NewPrefix starts tracking a pass over free unlocked nodes.
func NewPrefix(free int) Prefix { return Prefix{limit: fruitlessRun(free)} }

// Step records a switch of the given gain and reports whether the pass
// should end: the last fruitlessRun switches all failed to beat Gain.
func (p *Prefix) Step(gain int64) (stop bool) {
	p.steps++
	if p.cum += gain; p.cum > p.Gain {
		p.Gain, p.Len = p.cum, p.steps
		return false
	}
	return p.steps-p.Len >= p.limit
}
