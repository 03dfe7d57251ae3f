// Package kl implements the paper's extended Kernighan–Lin heuristic
// (Algorithm 1, §IV-C/§IV-D) on rejection-augmented social graphs.
//
// The classic KL/FM heuristic bipartitions an undirected graph to minimize
// cross-partition edges. Rejecto's extension differs in three ways:
//
//   - Edges are weighted and typed. A friendship crossing the cut costs
//     +FriendWeight; a rejection edge ⟨a, b⟩ *reduces* the objective by
//     RejectWeight, but only when it points from the Legit region into the
//     Suspect region (a ∈ Ū, b ∈ U). The pass therefore minimizes the
//     linearized objective |F(Ū,U)|·w_F − |R⃗⟨Ū,U⟩|·w_R, the fixed-point
//     form of |F(Ū,U)| − k·|R⃗⟨Ū,U⟩| with k = w_R/w_F.
//   - Node pairs are not interchanged; single nodes switch sides, because
//     the spammer/legitimate partition has no prescribed balance.
//   - Seed nodes are pinned to their region and never switch (§IV-F).
//
// Each pass greedily switches free nodes in max-gain order (tracked by a
// Fiduccia–Mattheyses bucket list), then rolls back to the prefix of
// switches with the highest cumulative objective reduction. Passes repeat
// until no prefix improves the objective.
//
// One deliberate departure from Algorithm 1: the paper's pass switches
// every free node before it rolls back; this one ends once
// max(256, free/16) consecutive switches have failed to beat the best
// prefix so far (type Prefix). Nearly everything a full pass does past
// that point is undone by the rollback — 98.7 % of all switches on the
// serving configuration — and stopping there leaves the result a
// single-switch local optimum all the same. With at most 256 free nodes
// the rule cannot fire and the pass is the paper's. The full pass survives
// as the oracle of the package's property tests (oracle_test.go), which
// also log how far the two ever differ.
//
// There is one pass implementation, PartitionFrozen's, on unit-weight CSR
// snapshots (graph.Frozen). The slice engine it replaced — the same pass
// on the mutable graph — lives on in the tests (slice_test.go) as the
// oracle the frozen pass is held to byte for byte.
package kl
