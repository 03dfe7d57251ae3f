// Package graph implements the rejection-augmented social graph that
// Rejecto operates on (§III-A of the paper).
//
// The graph G = (V, F, R⃗) has a user set V, a set F of undirected
// friendships (OSN links whose establishment required mutual agreement),
// and a set R⃗ of directed social rejections: an edge ⟨u, v⟩ records that
// user u rejected, ignored, or reported a friend request sent by user v.
// Multiple rejections between the same ordered pair collapse into a single
// edge, exactly as the paper models them.
//
// Graph is the mutable form; Frozen is the immutable CSR snapshot every
// detection runs on. Every edge of either carries unit weight: the KL
// objective's friendship and rejection weights live in kl.Config, not in
// the graph.
package graph
