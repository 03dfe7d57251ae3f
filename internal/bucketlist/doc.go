// Package bucketlist implements the gain bucket structure used by the
// extended Kernighan–Lin optimization (§IV-C of the paper, following
// Fiduccia & Mattheyses 1982).
//
// A bucket list indexes every free (unswitched, unpinned) node by the gain
// its switch would bring to the partition objective, and answers
// "which free node has the maximum gain?" in amortized constant time. The
// paper's Algorithm 1 calls this structure nodeGainList.
//
// Two implementations are provided behind the List interface:
//
//   - Dense: the classic FM array of doubly-linked lists with a moving
//     max-gain pointer. O(1) operations, memory proportional to the gain
//     range. Used whenever the range is at most 2²² buckets — every
//     realistic configuration, since gains are fixed-point integers
//     bounded by a node's weighted degree.
//   - Sparse: a map from gain to bucket plus a lazy max-heap of occupied
//     gains. O(log B) operations where B is the number of distinct gains,
//     memory proportional to occupancy. Used for wider ranges, which on the
//     default k grid take a node with about a thousand rejections.
//
// New picks between them on the declared gain range alone. The two are
// cross-checked by property tests: the same maximum gain on every pop,
// and the same pop sequence after Reset as a fresh list. Every KL engine
// selects its list the same way (PrefersDense), so engines compared
// against each other always run on the same implementation.
package bucketlist
