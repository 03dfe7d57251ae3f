// Package cluster is the multi-node rejectod: ingest, journaling, and
// detection partitioned across dist workers by user-ID shard, coordinated
// into epochs that are byte-identical to a single-node server over the
// same journal.
//
// # Ownership planes
//
// Two partitions coexist, both derived from the same shard count S:
//
//   - Ingest/journal ownership follows the sender: an answered request is
//     routed to the home shard of its From node (contiguous user-ID
//     ranges), appended to that shard's own storage-backed journal
//     partition (internal/storage segments under Dir/shard-NNN), and
//     flushed by the server's group commit.
//   - Detection ownership follows the interval: interval i belongs to
//     shard i mod S, whose shard-local incr.Engine memoizes exactly the
//     intervals it owns.
//
// A record whose interval owner differs from its sender's home shard is a
// boundary residual: the coordinator routes a copy of it to the interval
// owner at epoch time (the journal copy stays with the sender's shard), so
// every interval's detection sees the interval's full request multiset.
// Per-interval detection is order-independent (requests are canonicalized
// before each solve — the replay invariant), so merging the per-shard
// detection sets in ascending interval order reproduces the single-node
// core.DetectSharded / incr.Engine result byte for byte. Shard engines run
// with warm starting disabled for the same reason: a crash-rebuilt engine
// that cold-replays its prefix must land on the same bytes as one that
// never crashed.
//
// # Fault tolerance
//
// Shard RPCs ride dist.Cluster's retry and recovery machinery and are
// positionally idempotent: ingest batches carry their journal offset (a
// replayed batch appends only the unseen suffix; a gap reports
// dist.ErrStateLost), epoch steps carry the engine's step count (a
// duplicated step returns the memoized reply). A crashed worker is rebuilt
// from the coordinator's in-memory lineage — reopen the shard's journal
// from disk, re-ship the unflushed tail, cold-replay the engine prefix —
// through the same transport, so chaos schedules can fault the recovery
// itself. Simulated storage crashes (storage.ErrCrashed via
// chaos.StoreFaults) surface as state-lost and take the same path.
//
// The Coordinator implements server.Backend, so cmd/rejectod serves
// /v1/suspects and /v1/score from merged multi-node epochs unchanged. See
// DESIGN.md §16 for the full design and invariants.
package cluster
