// Package storage is the durable storage engine of the rejectod service:
// the home of the answered-request journal and of the persisted snapshots
// that make restart cost O(delta since last snapshot) instead of
// O(journal).
//
// Open returns the one Store implementation: fixed-size segments of
// CRC32C-checksummed binary records with a sealed-segment footer, a
// manifest naming the live segment set and the latest snapshot, snapshot
// files folding the journal prefix (plus the epoch engine's memo) into one
// bulk-loadable file, and compaction that deletes segments fully covered by
// a snapshot.
//
// # Correctness model
//
// The logical journal — the arrival-ordered sequence of answered requests —
// is the single source of truth; everything else is a derived, checksummed
// cache of a prefix of it. Recovery therefore never guesses: a torn tail
// record on the live segment is truncated (the write never completed, so
// the record was never acknowledged durable), while a checksum failure
// anywhere else — a sealed segment, the snapshot, the manifest — fails the
// boot loudly rather than serving a silently wrong history. Rejections are
// the detection signal (SybilFence's lesson: negative feedback must be
// kept, not aged out), so compaction only ever re-homes history into a
// snapshot; no record is dropped.
//
// Every multi-file transition commits through the manifest: snapshot and
// segment files are written and synced first, then the manifest is replaced
// atomically (temp file + rename + directory sync), then obsolete files are
// deleted. A crash between any two steps leaves either the old manifest
// (pointing at the old, intact file set) or the new one (pointing at the
// new, already-synced file set); files no longer reachable from the
// manifest are orphans, swept on the next open. The Hooks interface exposes
// every one of these crash points to the seeded fault injector in
// internal/chaos, and the recovery property test replays crashes at each of
// them.
package storage
