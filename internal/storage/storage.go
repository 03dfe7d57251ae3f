package storage

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
)

// A Store is the durable home of the answered-request journal. The
// rejectod server owns exactly one; implementations must be safe for the
// server's two-goroutine access pattern (the ingest loop appending and
// flushing while the detector goroutine snapshots).
//
// Lifecycle: open, Recover exactly once, then any number of Append / Flush
// / Snapshot calls, then Close. Recover before the first Append is
// mandatory even on a fresh store — it is what positions the writer.
type Store interface {
	// Recover replays the logical journal — snapshot prefix first, then
	// every surviving segment record — calling apply with batches of
	// answered requests in arrival order. Batch sizes are an
	// implementation detail (a snapshot arrives as one batch, segment
	// replay in chunks); callers must not retain a batch slice past the
	// call. An apply error aborts recovery and is returned verbatim (the
	// server uses this to reject journals that reference nodes outside
	// its base graph).
	Recover(apply func([]core.TimedRequest) error) (Recovered, error)

	// Append adds one answered request to the journal. Durability is
	// deferred to Flush, which the server calls as a group commit: every
	// N records or T ms, before each detection cut, and on shutdown.
	Append(req core.TimedRequest) error

	// Flush makes every appended record durable (buffer flush + fsync).
	Flush() error

	// Snapshot persists st and compacts: segments fully covered by the
	// snapshot are deleted after the manifest commits.
	Snapshot(st SnapshotState) error

	// Stats reports the store's current shape for /v1/stats.
	Stats() Stats

	// Close flushes and releases the store. After a simulated crash
	// (ErrCrashed) Close only releases file handles — nothing more is
	// written, so a test can reopen the directory exactly as a restarted
	// process would find it.
	Close() error
}

// ErrCrashed is returned by every operation after a fault hook simulated a
// crash: the store behaves as if the process died at that instant, and the
// only useful next step is Close (release handles) and a fresh open.
var ErrCrashed = errors.New("storage: simulated crash")

// SnapshotState is everything a snapshot persists: the journal prefix it
// covers, the canonical frozen read model of base + that prefix, and the
// epoch engine's memo. Requests must hold exactly
// Count records in arrival order; Frozen and Memo may be nil (a
// requests-only snapshot still makes recovery O(delta) for the log itself).
type SnapshotState struct {
	Count    int
	Requests []core.TimedRequest
	Frozen   *graph.Frozen
	Memo     *incr.MemoState
}

// Recovered is what Recover hands back besides the replayed records.
type Recovered struct {
	// SnapshotCount is the number of journal records the loaded snapshot
	// covered; 0 when no snapshot was loaded.
	SnapshotCount int
	// Frozen is the snapshot's persisted read model (base + the first
	// SnapshotCount requests), nil if the snapshot carried none.
	Frozen *graph.Frozen
	// Memo is the snapshot's persisted incremental-engine state, nil if
	// the snapshot carried none.
	Memo *incr.MemoState
	// Info describes the recovery itself.
	Info RecoveryInfo
}

// RecoveryInfo describes one boot-time recovery for /v1/stats and the
// storage.recover trace event.
type RecoveryInfo struct {
	// Records is the logical journal length recovered; SnapshotRecords of
	// them came from the snapshot, SegmentRecords were replayed from
	// segment files (Records - SnapshotRecords - SegmentRecords records
	// were skipped as already covered by the snapshot: a segment that
	// straddles the snapshot point replays only its tail).
	Records         int
	SnapshotRecords int
	SegmentRecords  int
	// SegmentsScanned counts segment files read.
	SegmentsScanned int
	// TornBytesTruncated is the size of the torn tail cut off the live
	// segment, 0 on a clean boot.
	TornBytesTruncated int64
	// OrphansRemoved counts files swept because no manifest referenced
	// them (the debris of a crash between commit points).
	OrphansRemoved int
	// Duration is the recovery wall-clock.
	Duration time.Duration
}

// Stats is a point-in-time description of the store for /v1/stats and the
// operator runbook.
type Stats struct {
	// Backend names the on-disk format, "segmented".
	Backend string
	// Records is the logical journal length (recovered + appended).
	Records int64
	// Segments is the number of live segment files, SealedSegments how
	// many of them are sealed (all but the write head, absent compaction).
	Segments       int
	SealedSegments int
	// LiveSegmentBytes is the byte size of the unsealed write-head segment.
	LiveSegmentBytes int64
	// SnapshotRecords is the journal prefix the latest snapshot covers;
	// 0 when there is no snapshot.
	SnapshotRecords int64
	// Snapshots and CompactedSegments count this process's snapshot writes
	// and the segments compaction deleted.
	Snapshots         int64
	CompactedSegments int64
}

// Fault points, in the order a record travels: every place a crash leaves
// observably different on-disk state. Options.Hooks is consulted at each.
const (
	// PointAppend fires before a record frame is written to the live
	// segment. A torn crash here writes a prefix of the frame — the
	// classic torn write recovery must truncate.
	PointAppend = "append"
	// PointSeal fires before the seal footer frame is written.
	PointSeal = "seal"
	// PointSegmentCreate fires before the next segment file is created
	// after a seal.
	PointSegmentCreate = "segment.create"
	// PointManifest fires before the manifest temp file is renamed over
	// MANIFEST — the commit point of every multi-file transition.
	PointManifest = "manifest"
	// PointSnapshotWrite fires before the snapshot temp file's contents
	// are written; a torn crash leaves a partial temp file behind.
	PointSnapshotWrite = "snapshot.write"
	// PointSnapshotRename fires before the snapshot temp file is renamed
	// to its final name.
	PointSnapshotRename = "snapshot.rename"
	// PointCompactDelete fires before each covered segment is deleted
	// after a snapshot's manifest has committed.
	PointCompactDelete = "compact.delete"
)

// Fault is a fault hook's verdict for one fault point.
type Fault struct {
	// Crash makes the store die at this point: the operation aborts with
	// ErrCrashed and every later operation fails the same way.
	Crash bool
	// Torn, meaningful with Crash at a write point (PointAppend,
	// PointSeal, PointSnapshotWrite), is how many bytes of the pending
	// write reach the file before the death — the torn-write simulator.
	// Clamped to [0, size).
	Torn int
}

// Hooks injects faults at the store's crash points. At is called with the
// point name and, for write points, the pending write's size; the zero
// Fault means "no fault, proceed". Implementations must be deterministic
// for a fixed seed (internal/chaos provides one).
type Hooks interface {
	At(point string, size int) Fault
}

// hookAt consults optional hooks.
func hookAt(h Hooks, point string, size int) Fault {
	if h == nil {
		return Fault{}
	}
	return h.At(point, size)
}
