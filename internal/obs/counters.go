package obs

import "expvar"

// PipelineCounters is the process-wide counter set of the detection
// pipeline, published under "rejecto.*" in expvar (served at /debug/vars
// by any binary that opens an HTTP endpoint, e.g. `cmd/rejecto
// -debug-addr`). Every field is an expvar atomic, so updates are
// race-free and allocation-free; the pipeline ticks them per KL solve and
// per round — never per edge — so they stay invisible next to the work
// they count.
//
// Unlike a Tracer, the counters are always live: a long-running untraced
// detection still exposes its progress and cumulative work.
type PipelineCounters struct {
	// SolvesStarted / SolvesFinished count KL solves submitted to and
	// completed by MAAR sweeps. A gap between the two is the number of
	// solves in flight right now.
	SolvesStarted  *expvar.Int
	SolvesFinished *expvar.Int
	// KLPasses is the cumulative number of KL improvement passes.
	KLPasses *expvar.Int
	// EdgesScanned is the cumulative number of adjacency entries walked
	// by the KL passes of flat sweeps (kl.Result.EdgesScanned): per pass,
	// the adjacency of every node whose gain the pass initializes — all
	// but the pinned — plus the adjacency of every node it actually
	// switches before the pass ends. A full pass would make that
	// 2 × (2·|F| + 2·|R|); a pass that stops after a fruitless run walks
	// the first term and a small part of the second.
	EdgesScanned *expvar.Int
	// WorkspaceReuse counts KL solves that reused an already-warm
	// kl.Workspace — the sweeps' zero-allocation steady state. The first
	// solve on each worker's workspace is not a reuse.
	WorkspaceReuse *expvar.Int
	// Sweeps counts completed MAAR k-grid sweeps.
	Sweeps *expvar.Int
	// Rounds counts completed §IV-E detection rounds, and RoundMS the
	// cumulative wall-clock they took; RoundMS/Rounds is the mean round
	// duration, LastRoundMS the most recent one.
	Rounds      *expvar.Int
	RoundMS     *expvar.Float
	LastRoundMS *expvar.Float
	// RPCRetries counts transient-failure retries by the distributed
	// master, and RPCRecoveries its worker revive→rebuild cycles. On a
	// healthy cluster both sit at zero; under churn their ratio to calls
	// is the effective fault rate the retry policy is absorbing.
	RPCRetries    *expvar.Int
	RPCRecoveries *expvar.Int
	// ChaosFaults counts faults injected by the chaos transport. Nonzero
	// only under deliberate fault injection (tests, -chaos-seed runs).
	ChaosFaults *expvar.Int
}

// Pipeline is the singleton counter set. expvar registration is global
// and panics on duplicates, so it lives in package scope and is created
// exactly once per process.
var Pipeline = PipelineCounters{
	SolvesStarted:  expvar.NewInt("rejecto.solves_started"),
	SolvesFinished: expvar.NewInt("rejecto.solves_finished"),
	KLPasses:       expvar.NewInt("rejecto.kl_passes"),
	EdgesScanned:   expvar.NewInt("rejecto.edges_scanned"),
	WorkspaceReuse: expvar.NewInt("rejecto.workspace_reuse_hits"),
	Sweeps:         expvar.NewInt("rejecto.sweeps"),
	Rounds:         expvar.NewInt("rejecto.rounds"),
	RoundMS:        expvar.NewFloat("rejecto.round_ms_total"),
	LastRoundMS:    expvar.NewFloat("rejecto.last_round_ms"),
	RPCRetries:     expvar.NewInt("rejecto.rpc_retries"),
	RPCRecoveries:  expvar.NewInt("rejecto.rpc_recoveries"),
	ChaosFaults:    expvar.NewInt("rejecto.chaos_faults"),
}

// IncrCounters is the counter set of the incremental epoch engine
// (internal/incr), published under "rejecto.incr_*". The engine ticks them
// once per interval snapshot build and once per warm round decision, so —
// like the Pipeline set — they are invisible next to the work they count.
type IncrCounters struct {
	// Patches counts interval snapshots built by splicing a delta into the
	// previous epoch's CSR arrays; ColdBuilds counts snapshots rebuilt from
	// scratch because the delta exceeded the configured patch fraction (or
	// no previous snapshot existed).
	Patches    *expvar.Int
	ColdBuilds *expvar.Int
	// ReusedIntervals counts intervals whose previous detection was served
	// unchanged because no delta touched them — the zero-cost case.
	ReusedIntervals *expvar.Int
	// WarmRounds counts detection rounds whose warm-started solve passed
	// the quality gate; Fallbacks counts rounds the gate rejected (the
	// round was re-solved cold).
	WarmRounds *expvar.Int
	Fallbacks  *expvar.Int
	// PatchMS is the cumulative wall-clock spent building interval
	// snapshots (patched or cold); LastPatchMS the most recent build.
	PatchMS     *expvar.Float
	LastPatchMS *expvar.Float
}

// Incr is the singleton incremental-engine counter set; like Pipeline it
// lives in package scope because expvar registration is global and panics
// on duplicates.
var Incr = IncrCounters{
	Patches:         expvar.NewInt("rejecto.incr_patches"),
	ColdBuilds:      expvar.NewInt("rejecto.incr_cold_builds"),
	ReusedIntervals: expvar.NewInt("rejecto.incr_reused_intervals"),
	WarmRounds:      expvar.NewInt("rejecto.incr_warm_rounds"),
	Fallbacks:       expvar.NewInt("rejecto.incr_fallbacks"),
	PatchMS:         expvar.NewFloat("rejecto.incr_patch_ms_total"),
	LastPatchMS:     expvar.NewFloat("rejecto.incr_last_patch_ms"),
}

// StorageCounters is the counter set of the durable storage engine
// (internal/storage), published under "rejecto.storage_*". The segmented
// backend ticks them per append (one atomic add), per seal, per snapshot,
// and per recovery — the operator-facing view docs/OPERATIONS.md reads.
type StorageCounters struct {
	// Appends counts journal records appended this process; Seals counts
	// segments sealed and rolled.
	Appends *expvar.Int
	Seals   *expvar.Int
	// Snapshots counts snapshots persisted, SnapshotMS / LastSnapshotMS
	// their cumulative and most recent encode+write+rename wall-clock.
	Snapshots      *expvar.Int
	SnapshotMS     *expvar.Float
	LastSnapshotMS *expvar.Float
	// CompactedSegments counts segment files deleted because a snapshot
	// fully covered them.
	CompactedSegments *expvar.Int
	// RecoveredRecords is the logical journal length recovered at the last
	// boot; LastRecoverMS its wall-clock. TornTruncations counts boots that
	// cut a torn tail off the live segment.
	RecoveredRecords *expvar.Int
	LastRecoverMS    *expvar.Float
	TornTruncations  *expvar.Int
}

// Storage is the singleton storage counter set (see Pipeline for why it is
// package scope).
var Storage = StorageCounters{
	Appends:           expvar.NewInt("rejecto.storage_appends"),
	Seals:             expvar.NewInt("rejecto.storage_seals"),
	Snapshots:         expvar.NewInt("rejecto.storage_snapshots"),
	SnapshotMS:        expvar.NewFloat("rejecto.storage_snapshot_ms_total"),
	LastSnapshotMS:    expvar.NewFloat("rejecto.storage_last_snapshot_ms"),
	CompactedSegments: expvar.NewInt("rejecto.storage_compacted_segments"),
	RecoveredRecords:  expvar.NewInt("rejecto.storage_recovered_records"),
	LastRecoverMS:     expvar.NewFloat("rejecto.storage_last_recover_ms"),
	TornTruncations:   expvar.NewInt("rejecto.storage_torn_truncations"),
}

// ClusterCounters is the counter set of the multi-node coordinator
// (internal/cluster), published under "rejecto.cluster_*". The coordinator
// ticks them per routed record, per acked batch, and per merged epoch —
// the operator's view of how ingest and detection traffic splits across
// shards.
type ClusterCounters struct {
	// Routed counts answered requests routed to their home shard by the
	// coordinator's ingest path; Boundary counts the subset whose
	// interval owner is a different shard than the sender's home — the
	// cross-shard residuals the epoch merge accounts for.
	Routed   *expvar.Int
	Boundary *expvar.Int
	// ShipBatches counts acked journal-ingest batches, ShardDetects
	// acked per-shard epoch steps, Merges published merged epochs.
	ShipBatches  *expvar.Int
	ShardDetects *expvar.Int
	Merges       *expvar.Int
	// Rebuilds counts shard lineage replays onto recovered workers.
	Rebuilds *expvar.Int
	// LastMergeMS is the wall-clock of the most recent merged epoch
	// (shard fan-out plus merge).
	LastMergeMS *expvar.Float
}

// Cluster is the singleton coordinator counter set (see Pipeline for why
// it is package scope).
var Cluster = ClusterCounters{
	Routed:       expvar.NewInt("rejecto.cluster_routed"),
	Boundary:     expvar.NewInt("rejecto.cluster_boundary"),
	ShipBatches:  expvar.NewInt("rejecto.cluster_ship_batches"),
	ShardDetects: expvar.NewInt("rejecto.cluster_shard_detects"),
	Merges:       expvar.NewInt("rejecto.cluster_merges"),
	Rebuilds:     expvar.NewInt("rejecto.cluster_rebuilds"),
	LastMergeMS:  expvar.NewFloat("rejecto.cluster_last_merge_ms"),
}
