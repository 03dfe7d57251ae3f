package obs

import "time"

// Event names. See the package taxonomy above for the fields each carries.
const (
	EvDetectStart = "detect.start"
	EvFreeze      = "phase.freeze"
	EvRoundStart  = "round.start"
	EvSweepStart  = "sweep.start"
	EvSolveDone   = "solve.done"
	EvSweepDone   = "sweep.done"
	EvPrune       = "phase.prune"
	EvRoundDone   = "round.done"
	EvDetectDone  = "detect.done"
	EvDistRPC     = "dist.rpc"
	EvDistShard   = "dist.shard"
	EvDistRetry   = "dist.retry"
	EvChaosFault  = "chaos.fault"

	EvIncrPatch    = "incr.patch"
	EvIncrWarm     = "incr.warm"
	EvIncrFallback = "incr.fallback"

	EvStorageSeal     = "storage.seal"
	EvStorageSnapshot = "storage.snapshot"
	EvStorageCompact  = "storage.compact"
	EvStorageRecover  = "storage.recover"

	// cluster.* events trace the sharded rejectod's coordinator↔shard
	// boundary (internal/cluster). cluster.ship is one acked ingest batch
	// (Job = shard, Nodes = records shipped); cluster.detect one acked
	// per-shard epoch step (Job = shard, Suspects = the shard's suspect
	// total, Dur = the RPC round-trip); cluster.merge one published merge
	// (Suspects = merged suspect total, Nodes = cumulative boundary
	// residuals, Detail = the shard count); cluster.rebuild one shard
	// lineage replay onto a recovered worker (Job = shard, Nodes = the
	// records re-shipped).
	EvClusterShip    = "cluster.ship"
	EvClusterDetect  = "cluster.detect"
	EvClusterMerge   = "cluster.merge"
	EvClusterRebuild = "cluster.rebuild"

	// score.publish is one epoch handoff to the real-time scorer
	// (Suspects = suspect-set size, Nodes = account count, Detail = the
	// server mode). score.enforce is one non-allow verdict handed to the
	// enforcement hook (Detail = "throttle" | "deny", Acceptance = the
	// fused score, Suspects = 1 if the epoch cut flagged the account).
	EvScorePublish = "score.publish"
	EvScoreEnforce = "score.enforce"
)

// Events of the multilevel ladder, which is removed: nothing emits them.
//
// Deprecated: only the frozen benchmark module (bench/) still reads them.
// Drop its rows, then delete the constants (ROADMAP item 1(g)).
const (
	EvMLCoarsen  = "ml.coarsen"
	EvMLSolve    = "ml.solve"
	EvMLRefine   = "ml.refine"
	EvMLFallback = "ml.fallback"
)

// Event is one structured trace event. It is a flat value type so that
// building and emitting one performs no allocations; unused fields stay
// zero and are omitted by the JSONL encoder (consumers must treat a
// missing field as zero).
type Event struct {
	// Name is one of the Ev* constants.
	Name string
	// Wall is the emission timestamp.
	Wall time.Time
	// Dur is the span duration on *.done / phase.* events.
	Dur time.Duration

	// Round is the 1-based detection round; 0 outside any round. On
	// detect.done it is the total number of rounds run.
	Round int
	// Job is the sweep job index of a solve.done event (deterministic
	// (k, init) enumeration order, 1-based so 0 can mean "absent").
	Job int
	// Jobs is the sweep's job count on sweep.start.
	Jobs int
	// K is the friends-to-rejections ratio of a solve, or the winning
	// ratio on sweep.done / round.done.
	K float64
	// Init is the 1-based initial-partition index of a solve.
	Init int
	// Attempt is the 1-based retry attempt (or recovery cycle) of a
	// dist.retry event; 0 everywhere else.
	Attempt int

	// Passes, Switches, Rollbacks summarize KL work: improvement passes,
	// tentative node switches, and switches undone by prefix rollback.
	// On sweep.done, Passes is the total across all solves.
	Passes    int
	Switches  int
	Rollbacks int
	// Gains is the solve's best-gain trajectory: the best cumulative
	// objective reduction of each pass (the amount the pass kept). It
	// aliases solver memory — valid only during Emit.
	Gains []int64

	// Acceptance is the aggregate acceptance rate of the candidate or
	// winning cut; -1 when a solve produced no valid candidate.
	Acceptance float64

	// Graph sizes: the residual graph on detect/round/sweep events, the
	// remaining node count on phase.prune, the shard size on dist.shard.
	Nodes       int
	Friendships int
	Rejections  int

	// Suspects is the detected-group size (round.done) or the running
	// total (detect.done).
	Suspects int

	// Detail is a free-form label: the RPC method on dist.rpc, the shard
	// placement on dist.shard, an early-stop reason on detect.done.
	Detail string
	// Err is the error string of a failed dist.rpc call.
	Err string
}

// A Tracer receives pipeline events. Implementations must be safe for
// concurrent use; Emit is called from the sweep's worker goroutines.
//
// Throughout the pipeline a nil Tracer means tracing is disabled, and
// every instrumentation site guards on that before building an Event or
// reading a clock — the zero-overhead guarantee DESIGN.md §8 documents.
type Tracer interface {
	Emit(e Event)
}

// Nop is a Tracer that discards every event. Prefer a nil Tracer where
// possible — nil short-circuits before the Event is even built — but Nop
// is useful where a non-nil sink is structurally required.
type Nop struct{}

// Emit discards e.
func (Nop) Emit(Event) {}

// multi fans events out to several tracers in order.
type multi []Tracer

func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Multi returns a Tracer that forwards each event to every non-nil tracer
// in ts, in order. It returns nil when no non-nil tracer remains, so the
// caller's nil-guard keeps its zero-overhead meaning, and returns a lone
// survivor undecorated.
func Multi(ts ...Tracer) Tracer {
	var live multi
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
