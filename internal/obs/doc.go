// Package obs is the observability layer of the detection pipeline: a
// lightweight structured-event tracer threaded through core.Detect, the
// MAAR sweep, each KL solve, and the distributed engine's shard/RPC
// boundaries, plus process-wide expvar counters (see Pipeline).
//
// The design goal is zero overhead when disabled. A nil Tracer disables
// every instrumentation site: no event structs are built, no clocks are
// read, and — the property the test suite enforces with
// testing.AllocsPerRun — no allocations are added to the zero-allocation
// KL engine. Counters are always live (they are a handful of atomic adds
// per KL solve, never per edge) so /debug/vars is useful even on untraced
// runs.
//
// # Event taxonomy
//
// Events form spans by pairing: a *.start event carries the inputs, the
// matching *.done event carries the outputs and the span duration. All
// events are correlated by Round (1-based; 0 means outside any round).
//
//	detect.start      detection begins: Nodes/Friendships/Rejections of g
//	phase.freeze      the up-front CSR freeze (Dur), paper Table II "load"
//	round.start       one §IV-E round begins: residual graph sizes
//	sweep.start       the k-grid sweep begins: Jobs = |grid|×|inits|
//	solve.done        one KL solve: Job, K, Init, Passes, Switches,
//	                  Rollbacks, Gains (best-gain trajectory), Acceptance
//	                  (-1 if the partition was no valid MAAR candidate), Dur
//	sweep.done        the sweep's winner: K, Acceptance, total Passes, Dur
//	phase.prune       residual pruning after a detected group (Dur, Nodes
//	                  = remaining), paper Table II "prune"
//	round.done        the round's outcome: K, Acceptance, Suspects, Dur
//	detect.done       detection ends: Round = rounds run, Suspects, Dur;
//	                  Detail records an early-stop reason ("interrupted",
//	                  "threshold", "target") when there is one
//	dist.rpc          one master↔worker call: Detail = method, Dur, Err
//	dist.shard        one shard loaded onto a worker: Detail, Nodes
//	dist.retry        one retry decision by the cluster: Attempt (the try
//	                  about to run, or the recovery cycle), Dur = backoff
//	                  about to be slept, Detail = method or "recover
//	                  worker N for M", Err = the failure being retried
//	chaos.fault       one injected fault (package chaos): Detail =
//	                  "kind method → worker N", Dur = injected latency,
//	                  Job = the 1-based transport call index
//	incr.patch        one frozen-snapshot build by the incremental epoch
//	                  engine (package incr): Dur, the patched snapshot's
//	                  Nodes/Friendships/Rejections, Detail = "interval N"
//	                  (suffixed " cold" when the delta exceeded the patch
//	                  fraction and the snapshot was rebuilt from scratch)
//	incr.warm         one warm-started detection round that passed the
//	                  quality gate: Round, K, Acceptance of the accepted
//	                  warm cut, Dur of the warm solve
//	incr.fallback     one warm round rejected by the quality gate (Detail =
//	                  the reason, Acceptance = the rejected warm cut's
//	                  value or -1 when the warm solve found no cut); the
//	                  round is then re-solved cold
//	storage.seal      one journal segment sealed and rolled (package
//	                  storage): Nodes = the sealed segment's record count,
//	                  Detail = its file name
//	storage.snapshot  one snapshot persisted: Nodes = records covered,
//	                  Detail = the snapshot file name, Dur = encode+write+
//	                  rename wall-clock
//	storage.compact   the compaction step of one snapshot: Nodes = segments
//	                  deleted, Detail = "n segments, m records re-homed"
//	storage.recover   one boot-time recovery: Nodes = records recovered,
//	                  Suspects = records replayed from segments (the delta
//	                  since the snapshot), Dur, Detail = a summary like
//	                  "snapshot 64k + 3 segments, torn 7B, 2 orphans"
//
// Tracers must tolerate concurrent Emit calls: the sweep's workers emit
// solve.done events from their own goroutines. Slice-valued fields
// (Event.Gains) alias solver-owned memory and are valid only for the
// duration of the Emit call; a tracer that retains events must copy them.
package obs
