// Package server implements rejectod: a long-running HTTP/JSON service
// that ingests the friend-request lifecycle (request / accept / reject /
// ignore events, §II of the paper), journals every answered request, and
// periodically — or on demand — advances the incremental epoch engine over
// an immutable prefix of that journal, publishing each completed detection
// as an atomically-swapped epoch that read endpoints serve lock-free.
//
// # Architecture
//
// Three single-owner goroutines, no shared mutable state:
//
//   - The ingest loop owns the answered-request log and the journal sink
//     (a storage.Store, a Backend, or nothing).
//     HTTP ingest handlers decode each POST into a pooled batch and hand
//     it over whole through a queue bounded in events (backpressure: the
//     prefix that fits is queued, the rest answered 429 + Retry-After;
//     past ingestPace the 202 itself is held, see ackHold);
//     the loop is the only goroutine that mutates anything. A record is
//     journaled before it is folded, the journal is flushed as a group
//     commit (every commitRecords records or commitDelay, before each
//     snapshot, on shutdown), and the first sink error stops ingest and
//     detection (503) while the last good epoch keeps being served.
//   - The detector loop runs detections serially. It asks the ingest loop
//     for a snapshot — an immutable prefix of the answered-request log,
//     one group commit and then an O(1) handoff, so detection never
//     blocks ingest for longer than a flush — and hands the prefix's new
//     tail to the incr.Engine (or the cut position to the Backend), which
//     patches each touched interval's snapshot, reuses the untouched ones,
//     and sweeps. The completed Epoch (per-interval suspect sets) is
//     published through an atomic pointer swap.
//   - HTTP readers load the current epoch pointer and serve from it;
//     per-account answers come from /v1/score, which fuses the account's
//     online features with the epoch's suspect set.
//
// A local server and one with a Backend differ only in who answers
// Recover, Detect, Mode and Stats.
//
// # The replay invariant
//
// The server's detection state is a pure function of its event log: the
// ingest loop and the exported Replay path fold events through the same
// lifecycle code, the journal records the folded answered requests in
// arrival order, and — with Config.DisableWarmStart — every epoch is
// exactly core.DetectSharded over the journal prefix it covers (warm
// starts gate the cuts on equal-or-better acceptance). Replaying a server's store directory through the batch CLI
// therefore reproduces the server's suspect sets byte for byte — the
// invariant the test harness enforces, with Replay as the oracle, for
// every detector × journal × backend combination, under concurrent ingest
// and the race detector.
package server
