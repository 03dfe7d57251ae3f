// Package score is the real-time verdict path: it maintains cheap
// per-account online features updated inline by the ingest fold and fuses
// them with the latest published detection epoch into a deterministic
// allow/throttle/deny verdict at friend-request time.
//
// The batch pipeline (core.Detect and its incremental variant)
// answers "who looks like a friend spammer given everything logged so
// far", but only at epoch cadence. A production OSN needs an answer the
// moment a request arrives — including for accounts that started spamming
// after the last epoch was cut. Package score closes that gap with the
// per-account dynamics that "Friend or Faux" showed separate fakes from
// their very first requests: request rate, acceptance trajectory, and
// rejection velocity, all computed over the answered-request stream the
// server already folds.
//
// # Feature state
//
// Every account's features live in ONE uint64 loaded and stored
// atomically, so a reader always sees a coherent snapshot with a single
// atomic load — no locks, no torn state, no allocation:
//
//	bits  0..9   curReq   answered outgoing requests, current window
//	bits 10..19  prevReq  … previous window
//	bits 20..29  curRej   rejected outgoing requests, current window
//	bits 30..39  prevRej  … previous window
//	bits 40..47  win      low 8 bits of the account's last window index
//	bits 48..55  accFast  acceptance EWMA, alpha = 1/4  (Q0.8)
//	bits 56..63  accSlow  acceptance EWMA, alpha = 1/16 (Q0.8)
//
// Time is logical, not wall-clock: the Scorer's clock is the count of
// answered requests folded so far, and a rate window is a fixed span of
// that clock (default 1024 events). That makes every feature — and
// therefore every score — a pure function of the answered-request journal,
// preserving the server's replay invariant: restart a server from its
// journal and the scorer state is byte-identical, and repeated Score calls
// with no interleaved ingest return byte-identical Results. Rates are thus
// shares of recent global traffic rather than events per second, which is
// exactly the quantity that stays meaningful as load scales.
//
// Counts saturate at 1023 per window and window indices are tracked modulo
// 256, so an account silent for exactly 256 windows can briefly alias its
// stale counts into the "previous window" slot; the estimate degrades by
// at most one window of old data and the determinism contract is
// unaffected.
//
// # Verdicts
//
// Score fuses the online features with the atomically published epoch's
// suspect set (an EpochView bitset swapped in whole, so a verdict reflects
// either the old epoch or the new one, never a blend). An account in the
// published suspect set always scores at least the deny threshold; an
// account the batch cut has never seen can still be denied on its online
// dynamics alone — the early-detection half of the design. Thresholds and
// the signal fusion are documented on Options.
//
// The write side (Observe) is single-writer by contract — the server's
// ingest loop owns it, exactly as it owns the journal. Score and
// PublishEpoch are safe from any goroutine.
package score
