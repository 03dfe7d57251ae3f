package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/storage"
)

// journal is the one sink the ingest fold writes answered requests to: the
// local storage.Store or the Backend, whichever is configured.
type journal interface {
	Append(core.TimedRequest) error
	Flush() error
	Close() error
}

// ErrShuttingDown is returned by operations refused because the server is
// draining.
var ErrShuttingDown = errors.New("server: shutting down")

// errJournal wraps the first journal Append/Flush failure. From then on
// the server refuses ingest and detection (503) and keeps serving the last
// good epoch: nothing is ever folded or published over records the journal
// did not take.
var errJournal = errors.New("server: journal failed")

// Config parameterizes a Server.
type Config struct {
	// Base is the pre-existing friendship graph detection overlays each
	// interval's requests on (§VII). Required; its node count bounds the
	// IDs ingested events may reference. The server never mutates it.
	Base *graph.Graph

	// Detector configures each detection run. At least one termination
	// condition (TargetCount or AcceptanceThreshold) must be set. Cancel
	// is managed by the server (shutdown interrupts detection); a
	// configured Cancel is ignored.
	Detector core.DetectorOptions

	// DetectEvery runs a detection on this period. Zero disables periodic
	// detection; POST /v1/detect always works.
	DetectEvery time.Duration

	// QueueSize bounds the ingest queue; a full queue answers 429 with
	// Retry-After. Default 1024.
	QueueSize int

	// Store is the durable journal (internal/storage): checksummed
	// segments, persisted snapshots, O(delta) restart. Nil keeps the
	// journal in memory only. The server takes ownership: Recover runs
	// during New and Close during Shutdown.
	Store storage.Store

	// SnapshotEvery persists a storage snapshot after a completed
	// detection whenever at least this many journal records accumulated
	// since the last snapshot. The snapshot carries the epoch's journal
	// prefix and the epoch engine's memo, so the next boot resumes
	// detection from the memo instead of cold-detecting every interval.
	// Requires a Store; zero disables snapshotting.
	SnapshotEvery int

	// Tracer observes every detection run's pipeline events; nil disables
	// tracing at zero cost.
	Tracer obs.Tracer

	// Deprecated: ignored, the incremental engine is the only one; kept because bench/sut.go sets it.
	Incremental bool

	// DisableWarmStart makes every detection solve cold, so each published
	// epoch is byte-identical to Replay of its journal prefix. By default
	// interval sweeps are warm-started from the previous epoch's cuts
	// (quality-gated, see core.DetectWarm).
	DisableWarmStart bool

	// Score configures the real-time verdict path (GET/POST /v1/score):
	// deny/throttle thresholds and the sliding-window width of the online
	// features. The zero value takes score.Options defaults.
	Score score.Options

	// ScoreHook, when non-nil, receives every non-allow verdict the server
	// serves — the graduated-enforcement seam (osn.Enforcer.ApplyVerdict
	// slots in here). Called synchronously on the serving goroutine; keep
	// it cheap.
	ScoreHook func(score.Result)

	// Backend, when non-nil, replaces the server's own journal and
	// detection engine with an external one (see Backend; the multi-node
	// coordinator in internal/cluster is the canonical implementation).
	// The server still owns the HTTP surface, the ingest queue, the
	// published epoch, and the real-time scorer; Append/Flush/Detect are
	// delegated. Mutually exclusive with Store and SnapshotEvery — the
	// backend owns durability and detection strategy wholesale. The server
	// takes ownership: Recover runs during New and Close during Shutdown.
	Backend Backend

	// EpochHook, when non-nil, receives every published epoch: its
	// sequence number and the suspect union across intervals, ascending —
	// exactly what /v1/suspects serves. This is the observation seam for
	// live-loop embeddings (the adversary game's attacker watches the
	// defense through it, as would a dashboard or downstream enforcement
	// pipeline). Called synchronously after the epoch is visible to
	// readers; the slice is owned by the callee. Keep the hook cheap.
	EpochHook func(seq int64, suspects []graph.NodeID)
}

// Epoch is one completed detection, published atomically and served by the
// read endpoints until the next one completes.
type Epoch struct {
	// Seq numbers epochs from 0 (the recovery epoch built at startup,
	// which covers the recovered journal but holds no detection).
	Seq int64
	// Events is the number of answered requests the detection covered.
	Events int
	// Intervals holds the per-interval detections, ascending by interval.
	Intervals []core.IntervalDetection
	// Interrupted marks an epoch whose detection was cut short by
	// shutdown; Intervals is the completed prefix.
	Interrupted bool
	// CompletedAt is the detection's completion time.
	CompletedAt time.Time

	// suspects is the union of the intervals' suspect sets, ascending.
	suspects []graph.NodeID
}

type detectResult struct {
	epoch *Epoch
	err   error
}

type detectRequest struct {
	reply chan detectResult
}

// Server is the rejectod service. Construct with New, serve Handler, stop
// with Shutdown.
type Server struct {
	cfg  Config
	base *graph.Graph

	handler http.Handler

	// queue carries whole decoded batches, one entry per POST; queued is
	// the number of events in them (and in the batch being folded), the
	// unit QueueSize, queue_depth and the 429 contract are stated in.
	queue      chan *[]Event
	queued     atomic.Int64
	snapReq    chan chan []core.TimedRequest
	detectReq  chan detectRequest
	quit       chan struct{} // closed first: stops detector, cancels detection
	ingestQuit chan struct{} // closed second: ingest drains queue and exits

	detectorDone chan struct{}
	ingestDone   chan struct{}

	epoch    atomic.Pointer[Epoch]
	epochSeq int64 // detector-goroutine-owned after New

	// scorer holds the real-time verdict state: per-account online
	// features written only by the ingest goroutine (and by New during
	// recovery, before the goroutines start), plus the atomically
	// published epoch view. Score reads it lock-free from any goroutine.
	scorer *score.Scorer

	// Ack pacing (see ackHold): pace is ingestPace outside tests, zero
	// disables it; paced is in nanoseconds since born.
	pace  int64
	paced atomic.Int64
	born  time.Time

	// Ingest-loop-owned state. Written only by the ingest goroutine (and
	// by New during recovery, before the goroutine starts); other
	// goroutines reach it only through snapReq.
	events []core.TimedRequest

	// Group-commit state, written only by the ingest loop. unflushed
	// counts records the sink took since its last Flush and unflushedSince
	// is when the first of them was appended (unix ns, 0 when none);
	// commitC fires commitDelay after that and is nil while nothing is
	// unflushed, so an idle server arms no timer. after is time.After
	// outside tests.
	unflushed      atomic.Int64
	unflushedSince atomic.Int64
	commitC        <-chan time.Time
	after          func(time.Duration) <-chan time.Time

	// sink is where the ingest loop journals: store or backend, nil for a
	// memory-only server. journalErr holds its first failure (see
	// errJournal); set by the ingest loop, read by any goroutine.
	sink       journal
	journalErr atomic.Pointer[error]

	// store and backend are the two owners of durability and detection; at
	// most one is set, fixed after New. Their methods are internally
	// synchronized: the ingest loop appends and flushes through sink, the
	// detector snapshots (store) or detects (backend), HTTP readers poll
	// Stats.
	store    storage.Store
	recovery storage.RecoveryInfo
	backend  Backend

	// Detector-goroutine-owned state (after New). The journal is append-
	// only and every handed-out prefix immutable, so "the delta since the
	// last epoch" is just the log past a remembered length.
	engine        *incr.Engine // nil when a Backend detects
	engineEvents  int          // journal prefix the engine has consumed
	lastSnapCount int          // journal records covered by the latest storage snapshot
	snapErr       error        // sticky snapshot error; read after detectorDone closes
	incrStats     atomic.Pointer[incrStatsReply]

	interrupted  atomic.Bool
	shutdownOnce sync.Once
	shutdownErr  error
}

// The group-commit policy: the ingest loop flushes the journal when
// commitRecords records are unflushed or commitDelay after the oldest of
// them was appended, whichever comes first — and always before handing a
// snapshot to the detector and on shutdown. The two bound what a crash can
// lose of the events already answered 202. From the benchmark ledger: one
// flush costs ~0.4 ms and a record ~0.2 µs to fold and append, so 16384
// records per flush keeps fsync near 10 % of the loop at saturation (where
// they take ~25 ms to arrive), and 250 ms keeps it near 0.2 % when idle.
const (
	commitRecords = 1 << 14
	commitDelay   = 250 * time.Millisecond
)

// New builds a Server, recovers state from the journal if one exists, and
// starts the ingest and detector loops. The caller serves Handler and must
// call Shutdown to stop.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, time.After)
}

// newServer is New with the commit-delay timer injected.
func newServer(cfg Config, after func(time.Duration) <-chan time.Time) (*Server, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("server: Config.Base is required")
	}
	if cfg.Detector.TargetCount <= 0 && cfg.Detector.AcceptanceThreshold <= 0 {
		return nil, fmt.Errorf("server: Detector needs TargetCount or AcceptanceThreshold")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.Backend != nil && (cfg.Store != nil || cfg.SnapshotEvery > 0) {
		return nil, fmt.Errorf("server: Config.Backend owns durability; Store/SnapshotEvery do not apply")
	}
	if cfg.SnapshotEvery > 0 && cfg.Store == nil {
		return nil, fmt.Errorf("server: SnapshotEvery requires a Store")
	}
	s := &Server{
		cfg:          cfg,
		base:         cfg.Base,
		queue:        make(chan *[]Event, cfg.QueueSize), // see enqueue: one slot per reservable event, so a send never blocks
		after:        after,
		pace:         ingestPace,
		born:         time.Now(),
		snapReq:      make(chan chan []core.TimedRequest),
		detectReq:    make(chan detectRequest),
		quit:         make(chan struct{}),
		ingestQuit:   make(chan struct{}),
		detectorDone: make(chan struct{}),
		ingestDone:   make(chan struct{}),
		store:        cfg.Store,
		backend:      cfg.Backend,
	}
	sc, err := score.New(cfg.Base.NumNodes(), cfg.Score)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.scorer = sc
	// Recovery streams the journal through applyRecovered, validating each
	// record as it passes — memory tracks server state, never state plus a
	// second full copy of the journal.
	var rec storage.Recovered
	switch {
	case s.backend != nil:
		if _, err := s.backend.Recover(s.applyRecovered); err != nil {
			return nil, fmt.Errorf("server: backend recovery: %w", err)
		}
		s.sink = s.backend
	case s.store != nil:
		if rec, err = s.store.Recover(s.applyRecovered); err != nil {
			return nil, fmt.Errorf("server: recovering journal: %w", err)
		}
		s.recovery = rec.Info
		s.sink = s.store
	}
	// Replay the recovered journal into the scorer's online features. Only
	// answered requests are journaled and only answered requests advance
	// the scorer's logical clock, so a restarted server scores exactly like
	// one that never went down — the same determinism contract the
	// published epochs hold.
	for _, req := range s.events {
		s.scorer.Observe(req.From, req.Accepted)
	}
	// Epoch 0: the recovered journal, before any detection.
	s.publishEpoch(s.buildEpoch(len(s.events), nil, false))
	s.lastSnapCount = rec.SnapshotCount
	if s.backend == nil {
		det := cfg.Detector
		det.Cancel = s.quit
		eng, err := incr.NewEngine(incr.Config{
			Base:        cfg.Base,
			Detector:    det,
			DisableWarm: cfg.DisableWarmStart,
			Tracer:      cfg.Tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		// The first Step sees the journal the engine has not: everything
		// past the snapshot when it carried the engine's memo, the whole
		// recovered log otherwise.
		if rec.Memo != nil {
			if err := eng.ImportMemo(rec.Memo); err != nil {
				return nil, fmt.Errorf("server: importing engine memo: %w", err)
			}
			s.engineEvents = rec.SnapshotCount
		}
		s.engine = eng
	}
	s.handler = s.routes()
	go s.ingestLoop()
	go s.detectorLoop()
	return s, nil
}

// applyRecovered is the recovery fold shared by the store and Backend
// paths: validate each journaled record against the base graph, then
// extend the event log.
func (s *Server) applyRecovered(reqs []core.TimedRequest) error {
	for i, req := range reqs {
		if int(req.From) >= s.base.NumNodes() || int(req.To) >= s.base.NumNodes() {
			return fmt.Errorf("journal entry %d references node outside the %d-node base", len(s.events)+i, s.base.NumNodes())
		}
		if req.From == req.To {
			return fmt.Errorf("journal entry %d is a self-request at node %d", len(s.events)+i, req.From)
		}
	}
	s.events = append(s.events, reqs...)
	return nil
}

// Handler returns the server's HTTP handler (see routes in http.go).
func (s *Server) Handler() http.Handler { return s.handler }

// NumNodes reports the size of the friendship base, the bound on event
// node IDs.
func (s *Server) NumNodes() int { return s.base.NumNodes() }

// CurrentEpoch returns the most recently published epoch.
func (s *Server) CurrentEpoch() *Epoch { return s.epoch.Load() }

// ingestLoop is the single owner of mutable server state: it applies
// queued batches, journals answered requests under the group-commit
// policy, and hands out immutable event-log snapshots.
func (s *Server) ingestLoop() {
	defer close(s.ingestDone)
	for {
		select {
		case batch := <-s.queue:
			s.applyBatch(batch)
		case <-s.commitC:
			s.flushJournal()
		case reply := <-s.snapReq:
			// One group commit, then O(1): a detection never runs over
			// records the journal has not made durable.
			s.flushJournal()
			reply <- s.snapshot()
		case <-s.ingestQuit:
			// Drain: everything already queued is applied and journaled
			// before the loop exits — the graceful-shutdown guarantee.
			for {
				select {
				case batch := <-s.queue:
					s.applyBatch(batch)
				default:
					s.flushJournal()
					return
				}
			}
		}
	}
}

// applyBatch folds one queue entry into server state, releases its room in
// the queue and recycles it. The journal takes an answered request before
// anything else does, so a record the sink refused is never folded, scored,
// or detected over. Once the journal has failed, what is left of this batch
// and every later one is dropped — those events were already answered 202,
// so the drop is counted (dropped_after_journal_error).
func (s *Server) applyBatch(batch *[]Event) {
	events := *batch
	done, journaled := 0, 0
	for ; done < len(events) && s.journalErr.Load() == nil; done++ {
		req, answered := answer(events[done])
		if !answered {
			continue
		}
		if s.sink != nil {
			if err := s.sink.Append(req); err != nil {
				s.failJournal(err)
				break
			}
			journaled++
			s.noteUnflushed()
		}
		s.events = append(s.events, req)
		s.scorer.Observe(req.From, req.Accepted)
	}
	obs.Server.EventsIngested.Add(int64(done))
	obs.Server.JournalEvents.Add(int64(journaled))
	obs.Server.JournalDropped.Add(int64(len(events) - done))
	s.queued.Add(-int64(len(events)))
	obs.Server.QueueDepth.Add(-int64(len(events)))
	releaseBatch(batch)
}

// noteUnflushed counts one record the sink has just taken. The first of a
// commit window stamps it and arms the timer; the commitRecords-th closes it.
func (s *Server) noteUnflushed() {
	switch s.unflushed.Add(1) {
	case 1:
		s.unflushedSince.Store(time.Now().UnixNano())
		s.commitC = s.after(commitDelay)
	case commitRecords:
		s.flushJournal()
	}
}

// flushJournal is one group commit: everything appended so far becomes
// durable, and the commit timer is disarmed until the next record (a timer
// still pending is abandoned; it expires into a channel nobody reads).
func (s *Server) flushJournal() {
	s.commitC = nil
	if s.unflushed.Load() == 0 || s.journalErr.Load() != nil {
		return
	}
	if err := s.sink.Flush(); err != nil {
		s.failJournal(err)
		return
	}
	s.unflushed.Store(0)
	s.unflushedSince.Store(0)
}

// flushAgeMS reports how long the oldest unflushed record has waited.
func (s *Server) flushAgeMS() float64 {
	since := s.unflushedSince.Load()
	if since == 0 {
		return 0
	}
	return float64(time.Now().UnixNano()-since) / float64(time.Millisecond)
}

func (s *Server) failJournal(err error) {
	err = fmt.Errorf("%w: %v", errJournal, err)
	s.journalErr.Store(&err)
}

// journalFailure returns the sticky journal error, nil while the journal
// is healthy.
func (s *Server) journalFailure() error {
	if err := s.journalErr.Load(); err != nil {
		return *err
	}
	return nil
}

// snapshot returns the answered-request log as an immutable prefix: the
// three-index slice pins cap to len, so the ingest loop's future appends
// can never write into the handed-out window.
func (s *Server) snapshot() []core.TimedRequest {
	return s.events[:len(s.events):len(s.events)]
}

// detectorLoop serializes detection runs: explicit POST /v1/detect
// triggers and the optional periodic timer.
func (s *Server) detectorLoop() {
	defer close(s.detectorDone)
	var tick <-chan time.Time
	if s.cfg.DetectEvery > 0 {
		t := time.NewTicker(s.cfg.DetectEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.quit:
			return
		case req := <-s.detectReq:
			ep, err := s.runDetection()
			req.reply <- detectResult{epoch: ep, err: err}
		case <-tick:
			s.runDetection()
		}
	}
}

// runDetection snapshots the event log and advances detection by the
// journal's new tail — the incremental engine's Step, or the Backend's
// Detect at the same cut — publishing the result as a new epoch.
// Shutdown interrupts it between rounds; the partial epoch
// (completed-intervals prefix) is still published and the interruption
// recorded for the process exit status.
func (s *Server) runDetection() (*Epoch, error) {
	reply := make(chan []core.TimedRequest, 1)
	select {
	case s.snapReq <- reply:
	case <-s.quit:
		return nil, ErrShuttingDown
	}
	reqs := <-reply
	if err := s.journalFailure(); err != nil {
		return nil, err
	}

	obs.Server.DetectInflight.Set(1)
	defer obs.Server.DetectInflight.Set(0)
	start := time.Now()

	var (
		dets []core.IntervalDetection
		err  error
	)
	if s.backend != nil {
		// The backend is handed the epoch cut and the shutdown signal; a
		// backend refusing to start returns a plain error (never
		// core.ErrInterrupted), so no partial epoch is published for it.
		dets, err = s.backend.Detect(len(reqs), s.quit)
	} else {
		dets, err = s.stepEngine(reqs)
	}
	interrupted := errors.Is(err, core.ErrInterrupted)
	if err != nil && !interrupted {
		return nil, err
	}
	// A journal that failed while the detection ran may never have made
	// this cut's tail durable: keep the last good epoch.
	if err := s.journalFailure(); err != nil {
		return nil, err
	}

	ep := s.buildEpoch(len(reqs), dets, interrupted)
	s.publishEpoch(ep)
	obs.Server.DetectEpochs.Add(1)
	obs.Server.LastDetectMS.Set(float64(time.Since(start)) / float64(time.Millisecond))
	if interrupted {
		s.interrupted.Store(true)
		return ep, core.ErrInterrupted
	}
	s.maybeSnapshot(reqs)
	return ep, nil
}

// stepEngine advances the incremental engine to the prefix reqs. The
// engine consumes the tail before detecting, so an interrupted step loses
// nothing — the next run re-detects the stale intervals from memoized
// state.
func (s *Server) stepEngine(reqs []core.TimedRequest) ([]core.IntervalDetection, error) {
	dets, stats, err := s.engine.Step(incr.Delta{Requests: reqs[s.engineEvents:]})
	s.engineEvents = len(reqs)
	s.incrStats.Store(&incrStatsReply{
		Patched:    stats.Patched,
		ColdBuilt:  stats.ColdBuilt,
		Reused:     stats.Reused,
		WarmRounds: stats.WarmRounds,
		Fallbacks:  stats.Fallbacks,
		ColdRounds: stats.ColdRounds,
		PatchMS:    float64(stats.PatchDur) / float64(time.Millisecond),
		SolveMS:    float64(stats.SolveDur) / float64(time.Millisecond),
	})
	return dets, err
}

// maybeSnapshot persists a storage snapshot of the epoch just published
// when enough journal records accumulated since the last one. The snapshot
// covers exactly the immutable prefix this detection ran over and carries
// the engine's memo, exported right after the Step that built this epoch so
// the persisted state is the one a restart must resume from.
func (s *Server) maybeSnapshot(reqs []core.TimedRequest) {
	if s.cfg.SnapshotEvery <= 0 || len(reqs)-s.lastSnapCount < s.cfg.SnapshotEvery {
		return
	}
	memo, err := s.engine.ExportMemo()
	if err == nil {
		err = s.store.Snapshot(storage.SnapshotState{
			Count: len(reqs), Requests: reqs, Memo: memo,
		})
	}
	if err != nil {
		if s.snapErr == nil {
			s.snapErr = err
		}
		return
	}
	s.lastSnapCount = len(reqs)
}

// buildEpoch assembles an epoch over the first events journal records.
func (s *Server) buildEpoch(events int, dets []core.IntervalDetection, interrupted bool) *Epoch {
	var suspects []graph.NodeID
	for _, d := range dets {
		suspects = append(suspects, d.Detection.Suspects...)
	}
	slices.Sort(suspects)
	ep := &Epoch{
		Seq:         s.epochSeq,
		Events:      events,
		Intervals:   dets,
		Interrupted: interrupted,
		CompletedAt: time.Now(),
		suspects:    slices.Compact(suspects),
	}
	s.epochSeq++
	return ep
}

// publishEpoch makes ep the served epoch and hands its suspect set to the
// real-time scorer as an immutable view. The two stores are separate
// atomics, so for one instant /v1/suspects may serve the new epoch while a
// score still reads the old view — but each verdict reads exactly one
// view, never a blend of two suspect sets.
func (s *Server) publishEpoch(ep *Epoch) {
	s.epoch.Store(ep)
	s.scorer.PublishEpoch(score.NewEpochView(ep.Seq, int64(ep.Events), s.base.NumNodes(), ep.suspects))
	if s.cfg.EpochHook != nil {
		s.cfg.EpochHook(ep.Seq, slices.Clone(ep.suspects))
	}
	obs.Server.ScorePublishes.Add(1)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Emit(obs.Event{
			Name:     obs.EvScorePublish,
			Wall:     time.Now(),
			Suspects: len(ep.suspects),
			Nodes:    s.base.NumNodes(),
			Detail:   s.mode(),
		})
	}
}

func (s *Server) mode() string {
	if s.backend != nil {
		return s.backend.Mode()
	}
	return "incremental"
}

// Score serves one real-time verdict: the account's online features fused
// with the published epoch's suspect set (see internal/score). It is safe
// from any goroutine, lock-free, and allocation-free with no hook or
// tracer configured. Non-allow verdicts are handed to Config.ScoreHook.
func (s *Server) Score(id graph.NodeID) (score.Result, error) {
	if int(id) < 0 || int(id) >= s.base.NumNodes() {
		return score.Result{}, fmt.Errorf("server: node %d outside the %d-node base", id, s.base.NumNodes())
	}
	res := s.scorer.Score(id)
	obs.Server.ScoreRequests.Add(1)
	switch res.Verdict {
	case score.VerdictAllow:
		obs.Server.ScoreAllows.Add(1)
		return res, nil
	case score.VerdictThrottle:
		obs.Server.ScoreThrottles.Add(1)
	case score.VerdictDeny:
		obs.Server.ScoreDenies.Add(1)
	}
	if s.cfg.Tracer != nil {
		ev := obs.Event{
			Name:       obs.EvScoreEnforce,
			Wall:       time.Now(),
			Acceptance: res.Score,
			Detail:     res.Verdict.String(),
		}
		if res.Reasons&score.ReasonEpochSuspect != 0 {
			ev.Suspects = 1
		}
		s.cfg.Tracer.Emit(ev)
	}
	if s.cfg.ScoreHook != nil {
		s.cfg.ScoreHook(res)
	}
	return res, nil
}

// Scorer exposes the real-time scorer for tests and benchmarks.
func (s *Server) Scorer() *score.Scorer { return s.scorer }

// Detect triggers a detection run and waits for it, the in-process
// equivalent of POST /v1/detect. ctx bounds the wait for the detector to
// pick the request up; once running, the detection itself is bounded by
// shutdown, not ctx.
func (s *Server) Detect(ctx context.Context) (*Epoch, error) {
	req := detectRequest{reply: make(chan detectResult, 1)}
	select {
	case s.detectReq <- req:
	case <-s.quit:
		return nil, ErrShuttingDown
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	res := <-req.reply
	return res.epoch, res.err
}

// Shutdown drains the server: it stops the detector (interrupting any
// running detection between rounds), then lets the ingest loop drain every
// queued event and flush the journal. The caller must stop the HTTP layer
// first so no new events race the drain. Interrupted reports whether a
// detection round was cut short — the signal cmd/rejectod turns into exit
// status 130.
func (s *Server) Shutdown(ctx context.Context) (interrupted bool, err error) {
	s.shutdownOnce.Do(func() {
		close(s.quit)
		select {
		case <-s.detectorDone:
		case <-ctx.Done():
			s.shutdownErr = ctx.Err()
			return
		}
		close(s.ingestQuit)
		select {
		case <-s.ingestDone:
		case <-ctx.Done():
			s.shutdownErr = ctx.Err()
			return
		}
		// detectorDone closed happens-after the last snapshot attempt, so
		// snapErr is safe to read here.
		s.shutdownErr = s.journalFailure()
		if s.snapErr != nil && s.shutdownErr == nil {
			s.shutdownErr = fmt.Errorf("server: snapshot: %w", s.snapErr)
		}
		if s.sink != nil {
			if cerr := s.sink.Close(); cerr != nil && s.shutdownErr == nil {
				s.shutdownErr = cerr
			}
		}
	})
	return s.interrupted.Load(), s.shutdownErr
}

// Replay folds a lifecycle event log into its answered-request journal and
// runs the cold batch engine on it — the oracle a live server is tested
// against: a server (with DisableWarmStart) that ingested events, in any
// concurrent interleaving that preserved this log order, and then detected
// holds exactly this result.
func Replay(base *graph.Graph, events []Event, opts core.DetectorOptions) ([]core.IntervalDetection, error) {
	return core.DetectSharded(base, EventsToRequests(events), opts)
}
