package main

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// runConfig is one child process's job.
type runConfig struct {
	sp       *spec
	seed     uint64
	seconds  float64
	nodes    int
	setups   int // how many times set-up is run and timed; the last instance is measured
	traced   bool
	traceOut string
}

// report is what a child hands back to its parent: every metric of the
// run, the operation counts, and the outcome of the correctness checks.
type report struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Problems  []string  `json:"problems,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	WallS     float64   `json:"wall_s"`
	// Epochs fingerprints every detect reply of the measured instance
	// (sequence number, events covered, per-interval rounds and suspects):
	// gated cuts make it a pure function of the seed.
	Epochs string `json:"epochs"`
	// EpochS lists the epoch times behind epoch_p50_s, in order.
	EpochS []float64 `json:"epoch_s"`
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// maxLateMS is the validity limit on generator lateness: an open-loop
// operation sent later than this after it could have been sent means the
// schedule was the load generator's, not the one the workload names. The
// SUT runs in this process, so while a sweep holds every P the senders'
// timers fire late just as the server's own handlers are scheduled late;
// that is an artefact of sharing a runtime, not the generator falling
// behind, so lateness counts only operations sent while no detection was
// in flight.
const maxLateMS = 5.0

// observed is everything one run saw, before any metric is derived.
type observed struct {
	p    plan
	w    *world
	main *instance // the measured instance, closed
	open *openResult

	setupS, setupEpochS, setupE2VS []float64 // one entry per set-up
	evps                           float64
	windowStart                    time.Time
	window                         time.Duration
	heapLiveMB, rssPeakMB          float64
	restartS                       []float64
	journal                        []core.TimedRequest // as a restart would recover it

	// Traced runs only.
	windowLayer, restartLayer *layerTimes
	after                     statsReply // /v1/stats at the end of the window
}

// runWorkload runs one workload once and reports. An error means the run
// could not be completed; failed checks on a completed run are Problems.
func runWorkload(rc runConfig) (*report, error) {
	begin := time.Now()
	rep := &report{Workload: rc.sp.name, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced, Metrics: metricSet{}}
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cnt := &counters{}
	var ins *instruments
	if rc.traced {
		ins = newInstruments()
	}
	o, err := drive(rc, dir, ins, cnt)
	if err != nil {
		return nil, err
	}
	rep.check(o)
	c := o.clientSide()
	rep.endToEnd(o, c)
	if rc.traced {
		if err := rep.perLayer(o, c, ins, cnt, dir); err != nil {
			return nil, err
		}
		if rc.traceOut != "" {
			if err := writeJSONL(rc.traceOut, ins.tracer.spans); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	rep.Epochs = fingerprint(o.main.epochs)
	rep.Attempted, rep.Failed = cnt.attempted, cnt.failed
	if rep.Failed > 0 {
		rep.problem("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	rep.Correct = len(rep.Problems) == 0
	rep.WallS = secs(time.Since(begin))
	return rep, nil
}

// drive takes the SUT through the workload: set-ups, saturation, the
// measured window, shutdown, restart cycles, and reading the journal back.
func drive(rc runConfig, dir string, ins *instruments, cnt *counters) (*observed, error) {
	o := &observed{p: rc.sp.plan(rc.nodes, rc.seconds)}

	// Set-up, several times over: world, prefill, first epoch. Only the
	// last instance is kept (and, on traced runs, instrumented).
	for i := 0; i < rc.setups; i++ {
		last := i == rc.setups-1
		start := time.Now()
		o.w = newWorld(rc.seed, rc.nodes)
		var wire *instruments
		if last {
			wire = ins
		}
		in, err := openInstance(o.p, o.w, filepath.Join(dir, fmt.Sprintf("sut-%d", i)), wire, cnt)
		if err != nil {
			return nil, err
		}
		su, err := in.setup()
		if err != nil {
			return nil, errors.Join(fmt.Errorf("set-up %d: %w", i, err), in.close())
		}
		o.setupS = append(o.setupS, secs(time.Since(start)))
		o.setupEpochS = append(o.setupEpochS, secs(su.epoch.reply.Sub(su.epoch.post)))
		o.setupE2VS = append(o.setupE2VS, secs(su.eventToVerdict))
		if last {
			o.main = in
		} else if err := in.discard(); err != nil {
			return nil, err
		}
	}
	main := o.main
	fail := func(err error) (*observed, error) { return nil, errors.Join(err, main.close()) }

	// Saturation on a scratch instance, where it cannot bloat the
	// intervals the epochs are timed on.
	if !o.p.satOnMain {
		scratch, err := openInstance(o.p, o.w, filepath.Join(dir, "scratch"), nil, cnt)
		if err != nil {
			return fail(err)
		}
		if o.evps, err = scratch.saturate(o.p.satSeconds); err != nil {
			return fail(errors.Join(err, scratch.close()))
		}
		if err := scratch.discard(); err != nil {
			return fail(err)
		}
	}

	// The measured window.
	if ins != nil {
		ins.mark()
		obs.ScoreLatency.Reset()
	}
	var err error
	o.windowStart = time.Now()
	if o.p.satOnMain {
		if o.evps, err = main.saturate(o.p.satSeconds); err != nil {
			return fail(err)
		}
	}
	if o.open, err = main.openLoop(); err != nil {
		return fail(err)
	}
	o.window = time.Since(o.windowStart)
	o.heapLiveMB = liveHeapMB()
	if ins != nil {
		o.windowLayer = ins.mark()
		if o.after, err = main.poll.stats(); err != nil {
			return fail(err)
		}
	}
	if err := main.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if o.rssPeakMB, err = vmHWM(); err != nil {
		return nil, err
	}

	// Restart cycles on the directory the window left behind, then the
	// journal as one more restart would recover it.
	if o.restartS, err = restarts(main.cfg, cnt); err != nil {
		return nil, err
	}
	if ins != nil {
		o.restartLayer = ins.mark()
	}
	o.journal, err = readJournal(sutConfig{base: o.w.base, dir: main.cfg.dir, sharded: o.p.sharded})
	if err != nil {
		return nil, fmt.Errorf("reading journal back: %w", err)
	}
	return o, nil
}

// finalEpoch is the last epoch the measured instance published.
func (o *observed) finalEpoch() *epochRec { return o.main.epochs[len(o.main.epochs)-1] }

// check runs the correctness checks; each failure is a Problem.
func (rep *report) check(o *observed) {
	if err := checkJournal(o.w, o.main.phases, o.journal, o.p.sharded); err != nil {
		rep.problem("journal: %v", err)
	}
	for k, ep := range o.main.epochs {
		if ep.rep.Events != ep.wantEvents {
			rep.problem("epoch %d covers %d events, %d were answered at its cut", k, ep.rep.Events, ep.wantEvents)
		}
	}
	if o.p.checkReuse {
		if err := checkReuse(o.p, o.main.epochs); err != nil {
			rep.problem("reuse: %v", err)
		}
	}
	if o.p.sharded {
		if err := checkReplay(o.w, o.main.phases, o.finalEpoch().rep); err != nil {
			rep.problem("replay: %v", err)
		}
	}
}

// clientSide is what the open-loop phase's operation records boil down to.
type clientSide struct {
	ackMS, scoreUS, lateMS []float64
	denies                 int
}

func (o *observed) clientSide() clientSide {
	var c clientSide
	// Lateness counts only operations sent while no detection was in
	// flight (see maxLateMS).
	late := func(due, ready, sent time.Time) {
		for _, ep := range o.open.epochs {
			if !sent.Before(ep.post) && !sent.After(ep.reply) {
				return
			}
		}
		c.lateMS = append(c.lateMS, millis(sent.Sub(latest(due, ready))))
	}
	for _, b := range o.open.batches {
		c.ackMS = append(c.ackMS, millis(b.done.Sub(latencyStart(b.due, b.ready, b.sent))))
		late(b.due, b.ready, b.sent)
	}
	for _, s := range o.open.scores {
		late(s.due, s.ready, s.sent)
		if !s.ok {
			continue
		}
		c.scoreUS = append(c.scoreUS, micros(s.done.Sub(latencyStart(s.due, s.ready, s.sent))))
		if s.deny {
			c.denies++
		}
	}
	return c
}

// endToEnd derives the gated metrics (and the three demoted ones, which
// are the same arithmetic) and applies the checks that need them.
func (rep *report) endToEnd(o *observed, c clientSide) {
	m := rep.Metrics
	m.put("setup_s", median(o.setupS), len(o.setupS))
	m.put("ingest_evps", o.evps, 1)
	m.put("ingest_ack_p10_ms", quantile(c.ackMS, 0.10), len(c.ackMS))
	m.put("ingest_ack_p50_ms", quantile(c.ackMS, 0.50), len(c.ackMS))
	m.put("ingest_ack_p99_ms", quantile(c.ackMS, 0.99), len(c.ackMS))
	m.put("score_p50_us", quantile(c.scoreUS, 0.50), len(c.scoreUS))
	m.put("score_p99_us", quantile(c.scoreUS, 0.99), len(c.scoreUS))

	// Epoch timings: the window's gated epochs, or — on a workload that
	// runs none — the cold epochs of its set-ups.
	epochS, e2vS := o.setupEpochS, o.setupE2VS
	if len(o.open.epochs) > 0 {
		epochS, e2vS = nil, nil
		for k, ep := range o.open.epochs {
			epochS = append(epochS, secs(ep.reply.Sub(ep.post)))
			if at, ok := firstVerdictAt(o.open.scores, ep.rep.Epoch); ok {
				e2vS = append(e2vS, secs(at.Sub(ep.lastDue)))
			} else {
				rep.problem("epoch %d: no /v1/score reply showed epoch %d", k, ep.rep.Epoch)
			}
		}
	}
	rep.EpochS = epochS
	m.put("epoch_p50_s", cycleMedian(epochS, o.p.advanceEvery), len(epochS))
	m.put("event_to_verdict_p50_s", cycleMedian(e2vS, o.p.advanceEvery), len(e2vS))
	m.put("restart_s", quantile(o.restartS, 0.25), len(o.restartS))

	suspects := suspectUnion(o.finalEpoch().rep)
	recall, precision := recallPrecision(suspects, o.w.spammers)
	if recall < o.p.recallFloor() || precision < precisionFloor {
		rep.problem("detection quality: recall %.3f (floor %.2f), precision %.3f (floor %.2f)", recall, o.p.recallFloor(), precision, precisionFloor)
	}
	m.put("detect_recall", recall, o.w.spammers)
	m.put("detect_precision", precision, len(suspects))
	m.put("heap_live_mb", o.heapLiveMB, 1)
	m.put("rss_peak_mb", o.rssPeakMB, 1)

	m.put("gen.late_p99_ms", quantile(c.lateMS, 0.99), len(c.lateMS))
	if late := m["gen.late_p99_ms"].Value; late > maxLateMS {
		rep.problem("load generator ran late: gen.late_p99_ms = %.2f > %.0f", late, maxLateMS)
	}
}

// perLayer derives the traced run's metrics: client-side counts, the
// /v1/stats samples (S), the decorators (W), the spans (T), the ledger (L).
func (rep *report) perLayer(o *observed, c clientSide, ins *instruments, cnt *counters, dir string) error {
	m := rep.Metrics
	open, main := o.open, o.main
	m.put("gen.encode_ns_per_event", ratio(float64(cnt.encodeNS), float64(cnt.encodedEvents)), int(cnt.encodedEvents))
	m.put("server.backpressure_429s", float64(cnt.backpressure), 0)
	m.put("server.gate_hold_ms_total", millis(open.gateHold), len(open.epochs))
	m.put("server.queue_depth_p50", quantile(open.queueDepth, 0.5), len(open.queueDepth))
	m.put("server.queue_depth_max", quantile(open.queueDepth, 1), len(open.queueDepth))
	lag := foldLag(main, open)
	m.put("server.fold_lag_p50_ms", quantile(lag, 0.50), len(lag))
	m.put("server.fold_lag_p99_ms", quantile(lag, 0.99), len(lag))
	m.put("score.server_p50_us", o.after.Score.P50US, len(c.scoreUS))
	m.put("score.server_p99_us", o.after.Score.P99US, len(c.scoreUS))
	m.put("server.http_overhead_us", quantile(c.scoreUS, 0.50)-o.after.Score.P50US, len(c.scoreUS))
	m.put("score.verdict_deny_frac", ratio(float64(c.denies), float64(len(c.scoreUS))), len(c.scoreUS))

	// The epochs of record: the window's, or the set-up epoch when that is
	// the only one the workload ran.
	epochs, before := open.epochs, main.epochs[0].stats
	if len(epochs) == 0 {
		epochs, before = main.epochs, statsReply{}
	}
	statsMetrics(m, epochs, before, o.p.sharded)
	layerMetrics(m, o.windowLayer, o.restartLayer, o.window, o.p.sharded)
	bytesPerRec, err := storeBytesPerRecord(main.cfg.dir, len(o.journal))
	if err != nil {
		return err
	}
	m.put("storage.bytes_per_rec", bytesPerRec, len(o.journal))
	spanMetrics(m, ins.tracer.finish(), o.windowStart.Sub(ins.tracer.t0).Nanoseconds(), len(open.epochs) == 0)

	final := o.finalEpoch().rep
	err = runLedger(ledgerInput{w: o.w, p: o.p, journal: o.journal, finalEvent: final.Events, suspects: suspectUnion(final), dir: dir}, m)
	if err != nil {
		return err
	}
	// The share of the machine's CPU at saturation that the ledger's
	// stages do not explain: stage ns per event × events per second,
	// against GOMAXPROCS core-seconds per second.
	m.put("ledger.ingest_unattributed_frac", 1-m["ledger.ingest_ns_per_event"].Value*o.evps/(1e9*float64(runtime.GOMAXPROCS(0))), 0)
	return nil
}

// cycleMedian is the median epoch time of a workload whose epochs come in
// cycles of different kinds (steady_epochs: one epoch that opens a new
// interval, then one that patches it in place). The plain median of such
// a two-humped sample sits between the humps and jumps with one noisy
// epoch; the median over whole cycles, divided by the cycle length, is
// the same quantity without the jump.
func cycleMedian(xs []float64, cycle int) float64 {
	if cycle < 2 || len(xs) < cycle {
		return median(xs)
	}
	var means []float64
	for i := 0; i+cycle <= len(xs); i += cycle {
		means = append(means, mean(xs[i:i+cycle]))
	}
	return median(means)
}

func fingerprint(epochs []*epochRec) string {
	h := fnv.New64a()
	for _, ep := range epochs {
		fmt.Fprintf(h, "%d/%d:", ep.rep.Epoch, ep.rep.Events)
		for _, iv := range ep.rep.Intervals {
			fmt.Fprintf(h, "%d.%d%v", iv.Interval, iv.Rounds, iv.Suspects)
		}
	}
	return fmt.Sprintf("%d epochs %016x", len(epochs), h.Sum64())
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// foldLag is, per open-loop batch, the time from its due time to the first
// /v1/score reply whose clock (the epoch's events plus staleness_events)
// covers the batch's answered requests: how long the batch took to become
// visible to the real-time path. Resolution is the score stream's period.
func foldLag(in *instance, open *openResult) []float64 {
	epochEvents := map[int64]int64{0: 0}
	for _, ep := range in.epochs {
		epochEvents[ep.rep.Epoch] = int64(ep.rep.Events)
	}
	var lags []float64
	k := 0
	for _, b := range open.batches {
		for ; k < len(open.scores); k++ {
			s := open.scores[k]
			ev, known := epochEvents[s.epoch]
			if s.ok && known && ev+s.staleness >= int64(b.answeredAfter) {
				break
			}
		}
		if k == len(open.scores) {
			break
		}
		if d := open.scores[k].done.Sub(b.due); d > 0 {
			lags = append(lags, millis(d))
		}
	}
	return lags
}

// statsMetrics turns the /v1/stats samples taken after each detect reply
// into the incr.* (and, sharded, cluster.*) per-epoch metrics. epochs are
// the epochs of record; before is the sample preceding the first of them.
func statsMetrics(m metricSet, epochs []*epochRec, before statsReply, sharded bool) {
	var readModel, patchMS, solveMS, mergeMS []float64
	var reusedN, patchedN, coldN, warm, fallbacks, coldRounds float64
	for _, ep := range epochs {
		b, _ := epochBreakdown(ep.stats, before)
		before = ep.stats
		reusedN, patchedN, coldN = reusedN+float64(b.reused), patchedN+float64(b.patched), coldN+float64(b.cold)
		patchMS, solveMS = append(patchMS, b.patchMS), append(solveMS, b.solveMS)
		if inc := ep.stats.Incr; inc != nil {
			readModel = append(readModel, inc.ReadModelMS)
			warm, fallbacks, coldRounds = warm+float64(inc.WarmRounds), fallbacks+float64(inc.Fallbacks), coldRounds+float64(inc.ColdRounds)
		}
		if be := ep.stats.Backend; be != nil {
			mergeMS = append(mergeMS, be.LastMergeMS)
		}
	}
	n := float64(len(epochs))
	m.put("incr.read_model_ms_p50", median(readModel), len(readModel))
	m.put("incr.patch_ms_p50", median(patchMS), len(patchMS))
	m.put("incr.solve_ms_p50", median(solveMS), len(solveMS))
	m.put("incr.reused_per_epoch", ratio(reusedN, n), len(epochs))
	m.put("incr.patched_per_epoch", ratio(patchedN, n), len(epochs))
	m.put("incr.cold_built_per_epoch", ratio(coldN, n), len(epochs))
	m.put("incr.warm_rounds_per_epoch", ratio(warm, n), len(epochs))
	m.put("incr.fallbacks_per_epoch", ratio(fallbacks, n), len(epochs))
	m.put("incr.cold_rounds_per_epoch", ratio(coldRounds, n), len(epochs))
	m.put("incr.warm_useful_frac", ratio(warm, warm+fallbacks), len(epochs))
	if !sharded {
		return
	}
	m.put("cluster.merge_ms_p50", median(mergeMS), len(mergeMS))
	if be := epochs[len(epochs)-1].stats.Backend; be != nil {
		m.put("cluster.boundary_frac", ratio(float64(be.Boundary), float64(be.Records)), int(be.Records))
		var most, sum float64
		for _, sh := range be.PerShard {
			most, sum = max(most, float64(sh.Records)), sum+float64(sh.Records)
		}
		m.put("cluster.shard_skew", ratio(most*float64(len(be.PerShard)), sum), len(be.PerShard))
	}
}

// layerMetrics reports what the W decorators timed: the window's writes
// under storage.* (cluster.* when the decorated value is the coordinator)
// and the restart cycles' recoveries.
func layerMetrics(m metricSet, win, restart *layerTimes, window time.Duration, sharded bool) {
	flushUS, flushBusy := win.flushes.values(time.Microsecond)
	recs := float64(win.appends.calls.Load())
	if sharded {
		detectMS, _ := win.detects.values(time.Millisecond)
		m.put("cluster.append_ns_per_rec", win.appends.nsPerCall(), int(win.appends.sampled.Load()))
		m.put("cluster.flush_p50_us", quantile(flushUS, 0.5), len(flushUS))
		m.put("cluster.detect_p50_ms", median(detectMS), len(detectMS))
	} else {
		snapMS, snapBusy := win.snapshots.values(time.Millisecond)
		m.put("storage.append_ns_per_rec", win.appends.nsPerCall(), int(win.appends.sampled.Load()))
		m.put("storage.flush_count", float64(len(flushUS)), 0)
		m.put("storage.recs_per_flush", ratio(recs, float64(len(flushUS))), len(flushUS))
		m.put("storage.flush_p50_us", quantile(flushUS, 0.50), len(flushUS))
		m.put("storage.flush_p99_us", quantile(flushUS, 0.99), len(flushUS))
		m.put("storage.busy_frac", (win.appends.busyNS()+float64(flushBusy+snapBusy))/float64(window), 0)
		m.put("storage.snapshot_count", float64(len(snapMS)), 0)
		m.put("storage.snapshot_p50_ms", median(snapMS), len(snapMS))
	}
	recoverMS, recoverBusy := restart.recovers.values(time.Millisecond)
	m.put("storage.recover_ms", median(recoverMS), len(recoverMS))
	m.put("storage.recover_recs_per_s", ratio(float64(restart.recovered.Load()), recoverBusy.Seconds()), len(recoverMS))
}

// spanMetrics derives the core/kl/ml/cluster/dist metrics from the T
// sink's spans. Only spans inside a bench.detect span of the window count
// (any epoch when the workload's only epoch is its set-up one); ships and
// their RPCs ride on Flush, outside any detect, and count from the
// window's start.
func spanMetrics(m metricSet, spans []span, windowStartNS int64, setupEpochs bool) {
	firstWindowEpoch := 1 // epoch 0 is the traced instance's set-up epoch
	if setupEpochs {
		firstWindowEpoch = 0
	}
	type epochAgg struct {
		detectNS, shardMaxNS, mergeNS int64
		attributed                    int64
	}
	aggs := map[int]*epochAgg{}
	var solveMS, rpcUS []float64
	var rounds, solves, passes, switches, rollbacks, mlFallbacks, retries float64
	var sweepSelf, freezeNS, pruneNS, coarsenNS, mlSolveNS, refineNS, shipNS int64
	var detectSpanNS, detectSelfNS int64
	for i := range spans {
		s := &spans[i]
		if s.Epoch < 0 && s.Start >= windowStartNS {
			switch s.Name {
			case obs.EvClusterShip:
				shipNS += s.dur()
			case obs.EvDistRPC:
				rpcUS = append(rpcUS, float64(s.dur())/1e3)
			case obs.EvDistRetry:
				retries++
			}
		}
		if s.Epoch < firstWindowEpoch {
			continue
		}
		a := aggs[s.Epoch]
		if a == nil {
			a = &epochAgg{}
			aggs[s.Epoch] = a
		}
		switch s.Name {
		case spanBenchDetect:
			detectSpanNS += s.dur()
			detectSelfNS += s.self
		case obs.EvDetectDone:
			a.detectNS += s.dur()
		case obs.EvRoundDone:
			rounds++
			sweepSelf += s.self
		case obs.EvSweepDone, obs.EvIncrWarm, obs.EvIncrFallback:
			sweepSelf += s.self
		case obs.EvSolveDone:
			solves++
			passes += float64(s.Passes)
			switches += float64(s.Switches)
			rollbacks += float64(s.Rollbacks)
			solveMS = append(solveMS, float64(s.dur())/1e6)
		case obs.EvFreeze:
			freezeNS += s.dur()
		case obs.EvPrune:
			pruneNS += s.dur()
		case obs.EvMLCoarsen:
			coarsenNS += s.dur()
		case obs.EvMLSolve:
			mlSolveNS += s.dur()
		case obs.EvMLRefine:
			refineNS += s.dur()
		case obs.EvMLFallback:
			mlFallbacks++
		case obs.EvClusterShip:
			shipNS += s.dur()
		case obs.EvClusterDetect:
			a.shardMaxNS = max(a.shardMaxNS, s.dur())
		case obs.EvClusterMerge:
			a.mergeNS += s.dur()
		case obs.EvDistRPC:
			rpcUS = append(rpcUS, float64(s.dur())/1e3)
		case obs.EvDistRetry:
			retries++
		}
	}
	var detectMS, shardMaxMS, coordSelfMS []float64
	for _, a := range aggs {
		detectMS = append(detectMS, float64(a.detectNS)/1e6)
		if a.mergeNS > 0 {
			shardMaxMS = append(shardMaxMS, float64(a.shardMaxNS)/1e6)
			coordSelfMS = append(coordSelfMS, float64(a.mergeNS-a.shardMaxNS)/1e6)
		}
	}
	n := float64(len(aggs))
	perEpochMS := func(ns int64) float64 { return ratio(float64(ns)/1e6, n) }
	m.put("trace.spans", float64(len(spans)), 0)
	m.put("core.detect_ms_p50", median(detectMS), len(detectMS))
	m.put("core.rounds_per_epoch", ratio(rounds, n), len(aggs))
	m.put("core.solves_per_epoch", ratio(solves, n), len(aggs))
	m.put("core.sweep_ms_per_epoch", perEpochMS(sweepSelf), len(aggs))
	m.put("core.freeze_ms_per_epoch", perEpochMS(freezeNS), len(aggs))
	m.put("core.prune_ms_per_epoch", perEpochMS(pruneNS), len(aggs))
	m.put("kl.solve_p50_ms", median(solveMS), len(solveMS))
	m.put("kl.passes_per_solve", ratio(passes, solves), int(solves))
	m.put("kl.switches_per_epoch", ratio(switches, n), len(aggs))
	m.put("kl.rollback_frac", ratio(rollbacks, switches), int(switches))
	m.put("ml.coarsen_ms_per_epoch", perEpochMS(coarsenNS), len(aggs))
	m.put("ml.solve_ms_per_epoch", perEpochMS(mlSolveNS), len(aggs))
	m.put("ml.refine_ms_per_epoch", perEpochMS(refineNS), len(aggs))
	m.put("ml.fallbacks_per_epoch", ratio(mlFallbacks, n), len(aggs))
	m.put("ledger.epoch_unattributed_frac", ratio(float64(detectSelfNS), float64(detectSpanNS)), len(aggs))
	if len(shardMaxMS) > 0 {
		m.put("cluster.ship_ms_per_epoch", perEpochMS(shipNS), len(aggs))
		m.put("cluster.shard_detect_max_ms", median(shardMaxMS), len(shardMaxMS))
		m.put("cluster.coord_self_ms_per_epoch", mean(coordSelfMS), len(coordSelfMS))
		m.put("dist.rpc_count", float64(len(rpcUS)), 0)
		m.put("dist.rpc_p50_us", quantile(rpcUS, 0.5), len(rpcUS))
		m.put("dist.retries", retries, 0)
	}
}

// storeBytesPerRecord is the on-disk size of the store directory per
// journal record.
func storeBytesPerRecord(dir string, records int) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return ratio(float64(total), float64(records)), err
}

// liveHeapMB is the heap still reachable after a collection: what the SUT
// (and the few MB of records the load generator keeps) holds on to, without
// the garbage a peak-RSS reading mixes in according to when the collector
// last ran.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// vmHWM is this process's peak resident set, in MB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}
