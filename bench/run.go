package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/server"
)

// phaseStream records what one stream sent in a phase, so the run's whole
// input can be regenerated from the seed for the correctness checks.
type phaseStream struct {
	name           string
	stride, parity int
	events         int
	ivOf           intervalFn
}

func (ps phaseStream) regenerate(w *world) []server.Event {
	return w.stream(ps.name, ps.stride, ps.parity).fill(make([]server.Event, 0, ps.events), ps.events, 0, ps.ivOf)
}

// phaseRecord is one drained phase: the journal holds its streams'
// answered requests contiguously, interleaved if there were two.
type phaseRecord struct {
	name    string
	streams []phaseStream
}

// batchRec / scoreRec are single open-loop operations. ready is when the
// connection (and, for ingest, the cut gate) allowed the send, so
// sent - max(due, ready) is how late the generator itself ran.
//
// An operation's latency runs from its due time when the connection was
// still busy then — a stall upstream delays what queues behind it, and
// that wait is the server's — and from the actual send otherwise: a
// sender woken a fraction of a millisecond late by its timer is the load
// generator's own tardiness (reported as gen.late_p99_ms), and with
// ~0.7 ms of it on a ~0.1 ms reply it would otherwise be the measurement.
type batchRec struct {
	due, ready, sent, done time.Time
	answeredAfter          int // journal length once this batch is folded
}

type scoreRec struct {
	due, ready, sent, done time.Time
	epoch                  int64
	staleness              int64
	deny, ok               bool
}

func latencyStart(due, ready, sent time.Time) time.Time {
	if ready.After(due) {
		return due
	}
	return sent
}

// epochRec is one /v1/detect call.
type epochRec struct {
	lastDue     time.Time // due time of the last event before the cut
	post, reply time.Time
	wantEvents  int
	rep         detectReply
	stats       statsReply // sampled right after the reply
	err         error
}

// counters are the run's operation and validity tallies.
type counters struct {
	mu            sync.Mutex
	attempted     int
	failed        int
	backpressure  int
	encodeNS      int64
	encodedEvents int64
}

func (c *counters) op(ok bool) {
	c.mu.Lock()
	c.attempted++
	if !ok {
		c.failed++
	}
	c.mu.Unlock()
}

// instance is one SUT under load: the live server, its control
// connections, and the bookkeeping the gates and checks need.
type instance struct {
	p    plan
	w    *world
	cfg  sutConfig
	sut  *sut
	ins  *instruments // nil on untraced runs
	cnt  *counters
	ctl  *conn // /v1/detect, then /v1/stats once the reply is in
	poll *conn // /v1/stats while a gate is held

	baseIngested int64 // process-global events_ingested when sent was 0
	sent         int   // events acked so far
	answered     int   // answered requests among them = expected journal length
	phases       []phaseRecord
	epochs       []*epochRec
}

func openInstance(p plan, w *world, dir string, ins *instruments, cnt *counters) (*instance, error) {
	cfg := sutConfig{base: w.base, dir: dir, sharded: p.sharded}
	if ins != nil {
		ins.wire(&cfg)
	}
	s, err := openSUT(cfg)
	if err != nil {
		return nil, err
	}
	in := &instance{p: p, w: w, cfg: cfg, sut: s, ins: ins, cnt: cnt, ctl: newConn(s.addr), poll: newConn(s.addr)}
	if err := in.rebase(); err != nil {
		return nil, errors.Join(err, in.close())
	}
	return in, nil
}

// rebase re-reads the baseline of the process-global events_ingested
// counter. Instances never ingest concurrently but they do take turns, so
// every phase starts by discounting what other instances folded since
// this one last looked. The instance must be drained.
func (in *instance) rebase() error {
	st, err := in.poll.stats()
	if err != nil {
		return err
	}
	in.baseIngested = st.EventsIngested - int64(in.sent)
	return nil
}

func (in *instance) close() error {
	in.ctl.close()
	in.poll.close()
	return in.sut.close()
}

// discard closes an instance nothing more will be read from and removes
// its store directory.
func (in *instance) discard() error {
	return errors.Join(in.close(), os.RemoveAll(in.cfg.dir))
}

const (
	pollEvery   = 200 * time.Microsecond
	gateTimeout = 120 * time.Second
)

// waitFolded blocks until the ingest loop has folded every event acked so
// far — the drain barrier between phases and the first half of a cut gate.
func (in *instance) waitFolded() error {
	deadline := time.Now().Add(gateTimeout)
	for {
		st, err := in.poll.stats()
		if err != nil {
			return err
		}
		if got := int(st.EventsIngested - in.baseIngested); got == in.sent {
			return nil
		} else if got > in.sent {
			return fmt.Errorf("server folded %d events, only %d were acked", got, in.sent)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %d events to fold", in.sent)
		}
		time.Sleep(pollEvery)
	}
}

// sendBatch posts one batch, retrying the refused tail on 429 when the
// phase is closed-loop. It returns the first error that makes the run's
// bookkeeping unusable.
func (in *instance) sendBatch(c *conn, evs []server.Event, body []byte, closedLoop bool) ([]byte, error) {
	for {
		status, accepted, err := c.postEvents(body)
		switch {
		case err != nil:
			in.cnt.op(false)
			return body, err
		case status == http.StatusAccepted:
			in.cnt.op(true)
			return body, nil
		case status == http.StatusTooManyRequests && closedLoop:
			// Back-pressure, not failure: resend what was refused.
			in.cnt.mu.Lock()
			in.cnt.backpressure++
			in.cnt.mu.Unlock()
			evs = evs[accepted:]
			body = appendEvents(body[:0], evs)
			time.Sleep(pollEvery)
		default:
			in.cnt.op(false)
			return body, fmt.Errorf("POST /v1/events: status %d", status)
		}
	}
}

func (in *instance) encode(body []byte, evs []server.Event) []byte {
	start := time.Now()
	body = appendEvents(body[:0], evs)
	in.cnt.mu.Lock()
	in.cnt.encodeNS += time.Since(start).Nanoseconds()
	in.cnt.encodedEvents += int64(len(evs))
	in.cnt.mu.Unlock()
	return body
}

// closedLoop streams total events of one stream over one connection as
// fast as the server acks them.
func (in *instance) closedLoop(st *stream, total int, ivOf intervalFn) error {
	c := newConn(in.sut.addr)
	defer c.close()
	var (
		evs  []server.Event
		body []byte
		err  error
	)
	for sent := 0; sent < total; sent += len(evs) {
		evs = st.fill(evs[:0], min(satBatch, total-sent), sent, ivOf)
		body = in.encode(body, evs)
		if body, err = in.sendBatch(c, evs, body, true); err != nil {
			return err
		}
	}
	return nil
}

// setupResult is one timed set-up: prefill, drain, first epoch.
type setupResult struct {
	epoch          *epochRec
	eventToVerdict time.Duration
}

// setup prefills the instance over one connection and publishes its first
// epoch, polling /v1/score so the event→verdict time of the cold epoch is
// known too.
func (in *instance) setup() (setupResult, error) {
	st := in.w.stream("prefill", 1, 0)
	total := in.p.prefillIntervals * in.p.prefillPer
	ivOf := in.p.prefillInterval()
	if err := in.closedLoop(st, total, ivOf); err != nil {
		return setupResult{}, fmt.Errorf("prefill: %w", err)
	}
	lastSent := time.Now()
	in.sent += total
	in.answered += st.answered
	in.phases = append(in.phases, phaseRecord{"prefill", []phaseStream{{"prefill", 1, 0, total, ivOf}}})
	if err := in.waitFolded(); err != nil {
		return setupResult{}, err
	}
	stop := make(chan struct{})
	scores := make(chan []scoreRec, 1)
	go func() { scores <- in.scoreStream(time.Now(), stop, "score.setup") }()
	ep := in.detect(lastSent, in.answered)
	close(stop)
	recs := <-scores
	if ep.err != nil {
		return setupResult{}, ep.err
	}
	res := setupResult{epoch: ep}
	if first, ok := firstVerdictAt(recs, ep.rep.Epoch); ok {
		res.eventToVerdict = first.Sub(lastSent)
	} else {
		return res, fmt.Errorf("set-up: no /v1/score reply showed epoch %d", ep.rep.Epoch)
	}
	return res, nil
}

// detect posts /v1/detect on the control connection and samples
// /v1/stats once the reply is in.
func (in *instance) detect(lastDue time.Time, wantEvents int) *epochRec {
	ep := &epochRec{lastDue: lastDue, wantEvents: wantEvents, post: time.Now()}
	ep.rep, ep.err = in.ctl.detect()
	ep.reply = time.Now()
	in.cnt.op(ep.err == nil)
	if in.ins != nil {
		in.ins.tracer.add(spanBenchDetect, ep.post, ep.reply)
	}
	if ep.err == nil {
		ep.stats, ep.err = in.ctl.stats()
	}
	in.epochs = append(in.epochs, ep)
	return ep
}

// scoreStream issues open-loop /v1/score requests on one connection at
// scoreRate until stop closes and a verdict from the final epoch has been
// seen (or two more seconds pass). Half the IDs are uniform, half come
// from the spam slice.
func (in *instance) scoreStream(start time.Time, stop <-chan struct{}, streamName string) []scoreRec {
	c := newConn(in.sut.addr)
	defer c.close()
	r := in.w.src.Stream(streamName)
	period := time.Second / scoreRate
	var (
		recs     []scoreRec
		ready    = start
		stopped  time.Time
		lastSeen int64 = -1
	)
	for j := 0; ; j++ {
		if stopped.IsZero() {
			select {
			case <-stop:
				stopped = time.Now()
			default:
			}
		}
		if !stopped.IsZero() {
			want := int64(-1)
			if n := len(in.epochs); n > 0 && in.epochs[n-1].err == nil {
				want = in.epochs[n-1].rep.Epoch
			}
			if lastSeen >= want || time.Since(stopped) > 2*time.Second {
				return recs
			}
		}
		id := r.IntN(in.w.n)
		if j%2 == 1 {
			id = r.IntN(in.w.spammers)
		}
		rec := scoreRec{due: start.Add(time.Duration(j) * period), ready: ready}
		sleepUntil(rec.due)
		rec.sent = time.Now()
		rep, err := c.score(id)
		rec.done = time.Now()
		rec.ok = err == nil
		in.cnt.op(rec.ok)
		if rec.ok {
			rec.epoch, rec.staleness, rec.deny = rep.Epoch, rep.StalenessEvents, rep.Verdict == "deny"
			lastSeen = rep.Epoch
		}
		ready = rec.done
		recs = append(recs, rec)
	}
}

// firstVerdictAt is when the first reply carrying epoch ≥ seq arrived.
func firstVerdictAt(recs []scoreRec, seq int64) (time.Time, bool) {
	for _, r := range recs {
		if r.ok && r.epoch >= seq {
			return r.done, true
		}
	}
	return time.Time{}, false
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// saturate drives two closed-loop connections for about the given time
// and returns the folded events per second, as the upper quartile over 100 ms
// slices of the events_ingested counter. Slices run from 0.4 to 0.9 M
// events/s inside one phase and everything that disturbs one — a GC
// cycle, a map rehash, a segment roll, a busy neighbour on the host —
// slows it down, so the mean and even the median follow the disturbances;
// the upper quartile is the rate the server sustains between them, and a
// change that makes ingest cheaper or dearer moves every slice alike.
func (in *instance) saturate(seconds float64) (float64, error) {
	if err := in.rebase(); err != nil {
		return 0, err
	}
	// A fixed volume rather than a fixed time: what the phase leaves in
	// the journal, the heap and the lifecycle map is then the same on a
	// fast run and a slow one. It lasts `seconds` at satNominalRate.
	perConn := max(1, int(seconds*satNominalRate/2/satBatch)) * satBatch
	ivOf := in.p.satInterval()
	var (
		streams [2]*stream
		errs    [2]error
		done    = make(chan int, len(streams))
	)
	for i := range streams {
		streams[i] = in.w.stream(fmt.Sprintf("sat%d", i), 2, i)
		go func() {
			errs[i] = in.closedLoop(streams[i], perConn, ivOf)
			done <- i
		}()
	}
	var rates []float64
	lastAt, lastN := time.Now(), in.baseIngested+int64(in.sent)
	tick := time.NewTicker(satSlice)
	defer tick.Stop()
	for running := len(streams); running > 0; {
		select {
		case <-done:
			running--
		case <-tick.C:
			st, err := in.poll.stats()
			if err != nil {
				errs[0] = errors.Join(errs[0], err)
				continue
			}
			now := time.Now()
			rates = append(rates, float64(st.EventsIngested-lastN)/now.Sub(lastAt).Seconds())
			lastAt, lastN = now, st.EventsIngested
		}
	}
	if err := errors.Join(errs[:]...); err != nil {
		return 0, fmt.Errorf("saturation: %w", err)
	}
	rec := phaseRecord{name: "saturation"}
	for i, st := range streams {
		in.sent += perConn
		in.answered += st.answered
		rec.streams = append(rec.streams, phaseStream{fmt.Sprintf("sat%d", i), 2, i, perConn, ivOf})
	}
	in.phases = append(in.phases, rec)
	if err := in.waitFolded(); err != nil {
		return 0, err
	}
	return quantile(rates, 0.75), nil
}

const (
	satSlice       = 100 * time.Millisecond
	satNominalRate = 700_000 // events/s the saturation volume is sized for
)

// openResult is what the open-loop phase observed.
type openResult struct {
	batches    []batchRec
	scores     []scoreRec
	epochs     []*epochRec
	gateHold   time.Duration
	queueDepth []float64 // traced runs: /v1/stats samples
}

// openLoop sends the plan's batches at their scheduled times on one
// connection beside the score stream. After every cut it holds the gate:
// the next batch is withheld until the server has folded everything sent,
// the previous detect has replied, and the new detect is seen in flight
// (or has already replied) — so every epoch covers exactly the events
// before its cut, run after run. Batches keep their due times, so a held
// gate is charged to ack latency.
func (in *instance) openLoop() (*openResult, error) {
	if err := in.rebase(); err != nil {
		return nil, err
	}
	res := &openResult{}
	c := newConn(in.sut.addr)
	defer c.close()
	st := in.w.stream("open", 1, 0)
	ivOf := in.p.openInterval()
	batch := in.p.openBatch
	period := time.Duration(float64(batch) / in.p.rate * float64(time.Second))
	answered0 := in.answered

	start := time.Now().Add(5 * time.Millisecond)
	stopScores := make(chan struct{})
	scores := make(chan []scoreRec, 1)
	go func() { scores <- in.scoreStream(start, stopScores, "score.open") }()
	stopSampler := make(chan struct{})
	depths := make(chan []float64, 1)
	go func() { depths <- in.sampleQueue(stopSampler) }()
	finish := func() {
		close(stopScores)
		close(stopSampler)
		res.scores = <-scores
		res.queueDepth = <-depths
	}

	var (
		evs      []server.Event
		body     []byte
		err      error
		ready    = start
		inflight chan *epochRec // the previous cut's detect
	)
	firstEpoch := len(in.epochs)
	for i := 0; i < in.p.openBatches; i++ {
		evs = st.fill(evs[:0], batch, i*batch, ivOf)
		body = in.encode(body, evs)
		rec := batchRec{due: start.Add(time.Duration(i) * period), ready: ready, answeredAfter: answered0 + st.answered}
		sleepUntil(rec.due)
		rec.sent = time.Now()
		body, err = in.sendBatch(c, evs, body, false)
		rec.done = time.Now()
		if err != nil {
			finish()
			return nil, fmt.Errorf("open loop batch %d: %w", i, err)
		}
		ready = rec.done
		res.batches = append(res.batches, rec)
		in.sent += batch
		in.answered = answered0 + st.answered

		if in.p.cut == 0 || (i+1)%in.p.batchesPerCut != 0 {
			continue
		}
		gateStart := time.Now()
		if err = in.waitFolded(); err == nil && inflight != nil {
			err = (<-inflight).err
		}
		if err != nil {
			finish()
			return nil, fmt.Errorf("cut %d: %w", (i+1)/in.p.batchesPerCut, err)
		}
		inflight = make(chan *epochRec, 1)
		go func(ch chan *epochRec, lastDue time.Time, want int) { ch <- in.detect(lastDue, want) }(inflight, rec.due, in.answered)
		// The cut is taken once the detector has snapshotted the log:
		// detect_inflight flips after that, or the reply is already in.
		for taken := false; !taken; {
			select {
			case ep := <-inflight:
				inflight <- ep
				taken = true
			default:
				s, serr := in.poll.stats()
				if serr != nil {
					finish()
					return nil, serr
				}
				if taken = s.DetectInflight; !taken {
					time.Sleep(pollEvery)
				}
			}
		}
		ready = time.Now()
		res.gateHold += ready.Sub(gateStart)
	}
	if inflight != nil {
		err = (<-inflight).err
	}
	finish()
	if err != nil {
		return nil, err
	}
	in.phases = append(in.phases, phaseRecord{"open", []phaseStream{{"open", 1, 0, in.p.openBatches * batch, ivOf}}})
	if err := in.waitFolded(); err != nil {
		return nil, err
	}
	res.epochs = in.epochs[firstEpoch:]
	return res, nil
}

// sampleQueue reads /v1/stats every 20 ms on its own connection, on
// traced runs only, for the queue-depth distribution.
func (in *instance) sampleQueue(stop <-chan struct{}) []float64 {
	if in.ins == nil {
		return nil
	}
	c := newConn(in.sut.addr)
	defer c.close()
	var depths []float64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return depths
		case <-tick.C:
			if st, err := c.stats(); err == nil {
				depths = append(depths, float64(st.QueueDepth))
			}
		}
	}
}

// restartCycle boots a server on the instance's directory and times
// storage.Open → first 200 from /v1/score.
func restartCycle(cfg sutConfig, cnt *counters) (time.Duration, error) {
	start := time.Now()
	s, err := openSUT(cfg)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	c := newConn(s.addr)
	_, err = c.score(1)
	dur := time.Since(start)
	cnt.op(err == nil)
	c.close()
	return dur, errors.Join(err, s.close())
}

// restarts runs restart cycles until maxRestartCycles are done or, past
// the minimum, restartBudget is spent — a store that takes seconds to
// recover is timed fewer times than one that takes milliseconds.
func restarts(cfg sutConfig, cnt *counters) ([]float64, error) {
	var out []float64
	begin := time.Now()
	for len(out) < maxRestartCycles && (len(out) < minRestartCycles || time.Since(begin) < restartBudget) {
		d, err := restartCycle(cfg, cnt)
		if err != nil {
			return nil, err
		}
		out = append(out, secs(d))
	}
	return out, nil
}

// workDir makes a fresh directory for one run under the benchmark's build
// directory in the checkout — the only place the benchmark writes.
func workDir() (string, error) {
	root := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
