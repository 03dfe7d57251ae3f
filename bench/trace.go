package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
)

// span is one traced interval: a pipeline event with a duration, or a
// client-side span the benchmark records around a call into the SUT.
// Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // span ID, -1 for a root
	Epoch  int    `json:"epoch"`  // index of the enclosing bench.detect span, -1 outside any

	Passes    int    `json:"passes,omitempty"`
	Switches  int    `json:"switches,omitempty"`
	Rollbacks int    `json:"rollbacks,omitempty"`
	Detail    string `json:"detail,omitempty"`
	Err       bool   `json:"err,omitempty"`

	self int64 // End-Start minus the part child spans cover
}

func (s *span) dur() int64 { return s.End - s.Start }

const spanBenchDetect = "bench.detect"

// memTracer is the benchmark's own obs.Tracer: it keeps every span in
// memory and writes nothing until the run is over.
type memTracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newMemTracer() *memTracer {
	return &memTracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// Emit implements obs.Tracer. Start events carry no duration and are
// dropped (the matching done event has it); score.enforce fires per
// served verdict and is not a layer boundary.
func (t *memTracer) Emit(e obs.Event) {
	switch e.Name {
	case obs.EvDetectStart, obs.EvRoundStart, obs.EvSweepStart, obs.EvScoreEnforce:
		return
	}
	end := e.Wall.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: e.Name, Start: end - e.Dur.Nanoseconds(), End: end,
		Passes: e.Passes, Switches: e.Switches, Rollbacks: e.Rollbacks,
		Detail: e.Detail, Err: e.Err != "",
	})
	t.mu.Unlock()
}

// add records a client-side span.
func (t *memTracer) add(name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// sweepParents are the callers of one MAAR search. A flat sweep wraps its
// solves in sweep.done; a multilevel one emits ml.* and the gate's
// reference solves straight into the round (or into the warm attempt, or
// — for a last round that finds no cut — into the detection).
var sweepParents = []string{obs.EvSweepDone, obs.EvIncrWarm, obs.EvIncrFallback, obs.EvRoundDone, obs.EvDetectDone}

// parentsOf names, per span name, the spans that can have caused it. The
// pipeline's events carry no parent pointer, so the tree is rebuilt from
// these rules plus containment in time: a span's parent is the tightest
// candidate that covers it.
var parentsOf = map[string][]string{
	obs.EvClusterMerge:    {spanBenchDetect}, // spans the coordinator's whole Detect
	obs.EvClusterDetect:   {obs.EvClusterMerge, spanBenchDetect},
	obs.EvClusterShip:     {spanBenchDetect},
	obs.EvClusterRebuild:  {obs.EvClusterDetect, obs.EvClusterShip, spanBenchDetect},
	obs.EvDistRPC:         {obs.EvClusterDetect, obs.EvClusterShip, spanBenchDetect},
	obs.EvDistRetry:       {obs.EvClusterDetect, obs.EvClusterShip, spanBenchDetect},
	obs.EvIncrPatch:       {obs.EvClusterDetect, spanBenchDetect},
	obs.EvDetectDone:      {obs.EvClusterDetect, spanBenchDetect},
	obs.EvFreeze:          {obs.EvDetectDone},
	obs.EvRoundDone:       {obs.EvDetectDone},
	obs.EvIncrWarm:        {obs.EvRoundDone, obs.EvDetectDone},
	obs.EvIncrFallback:    {obs.EvRoundDone, obs.EvDetectDone},
	obs.EvSweepDone:       sweepParents[1:],
	obs.EvPrune:           {obs.EvRoundDone, obs.EvDetectDone},
	obs.EvSolveDone:       sweepParents,
	obs.EvMLCoarsen:       sweepParents,
	obs.EvMLSolve:         sweepParents,
	obs.EvMLRefine:        sweepParents,
	obs.EvMLFallback:      sweepParents,
	obs.EvScorePublish:    {spanBenchDetect},
	obs.EvStorageSnapshot: {spanBenchDetect},
	obs.EvStorageCompact:  {obs.EvStorageSnapshot, spanBenchDetect},
	obs.EvStorageSeal:     {spanBenchDetect},
}

// containSlackNS absorbs the skew between an event's Wall and Dur, which
// the pipeline reads from two clock calls.
const containSlackNS = 50_000

// finish orders the spans, links each to its parent, stamps epoch ids and
// computes self times. Call once, after the SUT has stopped.
func (t *memTracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	byName := map[string][]int{}
	for i := range spans {
		spans[i].ID, spans[i].Parent, spans[i].Epoch = i, -1, -1
		byName[spans[i].Name] = append(byName[spans[i].Name], i)
	}
	for k, i := range byName[spanBenchDetect] {
		spans[i].Epoch = k
	}
	for i := range spans {
		c := &spans[i]
		best := -1
		for _, pname := range parentsOf[c.Name] {
			cands := byName[pname]
			// Last candidate starting no later than the child; earlier
			// ones can still cover it when shards run side by side.
			hi := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > c.Start+containSlackNS })
			for k := hi - 1; k >= 0 && k >= hi-8; k-- {
				p := &spans[cands[k]]
				if cands[k] != i && p.End+containSlackNS >= c.End && (best < 0 || p.dur() < spans[best].dur()) {
					best = cands[k]
				}
			}
			if best >= 0 {
				break
			}
		}
		c.Parent = best
	}
	children := make(map[int][]int)
	for i := range spans {
		// The epoch id is that of the bench.detect span up the chain.
		for a := spans[i].Parent; a >= 0 && spans[i].Epoch < 0; a = spans[a].Parent {
			spans[i].Epoch = spans[a].Epoch
		}
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		covered, upto := int64(0), s.Start
		for _, c := range children[i] { // already in start order
			lo, hi := max(spans[c].Start, upto), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		s.self = s.dur() - covered
	}
	t.spans = spans
	return spans
}

// writeJSONL dumps the finished spans, one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callTimer aggregates a per-record call as count + busy time, timing one
// call in appendSampleEvery rather than spanning each.
type callTimer struct {
	calls     atomic.Int64
	sampled   atomic.Int64
	sampledNS atomic.Int64
}

const appendSampleEvery = 64

func (c *callTimer) time(f func() error) error {
	if c.calls.Add(1)%appendSampleEvery != 0 {
		return f()
	}
	start := time.Now()
	err := f()
	c.sampledNS.Add(time.Since(start).Nanoseconds())
	c.sampled.Add(1)
	return err
}

func (c *callTimer) nsPerCall() float64 {
	return ratio(float64(c.sampledNS.Load()), float64(c.sampled.Load()))
}

// busyNS extrapolates the sampled calls to all of them.
func (c *callTimer) busyNS() float64 { return c.nsPerCall() * float64(c.calls.Load()) }

// durList is a mutex-guarded list of call durations.
type durList struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *durList) time(f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
	return err
}

func (l *durList) values(unit time.Duration) (vals []float64, total time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range l.ds {
		vals = append(vals, float64(d)/float64(unit))
		total += d
	}
	return vals, total
}

// layerTimes is what the W decorators measure around one storage.Store or
// server.Backend: the benchmark swaps in a fresh one at the start of the
// measured window so set-up traffic is not counted.
type layerTimes struct {
	appends   callTimer
	flushes   durList
	snapshots durList
	detects   durList
	recovers  durList
	recovered atomic.Int64
}

// timedStore decorates the storage.Store handed to server.Config.
type timedStore struct {
	storage.Store
	lt *atomic.Pointer[layerTimes]
}

func (s timedStore) Append(req core.TimedRequest) error {
	return s.lt.Load().appends.time(func() error { return s.Store.Append(req) })
}

func (s timedStore) Flush() error { return s.lt.Load().flushes.time(s.Store.Flush) }

func (s timedStore) Snapshot(st storage.SnapshotState) error {
	return s.lt.Load().snapshots.time(func() error { return s.Store.Snapshot(st) })
}

func (s timedStore) Recover(apply func([]core.TimedRequest) error) (rec storage.Recovered, err error) {
	lt := s.lt.Load()
	err = lt.recovers.time(func() error {
		rec, err = s.Store.Recover(apply)
		return err
	})
	lt.recovered.Add(int64(rec.Info.Records))
	return rec, err
}

// timedBackend decorates the server.Backend (the cluster coordinator).
type timedBackend struct {
	server.Backend
	lt *atomic.Pointer[layerTimes]
}

func (b timedBackend) Append(req core.TimedRequest) error {
	return b.lt.Load().appends.time(func() error { return b.Backend.Append(req) })
}

func (b timedBackend) Flush() error { return b.lt.Load().flushes.time(b.Backend.Flush) }

func (b timedBackend) Detect(events int, cancel <-chan struct{}) (dets []core.IntervalDetection, err error) {
	err = b.lt.Load().detects.time(func() error {
		dets, err = b.Backend.Detect(events, cancel)
		return err
	})
	return dets, err
}

func (b timedBackend) Recover(apply func([]core.TimedRequest) error) (n int, err error) {
	lt := b.lt.Load()
	err = lt.recovers.time(func() error {
		n, err = b.Backend.Recover(apply)
		return err
	})
	lt.recovered.Add(int64(n))
	return n, err
}

// instruments is the traced run's equipment: the T sink and the W
// decorators, wired into a sutConfig.
type instruments struct {
	tracer *memTracer
	layer  atomic.Pointer[layerTimes]
}

func newInstruments() *instruments {
	ins := &instruments{tracer: newMemTracer()}
	ins.layer.Store(&layerTimes{})
	return ins
}

// mark starts a fresh measurement period and returns the finished one.
func (ins *instruments) mark() *layerTimes { return ins.layer.Swap(&layerTimes{}) }

func (ins *instruments) wire(cfg *sutConfig) {
	cfg.tracer = ins.tracer
	cfg.wrapStore = func(st storage.Store) storage.Store { return timedStore{Store: st, lt: &ins.layer} }
	cfg.wrapBackend = func(b server.Backend) server.Backend { return timedBackend{Backend: b, lt: &ins.layer} }
}
