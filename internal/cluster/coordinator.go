package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/storage"
)

// ErrClosed is returned by operations on a closed coordinator.
var ErrClosed = errors.New("cluster: coordinator closed")

// Config parameterizes a Coordinator.
type Config struct {
	// Base is the friendship base graph every interval overlays on,
	// shared read-only by all shard engines. Required.
	Base *graph.Graph

	// Detector configures each shard engine's detections. At least one
	// termination condition must be set. Cancel is ignored: shard epoch
	// steps are not internally interruptible (the coordinator refuses new
	// epochs once closing instead).
	Detector core.DetectorOptions

	// Shards is the partition count for both planes: user-ID ranges for
	// ingest/journal ownership, interval mod Shards for detection
	// ownership. Required, ≥ 1.
	Shards int

	// Workers is the dist worker count; shards are placed round-robin
	// (shard s on worker s mod Workers). Zero defaults to Shards.
	Workers int

	// Dir is the journal root: shard s journals into segmented storage
	// under Dir/shard-NNN. Required.
	Dir string

	// SegmentBytes is each shard store's segment roll size (0 = the
	// storage default).
	SegmentBytes int64

	// Retry is the RPC retry policy (zero fields defaulted).
	Retry dist.RetryPolicy

	// Clock drives retry timeouts and backoff; nil means the wall clock.
	// Chaos tests install the virtual clock their transport advances.
	Clock dist.Clock

	// Transport, when non-nil, wraps the coordinator's local transport —
	// the chaos-injection seam. The wrapper must forward Failer/Reviver.
	Transport func(dist.Transport) dist.Transport

	// StoreHooks, when non-nil, supplies each shard store's fault hooks
	// at open time. It is called again on every reopen, so return a
	// per-shard singleton (e.g. one chaos.StoreFaults per shard) if fault
	// budgets should span crash-rebuild cycles.
	StoreHooks func(shard int) storage.Hooks

	// Serial runs the ship and detect fan-outs one shard at a time
	// instead of concurrently. The merged epochs are identical either
	// way; serial fan-out makes the RPC schedule a pure function of the
	// drive sequence, which is what lets a seeded chaos schedule replay
	// deterministically.
	Serial bool

	// Tracer observes the coordinator↔shard boundary (cluster.* events)
	// and every shard engine's pipeline events; nil disables tracing.
	Tracer obs.Tracer
}

// ShardStats describes one shard for /v1/stats and the experiments
// report.
type ShardStats struct {
	Shard  int `json:"shard"`
	Worker int `json:"worker"`
	// Records is the shard's journal length (sender-routed records);
	// Shipped how many of them are acked worker-side.
	Records int64 `json:"records"`
	Shipped int64 `json:"shipped"`
	// Owned is the shard's interval-owned record count; Stepped how many
	// its engine has consumed.
	Owned   int `json:"owned"`
	Stepped int `json:"stepped"`
	// Last epoch step breakdown, from the shard's DetectReply.
	Suspects  int     `json:"suspects"`
	Patched   int     `json:"patched"`
	ColdBuilt int     `json:"cold_built"`
	Reused    int     `json:"reused"`
	PatchMS   float64 `json:"patch_ms"`
	SolveMS   float64 `json:"solve_ms"`
}

// Stats is the coordinator's point-in-time shape, served under "cluster"
// in /v1/stats.
type Stats struct {
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// Records counts routed answered requests; Boundary the subset whose
	// interval owner differs from the sender's home shard.
	Records     int64        `json:"records"`
	Boundary    int64        `json:"boundary"`
	LastMergeMS float64      `json:"last_merge_ms"`
	PerShard    []ShardStats `json:"per_shard"`
}

// Coordinator owns the master side of the sharded rejectod: it routes
// answered requests to shard journals, drives shard epochs, and merges
// the per-shard detection sets into one epoch. It implements
// server.Backend; the rejectod server drives it from its ingest and
// detector goroutines, and the coordinator's own fan-outs add shard-level
// parallelism under that.
//
// Lifecycle: New, Recover exactly once, then Append/Flush/Detect, then
// Close.
type Coordinator struct {
	cfg       Config
	nodeCfg   nodeConfig
	workers   []*dist.Worker
	cl        *dist.Cluster
	home      []int        // shard → worker
	shardsOn  [][]int      // worker → shards
	rebuildMu []sync.Mutex // per worker: serializes lineage replays

	mu        sync.Mutex
	recovered bool
	closed    bool
	// all is the routed journal in arrival order; perShard and owned are
	// its two partitions (by sender's home shard and by interval owner).
	// All three are append-only, so handed-out sub-slices stay immutable
	// — the same prefix trick the server's snapshot uses.
	all      []core.TimedRequest
	perShard [][]core.TimedRequest
	owned    [][]core.TimedRequest
	// shipped[s] counts perShard[s] records acked by the shard's journal;
	// stepped[s] counts owned[s] records acked by the shard's engine.
	shipped []int64
	stepped []int
	// detCursor / ownedUpto implement the O(delta) epoch cut: ownedUpto[s]
	// is the number of owned[s] records within all[:detCursor].
	detCursor int
	ownedUpto []int
	boundary  int64
	lastStep  []DetectReply
	lastMerge float64
}

// New builds a Coordinator: workers, transport (local by default, wrapped
// by Config.Transport), and the shard service installed on every worker.
// No journal is touched until Recover.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("cluster: Config.Base is required")
	}
	if cfg.Base.NumNodes() == 0 {
		return nil, fmt.Errorf("cluster: Config.Base is empty")
	}
	if cfg.Detector.TargetCount <= 0 && cfg.Detector.AcceptanceThreshold <= 0 {
		return nil, fmt.Errorf("cluster: Detector needs TargetCount or AcceptanceThreshold")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: Config.Shards must be ≥ 1")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Shards
	}
	det := cfg.Detector
	det.Cancel = nil
	c := &Coordinator{
		cfg: cfg,
		nodeCfg: nodeConfig{
			base: &coordBase{
				graph:    cfg.Base,
				detector: det,
			},
			dir:      cfg.Dir,
			segBytes: cfg.SegmentBytes,
			hooks:    cfg.StoreHooks,
			tracer:   cfg.Tracer,
		},
		workers:   make([]*dist.Worker, cfg.Workers),
		home:      make([]int, cfg.Shards),
		shardsOn:  make([][]int, cfg.Workers),
		rebuildMu: make([]sync.Mutex, cfg.Workers),
		perShard:  make([][]core.TimedRequest, cfg.Shards),
		owned:     make([][]core.TimedRequest, cfg.Shards),
		shipped:   make([]int64, cfg.Shards),
		stepped:   make([]int, cfg.Shards),
		ownedUpto: make([]int, cfg.Shards),
		lastStep:  make([]DetectReply, cfg.Shards),
	}
	for w := range c.workers {
		c.workers[w] = dist.NewWorker()
	}
	for s := 0; s < cfg.Shards; s++ {
		w := s % cfg.Workers
		c.home[s] = w
		c.shardsOn[w] = append(c.shardsOn[w], s)
	}
	stats := &dist.IOStats{}
	var tr dist.Transport = dist.NewLocalTransport(c.workers, stats, 0)
	if cfg.Transport != nil {
		tr = cfg.Transport(tr)
	}
	c.cl = dist.NewCluster(tr, stats)
	c.cl.SetRetryPolicy(cfg.Retry)
	if cfg.Clock != nil {
		c.cl.SetClock(cfg.Clock)
	}
	c.cl.SetTracer(cfg.Tracer)
	for w := range c.workers {
		c.installNode(w)
	}
	return c, nil
}

// Cluster exposes the underlying dist.Cluster (transport access for
// tests and IO accounting).
func (c *Coordinator) Cluster() *dist.Cluster { return c.cl }

// Mode implements server.Backend.
func (c *Coordinator) Mode() string { return "cluster" }

func (c *Coordinator) installNode(w int) { install(c.workers[w], c.nodeCfg) }

// homeShard routes a sender to its shard by contiguous user-ID range.
func (c *Coordinator) homeShard(u graph.NodeID) (int, error) {
	n := c.cfg.Base.NumNodes()
	if int(u) < 0 || int(u) >= n {
		return 0, fmt.Errorf("cluster: node %d outside the %d-node base", u, n)
	}
	return int(int64(u) * int64(c.cfg.Shards) / int64(n)), nil
}

// ownerShard routes an interval to the shard that detects it.
func (c *Coordinator) ownerShard(interval int) int {
	s := interval % c.cfg.Shards
	if s < 0 {
		s += c.cfg.Shards
	}
	return s
}

// zeroReply clears a reply struct between attempts (mirrors the retry
// layer's own scrubbing for the install-retry path below).
func zeroReply(reply any) {
	if rv := reflect.ValueOf(reply); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv.Elem().SetZero()
	}
}

// callInstalled issues a retried call and, when the worker answers
// state-lost, installs a fresh shard service and tries once more — enough
// for the boot and rebuild paths, whose surrounding loops re-drive any
// deeper failure.
func (c *Coordinator) callInstalled(w int, method dist.Call, args, reply any) error {
	err := c.cl.Call(w, method, args, reply)
	if err == nil || !errors.Is(err, dist.ErrStateLost) {
		return err
	}
	c.installNode(w)
	zeroReply(reply)
	return c.cl.Call(w, method, args, reply)
}

// Recover opens every shard's journal partition, pulls the durable
// records back shard-major, rebuilds the coordinator's routing state, and
// hands each shard's batch to apply (the server validates and folds them
// there). Within a shard, records keep their journal order; detection is
// order-independent across shards (DESIGN.md §16), so the shard-major
// concatenation recovers the same published state the pre-restart
// process held. Must be called exactly once, before any
// Append or Detect.
func (c *Coordinator) Recover(apply func([]core.TimedRequest) error) (int, error) {
	c.mu.Lock()
	if c.recovered {
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: Recover called twice")
	}
	c.recovered = true
	c.mu.Unlock()
	for s := 0; s < c.cfg.Shards; s++ {
		w := c.home[s]
		var or OpenReply
		if err := c.callInstalled(w, callOpen, &OpenArgs{Shard: s}, &or); err != nil {
			return 0, fmt.Errorf("cluster: opening shard %d: %w", s, err)
		}
		var pr PullReply
		if err := c.callInstalled(w, callPull, &PullArgs{Shard: s}, &pr); err != nil {
			return 0, fmt.Errorf("cluster: pulling shard %d: %w", s, err)
		}
		if apply != nil && len(pr.Records) > 0 {
			if err := apply(pr.Records); err != nil {
				return 0, err
			}
		}
		c.mu.Lock()
		c.perShard[s] = append(c.perShard[s], pr.Records...)
		c.shipped[s] = int64(len(c.perShard[s]))
		for _, req := range pr.Records {
			o := c.ownerShard(req.Interval)
			c.all = append(c.all, req)
			c.owned[o] = append(c.owned[o], req)
			if o != s {
				c.boundary++
				obs.Cluster.Boundary.Add(1)
			}
			obs.Cluster.Routed.Add(1)
		}
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.detCursor = len(c.all)
	for s := range c.ownedUpto {
		c.ownedUpto[s] = len(c.owned[s])
	}
	n := len(c.all)
	c.mu.Unlock()
	return n, nil
}

// Append routes one answered request: into the arrival journal, its
// sender's shard partition, and its interval owner's detection queue.
// Shipping to the shard's worker is deferred to Flush (the server's
// group-commit policy), so Append itself never blocks on the transport.
func (c *Coordinator) Append(req core.TimedRequest) error {
	s, err := c.homeShard(req.From)
	if err != nil {
		return err
	}
	o := c.ownerShard(req.Interval)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.all = append(c.all, req)
	c.perShard[s] = append(c.perShard[s], req)
	c.owned[o] = append(c.owned[o], req)
	if s != o {
		c.boundary++
		obs.Cluster.Boundary.Add(1)
	}
	c.mu.Unlock()
	obs.Cluster.Routed.Add(1)
	return nil
}

// forEachShard runs f over the given shards — concurrently by default
// (the multi-node win: per-shard encode, fsync, and solve overlap), or in
// order under Config.Serial for deterministic chaos schedules.
func (c *Coordinator) forEachShard(shards []int, f func(s int) error) error {
	if c.cfg.Serial || len(shards) <= 1 {
		for _, s := range shards {
			if err := f(s); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			errs[i] = f(s)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Flush ships every shard's unshipped journal tail to its worker and
// makes it durable, fanning the batches out per shard.
func (c *Coordinator) Flush() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	starts := make([]int64, c.cfg.Shards)
	batches := make([][]core.TimedRequest, c.cfg.Shards)
	var pending []int
	for s := range c.perShard {
		ps := c.perShard[s]
		if c.shipped[s] < int64(len(ps)) {
			starts[s] = c.shipped[s]
			batches[s] = ps[c.shipped[s]:len(ps):len(ps)]
			pending = append(pending, s)
		}
	}
	c.mu.Unlock()
	return c.forEachShard(pending, func(s int) error {
		return c.shipShard(s, starts[s], batches[s])
	})
}

// shipShard appends one positioned batch to a shard's journal and flushes
// it, under the full recovery path.
func (c *Coordinator) shipShard(s int, start int64, recs []core.TimedRequest) error {
	w := c.home[s]
	var wallStart time.Time
	if c.cfg.Tracer != nil {
		wallStart = time.Now()
	}
	var ir IngestReply
	if err := c.cl.CallWithRecovery(w, callIngest, &IngestArgs{Shard: s, Start: start, Records: recs}, &ir, c.rebuild); err != nil {
		return fmt.Errorf("cluster: shard %d ingest: %w", s, err)
	}
	if err := c.cl.CallWithRecovery(w, callFlush, &FlushArgs{Shard: s}, &FlushReply{}, c.rebuild); err != nil {
		return fmt.Errorf("cluster: shard %d flush: %w", s, err)
	}
	c.mu.Lock()
	if end := start + int64(len(recs)); end > c.shipped[s] {
		c.shipped[s] = end
	}
	c.mu.Unlock()
	obs.Cluster.ShipBatches.Add(1)
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{
			Name: obs.EvClusterShip, Wall: time.Now(), Dur: time.Since(wallStart),
			Job: s, Nodes: len(recs),
		})
	}
	return nil
}

// rebuild is the lineage replay CallWithRecovery invokes after reviving a
// worker (or discovering its state lost): for every shard homed on it,
// reopen the journal partition from disk, re-ship the records the crash
// cost, and cold-replay the engine to the coordinator's acked step count.
// It issues its calls through the same transport as normal traffic, so a
// chaos schedule can fault the recovery itself — including the storage
// recovery inside Open — and the surrounding recovery cycle re-drives it.
func (c *Coordinator) rebuild(worker int) error {
	c.rebuildMu[worker].Lock()
	defer c.rebuildMu[worker].Unlock()
	for _, s := range c.shardsOn[worker] {
		var wallStart time.Time
		if c.cfg.Tracer != nil {
			wallStart = time.Now()
		}
		var or OpenReply
		if err := c.callInstalled(worker, callOpen, &OpenArgs{Shard: s}, &or); err != nil {
			return err
		}
		c.mu.Lock()
		ps := c.perShard[s][:len(c.perShard[s]):len(c.perShard[s])]
		seed := c.stepped[s]
		pre := c.owned[s][:seed:seed]
		c.mu.Unlock()
		if or.Records > int64(len(ps)) {
			// The durable journal can never be ahead of the coordinator's
			// lineage — it is fed exclusively from it.
			return fmt.Errorf("cluster: shard %d journal holds %d records, lineage has %d", s, or.Records, len(ps))
		}
		if or.Records < int64(len(ps)) {
			var ir IngestReply
			if err := c.cl.Call(worker, callIngest, &IngestArgs{Shard: s, Start: or.Records, Records: ps[or.Records:]}, &ir); err != nil {
				return err
			}
			if err := c.cl.Call(worker, callFlush, &FlushArgs{Shard: s}, &FlushReply{}); err != nil {
				return err
			}
		}
		c.mu.Lock()
		if int64(len(ps)) > c.shipped[s] {
			c.shipped[s] = int64(len(ps))
		}
		c.mu.Unlock()
		if seed > 0 {
			// Re-derive the engine's memo by stepping the owned prefix
			// from zero. DisableWarm makes the replay byte-identical to
			// the incremental path the crash interrupted; the reply is
			// the memoized detection set and is discarded here.
			var dr DetectReply
			if err := c.cl.Call(worker, callDetect, &DetectArgs{Shard: s, Stepped: 0, Delta: pre}, &dr); err != nil {
				return err
			}
		}
		obs.Cluster.Rebuilds.Add(1)
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.Emit(obs.Event{
				Name: obs.EvClusterRebuild, Wall: time.Now(), Dur: time.Since(wallStart),
				Job: s, Nodes: len(ps),
			})
		}
	}
	return nil
}

// Detect advances every shard's engine to the epoch cut (the first events
// routed records) and merges the per-shard detection sets in ascending
// interval order. Each interval is owned by exactly one shard and each
// per-interval detection is a pure, order-independent function of the
// interval's request multiset, so the merge is byte-identical to the
// single-node engine over the same journal prefix. cancel is only
// consulted before work starts — shard epochs run to completion.
func (c *Coordinator) Detect(events int, cancel <-chan struct{}) ([]core.IntervalDetection, error) {
	if cancel != nil {
		select {
		case <-cancel:
			return nil, ErrClosed
		default:
		}
	}
	start := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if events > len(c.all) {
		// The epoch cut can never exceed the routed journal: the caller
		// counts the same events it handed to Append. A mismatch means the
		// caller's journal and the coordinator's lineage desynced (e.g. an
		// Append failed after the caller recorded the event); clamping here
		// would silently publish epochs covering fewer records than the
		// caller believes, breaking the byte-identity invariant.
		n := len(c.all)
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: detect cut %d exceeds journal of %d events", events, n)
	}
	if events > c.detCursor {
		for _, req := range c.all[c.detCursor:events] {
			c.ownedUpto[c.ownerShard(req.Interval)]++
		}
		c.detCursor = events
	}
	targets := make([]int, c.cfg.Shards)
	startSteps := make([]int, c.cfg.Shards)
	deltas := make([][]core.TimedRequest, c.cfg.Shards)
	var active []int
	for s := 0; s < c.cfg.Shards; s++ {
		newK := c.ownedUpto[s]
		if newK == 0 {
			continue
		}
		targets[s] = newK
		startSteps[s] = c.stepped[s]
		d := c.owned[s][c.stepped[s]:newK]
		deltas[s] = d[:len(d):len(d)]
		active = append(active, s)
	}
	c.mu.Unlock()

	replies := make([]DetectReply, c.cfg.Shards)
	err := c.forEachShard(active, func(s int) error {
		var wallStart time.Time
		if c.cfg.Tracer != nil {
			wallStart = time.Now()
		}
		var dr DetectReply
		args := &DetectArgs{Shard: s, Stepped: startSteps[s], Delta: deltas[s]}
		if err := c.cl.CallWithRecovery(c.home[s], callDetect, args, &dr, c.rebuild); err != nil {
			return fmt.Errorf("cluster: shard %d detect: %w", s, err)
		}
		replies[s] = dr
		c.mu.Lock()
		if targets[s] > c.stepped[s] {
			c.stepped[s] = targets[s]
		}
		c.lastStep[s] = dr
		c.mu.Unlock()
		obs.Cluster.ShardDetects.Add(1)
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.Emit(obs.Event{
				Name: obs.EvClusterDetect, Wall: time.Now(), Dur: time.Since(wallStart),
				Job: s, Suspects: dr.Suspects,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var merged []core.IntervalDetection
	suspects := 0
	for _, s := range active {
		merged = append(merged, replies[s].Dets...)
		suspects += replies[s].Suspects
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Interval < merged[j].Interval })
	ms := float64(time.Since(start).Microseconds()) / 1e3
	obs.Cluster.Merges.Add(1)
	obs.Cluster.LastMergeMS.Set(ms)
	c.mu.Lock()
	c.lastMerge = ms
	boundary := c.boundary
	c.mu.Unlock()
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{
			Name: obs.EvClusterMerge, Wall: time.Now(), Dur: time.Since(start),
			Suspects: suspects, Nodes: int(boundary),
			Detail: fmt.Sprintf("%d shards", c.cfg.Shards),
		})
	}
	return merged, nil
}

// Stats implements server.Backend; the returned value is a Stats.
func (c *Coordinator) Stats() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Shards:      c.cfg.Shards,
		Workers:     c.cfg.Workers,
		Records:     int64(len(c.all)),
		Boundary:    c.boundary,
		LastMergeMS: c.lastMerge,
		PerShard:    make([]ShardStats, c.cfg.Shards),
	}
	for s := 0; s < c.cfg.Shards; s++ {
		last := c.lastStep[s]
		st.PerShard[s] = ShardStats{
			Shard:     s,
			Worker:    c.home[s],
			Records:   int64(len(c.perShard[s])),
			Shipped:   c.shipped[s],
			Owned:     len(c.owned[s]),
			Stepped:   c.stepped[s],
			Suspects:  last.Suspects,
			Patched:   last.Patched,
			ColdBuilt: last.ColdBuilt,
			Reused:    last.Reused,
			PatchMS:   last.PatchMS,
			SolveMS:   last.SolveMS,
		}
	}
	return st
}

// Close flushes and closes every reachable shard store and shuts the
// transport down. A shard whose worker is dead at close time is left to
// its durable state — exactly what a killed process leaves — and is not
// an error; the next boot's Recover picks it up.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var errs []error
	for s := 0; s < c.cfg.Shards; s++ {
		err := c.cl.Call(c.home[s], callClose, &CloseArgs{Shard: s}, &CloseReply{})
		if err != nil && !dist.IsRecoverable(err) {
			errs = append(errs, fmt.Errorf("cluster: closing shard %d: %w", s, err))
		}
	}
	if err := c.cl.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
