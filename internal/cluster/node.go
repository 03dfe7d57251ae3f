package cluster

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The coordinator↔shard RPC surface, registered as extension methods on
// each dist.Worker. Every method is positionally idempotent: retried and
// duplicated deliveries converge on the same worker state and the same
// reply, which is what makes them safe under the retry layer's
// at-least-once semantics.
const (
	callOpen   dist.Call = "Cluster.Open"
	callIngest dist.Call = "Cluster.Ingest"
	callFlush  dist.Call = "Cluster.Flush"
	callDetect dist.Call = "Cluster.Detect"
	callPull   dist.Call = "Cluster.Pull"
	callClose  dist.Call = "Cluster.Close"
)

// OpenArgs opens (or reopens) a shard's journal partition on its worker.
type OpenArgs struct {
	Shard int
}

// OpenReply reports the durable journal length recovered from disk.
type OpenReply struct {
	Records int64
}

// IngestArgs appends a batch of answered requests to a shard's journal at
// a fixed offset. Start is the coordinator's record count before the
// batch: a worker already past Start+len(Records) treats the call as a
// duplicate, one inside the window appends only the unseen suffix, and
// one behind Start has lost journal state and says so.
type IngestArgs struct {
	Shard   int
	Start   int64
	Records []core.TimedRequest
}

// IngestReply reports the shard's journal length after the append.
type IngestReply struct {
	Records int64
}

// FlushArgs makes a shard's appended records durable.
type FlushArgs struct {
	Shard int
}

// FlushReply is empty; flush idempotence is inherent.
type FlushReply struct{}

// DetectArgs advances a shard's engine over the delta of interval-owned
// records past Stepped (the coordinator's view of how many owned records
// the engine has consumed). Like IngestArgs the positioning makes the
// call idempotent: an engine already past Stepped steps only the unseen
// suffix, and one exactly at Stepped+len(Delta) returns its memoized
// reply — the lost-reply retry case.
type DetectArgs struct {
	Shard   int
	Stepped int
	Delta   []core.TimedRequest
}

// DetectReply carries the shard's full per-interval detection set (over
// every owned record consumed so far, ascending by interval) plus the
// step's timing and reuse breakdown for stats and the experiments report.
type DetectReply struct {
	Stepped   int
	Dets      []core.IntervalDetection
	Suspects  int
	Patched   int
	ColdBuilt int
	Reused    int
	PatchMS   float64
	SolveMS   float64
}

// PullArgs streams a shard's journal back to the coordinator, from a
// record offset — the boot-time recovery read.
type PullArgs struct {
	Shard int
	From  int64
}

// PullReply carries the requested journal suffix.
type PullReply struct {
	Records []core.TimedRequest
}

// CloseArgs flushes and closes a shard's store (graceful shutdown only;
// crashed workers leave their handles to the process reaper, exactly like
// a killed process would).
type CloseArgs struct {
	Shard int
}

// CloseReply is empty.
type CloseReply struct{}

// nodeConfig is the worker-side slice of the coordinator's Config.
type nodeConfig struct {
	base     *coordBase
	dir      string
	segBytes int64
	hooks    func(shard int) storage.Hooks
	tracer   obs.Tracer
}

// coordBase bundles what every shard engine shares: the base graph
// (read-only — engines Clone it per cold snapshot build, and Clone is a
// pure read, so sharing across worker goroutines is safe) and the
// detector options with Cancel stripped.
type coordBase struct {
	graph    *graph.Graph
	detector core.DetectorOptions
}

// node is one worker's shard service: the journal partitions and engines
// of every shard homed on it. A worker crash (dist reset) drops the whole
// node — its in-memory journals, engines, and any unflushed store buffers
// — exactly like a killed process; the coordinator's rebuild closure
// installs a fresh node and replays the lineage.
type node struct {
	cfg    nodeConfig
	mu     sync.Mutex
	shards map[int]*shardNode
}

// shardNode is one shard's worker-side state.
type shardNode struct {
	store storage.Store
	// broken marks a store that failed an operation (e.g. an injected
	// storage crash): every call answers state-lost until Open reopens
	// the partition from disk.
	broken  bool
	journal []core.TimedRequest
	engine  *incr.Engine
	stepped int
	hasLast bool
	last    DetectReply
}

func newNode(cfg nodeConfig) *node {
	return &node{cfg: cfg, shards: make(map[int]*shardNode)}
}

// stateLost wraps a shard-service failure as dist.ErrStateLost, routing it
// into the master's rebuild path.
func stateLost(format string, a ...any) error {
	return fmt.Errorf("cluster: %s: %w", fmt.Sprintf(format, a...), dist.ErrStateLost)
}

// shard returns a usable shard state or state-lost (absent: the node was
// rebuilt without this shard; broken: its store crashed).
func (n *node) shard(id int) (*shardNode, error) {
	sn := n.shards[id]
	if sn == nil {
		return nil, stateLost("shard %d not open on this worker", id)
	}
	if sn.broken {
		return nil, stateLost("shard %d store crashed", id)
	}
	return sn, nil
}

// open opens shard id's journal partition, recovering its durable records
// — or reports the current length when the shard is already healthy, so a
// redundant rebuild probe never drops live state.
func (n *node) open(args *OpenArgs, reply *OpenReply) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if sn := n.shards[args.Shard]; sn != nil {
		if !sn.broken {
			reply.Records = int64(len(sn.journal))
			return nil
		}
		// A crashed store writes nothing more on Close; it only releases
		// handles so the reopen below sees the directory as a restarted
		// process would.
		sn.store.Close()
		delete(n.shards, args.Shard)
	}
	var hooks storage.Hooks
	if n.cfg.hooks != nil {
		hooks = n.cfg.hooks(args.Shard)
	}
	st, err := storage.Open(storage.Options{
		Dir:          filepath.Join(n.cfg.dir, fmt.Sprintf("shard-%03d", args.Shard)),
		SegmentBytes: n.cfg.segBytes,
		Tracer:       n.cfg.tracer,
		Hooks:        hooks,
	})
	if err != nil {
		return stateLost("opening shard %d: %v", args.Shard, err)
	}
	sn := &shardNode{store: st}
	if _, err := st.Recover(func(reqs []core.TimedRequest) error {
		sn.journal = append(sn.journal, reqs...)
		return nil
	}); err != nil {
		st.Close()
		return stateLost("recovering shard %d: %v", args.Shard, err)
	}
	eng, err := incr.NewEngine(incr.Config{
		Base:        n.cfg.base.graph,
		Detector:    n.cfg.base.detector,
		DisableWarm: true, // rebuilt engines must replay to identical bytes
		Tracer:      n.cfg.tracer,
	})
	if err != nil {
		st.Close()
		return fmt.Errorf("cluster: shard %d engine: %w", args.Shard, err)
	}
	sn.engine = eng
	n.shards[args.Shard] = sn
	reply.Records = int64(len(sn.journal))
	return nil
}

// ingest appends the unseen suffix of a positioned batch.
func (n *node) ingest(args *IngestArgs, reply *IngestReply) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	sn, err := n.shard(args.Shard)
	if err != nil {
		return err
	}
	have := int64(len(sn.journal))
	if args.Start > have {
		return stateLost("shard %d ingest gap: batch starts at %d, journal holds %d", args.Shard, args.Start, have)
	}
	if done := have - args.Start; done < int64(len(args.Records)) {
		for _, req := range args.Records[done:] {
			if err := sn.store.Append(req); err != nil {
				sn.broken = true
				return stateLost("shard %d append: %v", args.Shard, err)
			}
			sn.journal = append(sn.journal, req)
		}
	}
	reply.Records = int64(len(sn.journal))
	return nil
}

// flush makes the shard's journal durable.
func (n *node) flush(args *FlushArgs, _ *FlushReply) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	sn, err := n.shard(args.Shard)
	if err != nil {
		return err
	}
	if err := sn.store.Flush(); err != nil {
		sn.broken = true
		return stateLost("shard %d flush: %v", args.Shard, err)
	}
	return nil
}

// detect advances the shard engine over the positioned delta and replies
// with the full owned detection set. The engine holds the mutex for the
// whole step — shards homed on the same worker serialize, which is the
// node's capacity model.
func (n *node) detect(args *DetectArgs, reply *DetectReply) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	sn, err := n.shard(args.Shard)
	if err != nil {
		return err
	}
	if args.Stepped > sn.stepped {
		return stateLost("shard %d detect gap: delta starts at %d, engine stepped %d", args.Shard, args.Stepped, sn.stepped)
	}
	off := sn.stepped - args.Stepped
	if off > len(args.Delta) {
		// The engine is already past the delta's end — e.g. a rebuild seed
		// positioned from a stale coordinator read racing an in-flight step
		// on a co-homed shard. The memoized reply is the answer, same as
		// the empty-suffix case below.
		if sn.hasLast {
			*reply = sn.last
		}
		return nil
	}
	suffix := args.Delta[off:]
	if len(suffix) == 0 {
		// Duplicate delivery, lost-reply retry, or a rebuild seed that
		// raced a newer step: the memoized reply (or the zero reply for a
		// never-stepped shard) is the answer either way.
		if sn.hasLast {
			*reply = sn.last
		}
		return nil
	}
	var d incr.Delta
	for _, req := range suffix {
		d.AddRequest(req)
	}
	dets, stats, err := sn.engine.Step(d)
	if err != nil {
		// Step errors are not recoverable by replaying lineage (the
		// replay would hit the same validation failure); surface them.
		return fmt.Errorf("cluster: shard %d step: %w", args.Shard, err)
	}
	sn.stepped += len(suffix)
	suspects := 0
	for _, det := range dets {
		suspects += len(det.Detection.Suspects)
	}
	sn.last = DetectReply{
		Stepped:   sn.stepped,
		Dets:      dets,
		Suspects:  suspects,
		Patched:   stats.Patched,
		ColdBuilt: stats.ColdBuilt,
		Reused:    stats.Reused,
		PatchMS:   float64(stats.PatchDur.Microseconds()) / 1e3,
		SolveMS:   float64(stats.SolveDur.Microseconds()) / 1e3,
	}
	sn.hasLast = true
	*reply = sn.last
	return nil
}

// pull streams the shard's journal suffix back to the coordinator.
func (n *node) pull(args *PullArgs, reply *PullReply) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	sn, err := n.shard(args.Shard)
	if err != nil {
		return err
	}
	if args.From > int64(len(sn.journal)) {
		return stateLost("shard %d pull past end: from %d, journal holds %d", args.Shard, args.From, len(sn.journal))
	}
	recs := sn.journal[args.From:]
	reply.Records = recs[:len(recs):len(recs)]
	return nil
}

// closeShard flushes and closes the shard's store.
func (n *node) closeShard(args *CloseArgs, _ *CloseReply) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	sn := n.shards[args.Shard]
	if sn == nil {
		return nil
	}
	delete(n.shards, args.Shard)
	return sn.store.Close()
}

// handler adapts a typed method body to the dist.Handler signature.
func handler[A any, R any](f func(*A, *R) error) dist.Handler {
	return func(args, reply any) error {
		a, okA := args.(*A)
		r, okR := reply.(*R)
		if !okA || !okR {
			return fmt.Errorf("cluster: mismatched args/reply types %T/%T", args, reply)
		}
		return f(a, r)
	}
}

// install registers a fresh node's handlers on w, replacing any previous
// registration. Called at startup and by the rebuild path after a worker
// reset wiped the registrations.
func install(w *dist.Worker, cfg nodeConfig) {
	n := newNode(cfg)
	w.Register(callOpen, handler(n.open))
	w.Register(callIngest, handler(n.ingest))
	w.Register(callFlush, handler(n.flush))
	w.Register(callDetect, handler(n.detect))
	w.Register(callPull, handler(n.pull))
	w.Register(callClose, handler(n.closeShard))
}
