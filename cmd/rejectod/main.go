// Command rejectod runs Rejecto as a long-lived online detection service:
// it ingests friend-request lifecycle events over HTTP/JSON, journals every
// answered request, periodically (and on demand) advances the incremental
// epoch engine (internal/incr) by the journal's new tail, and serves the
// latest suspects.
//
// Usage:
//
//	rejectod -graph base.txt [-listen :8080]
//	         [-target 100 | -threshold 0.5] [-detect-every 30s]
//	         [-store-dir data/] [-segment-bytes 4194304] [-snapshot-every 100000]
//	         [-cluster-shards 4] [-cluster-workers 2]
//	         [-queue 1024] [-no-warm-start]
//	         [-score-deny 0.8] [-score-throttle 0.5] [-score-window 1024]
//	         [-kmin 0.03125] [-kmax 32] [-seed 42]
//	         [-trace run.jsonl] [-v] [-debug-addr :6060]
//
// There is one serving path. Each detection patches the previous epoch's
// frozen snapshots with the journal delta instead of re-folding the whole
// log, reuses untouched intervals, and warm-starts each interval's sweep
// from the previous epoch's cut (quality-gated; -no-warm-start forces cold
// solves, making every published epoch byte-identical to a cold batch
// replay of its journal prefix). GET /v1/stats reports the last epoch's
// patch/reuse/warm breakdown, and /debug/vars the rejecto.incr_* counters.
// What varies is where the journal lives:
//
//   - no -store-dir: in memory; state is lost on exit.
//   - -store-dir: the segmented storage engine (internal/storage). The
//     journal lives in fixed-size CRC32C-checksummed segments,
//     -snapshot-every persists a snapshot (journal prefix + frozen read
//     model + engine memo) after detections once that many new records
//     accumulated, and restart replays only the delta since the last
//     snapshot. A torn tail left by a crash is truncated on boot; any other
//     checksum failure refuses to start (see docs/OPERATIONS.md).
//   - -store-dir with -cluster-shards N: the multi-node sharded rejectod
//     (internal/cluster). Ingest and journaling partition by the sender's
//     user-ID range, detection by interval, each shard running its own
//     engine over its own journal partition under -store-dir (one shard-NNN
//     directory per shard). A coordinator ships batches and epoch deltas to
//     -cluster-workers dist workers (default: one per shard) over the
//     in-process transport and merges the per-shard detections into epochs
//     byte-identical to a single-node -no-warm-start server over the same
//     journal. Excludes -snapshot-every; GET /v1/stats gains a "backend"
//     section with per-shard records, engine progress, and step timings,
//     and /debug/vars the rejecto.cluster_* counters.
//
// A journal write or fsync failure is loud: from the first one, POST
// /v1/events and /v1/detect answer 503, /v1/stats carries journal_error,
// and the last good epoch and /v1/score keep being served.
//
// The real-time verdict path (internal/score) serves GET/POST /v1/score:
// per-account online features (request rate, rejection velocity,
// acceptance trajectory) maintained inline by the ingest fold, fused with
// the last published epoch's suspect set into an allow/throttle/deny
// verdict. -score-deny and -score-throttle set the verdict thresholds,
// -score-window the sliding-window width (in answered requests) of the
// rate features. Serving latency histograms appear at /debug/vars as
// rejecto.server.score_latency and rejecto.server.ingest_latency.
//
// Endpoints:
//
//	POST /v1/events      {"type":"accept","from":1,"to":2,"interval":0}
//	                     (or an array); request|accept|reject|ignore.
//	                     202 on enqueue; 429 + Retry-After on a full queue
//	POST /v1/detect      run detection now, respond with the new epoch
//	GET  /v1/suspects    last epoch's per-interval suspect sets
//	GET  /v1/score       real-time verdict: ?id=7 (repeatable for a batch)
//	POST /v1/score       same, JSON body {"id": 7} or {"ids": [7, 9]}
//	GET  /v1/stats       queue depth, counters, epoch summary, score stats
//	GET  /healthz        liveness
//
// The server's state is a pure function of its journal: restarting with the
// same -store-dir recovers exactly, and `rejecto -graph base.txt -requests
// data/` replays the directory to the suspect sets a -no-warm-start server
// published, byte for byte.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops, any running
// detection is interrupted between rounds, the ingest queue drains, the
// journal and trace flush, and the process exits 0 — or 130 when a
// detection round was interrupted, mirroring cmd/rejecto.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/server"
	"repro/internal/storage"
)

func main() { os.Exit(run()) }

// run carries the whole command so deferred cleanups (trace flush, journal
// close via Shutdown) execute before the process exits.
func run() int {
	var (
		graphPath   = flag.String("graph", "", "path to the friendship base graph (required)")
		listen      = flag.String("listen", ":8080", "HTTP listen address")
		target      = flag.Int("target", 0, "per-interval estimated spammer count (termination condition)")
		threshold   = flag.Float64("threshold", 0, "acceptance-rate termination threshold, e.g. 0.5")
		detectEvery = flag.Duration("detect-every", 0, "run detection on this period (0 disables; POST /v1/detect always works)")
		storeDir    = flag.String("store-dir", "", "journal in segmented, checksummed storage under this directory; recovers state from it on start")
		segBytes    = flag.Int64("segment-bytes", 0, "with -store-dir, seal and roll segments at this size (0 = default 4 MiB)")
		snapEvery   = flag.Int("snapshot-every", 0, "with -store-dir, persist a snapshot after a detection once this many new records accumulated (0 disables)")
		queueSize   = flag.Int("queue", 1024, "ingest queue bound; a full queue answers 429")
		clShards    = flag.Int("cluster-shards", 0, "run the multi-node sharded backend with this many shards (requires -store-dir as the cluster root)")
		clWorkers   = flag.Int("cluster-workers", 0, "with -cluster-shards, the worker count shards are placed on (0 = one per shard)")
		noWarm      = flag.Bool("no-warm-start", false, "solve every round cold: epochs byte-identical to a batch replay of the journal")
		scoreDeny   = flag.Float64("score-deny", 0, "/v1/score deny threshold (0 = default 0.8)")
		scoreThrot  = flag.Float64("score-throttle", 0, "/v1/score throttle threshold (0 = default 0.5)")
		scoreWindow = flag.Int("score-window", 0, "sliding-window width of the score rate features, in answered requests (0 = default 1024)")
		kmin        = flag.Float64("kmin", 0, "minimum friends-to-rejections ratio in the sweep")
		kmax        = flag.Float64("kmax", 0, "maximum friends-to-rejections ratio in the sweep")
		seed        = flag.Uint64("seed", 42, "random seed")
		tracePath   = flag.String("trace", "", "write a JSONL event trace of every detection to this file")
		verbose     = flag.Bool("v", false, "print a per-round summary table after each detection epoch")
		debugAddr   = flag.String("debug-addr", "", "serve expvar and pprof on this address, e.g. :6060")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		return 2
	}
	if *target == 0 && *threshold == 0 {
		return fail("need -target or -threshold as a termination condition")
	}

	if *debugAddr != "" {
		// The default mux carries /debug/pprof/ (blank import above) and
		// /debug/vars (expvar via package obs); the rejecto.* and
		// rejecto.server.* counters appear there as the pipeline runs.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "rejectod: debug server: %v\n", err)
			}
		}()
		fmt.Printf("debug server: http://%s/debug/vars and http://%s/debug/pprof/\n", *debugAddr, *debugAddr)
	}

	g, err := graphio.ReadAny(*graphPath)
	if err != nil {
		return fail("reading graph: %v", err)
	}
	fmt.Printf("loaded %s: %d users, %d friendships, %d rejections\n",
		*graphPath, g.NumNodes(), g.NumFriendships(), g.NumRejections())

	// Tracer stack: JSONL sink, human summary, or both — same assembly as
	// cmd/rejecto, but long-lived across every detection epoch.
	var tracers []obs.Tracer
	var jsonl *obs.JSONLWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail("creating trace file: %v", err)
		}
		defer f.Close()
		jsonl = obs.NewJSONL(f)
		defer func() {
			if err := jsonl.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "rejectod: flushing trace: %v\n", err)
			}
		}()
		tracers = append(tracers, jsonl)
	}
	var summary *obs.Summary
	if *verbose {
		summary = obs.NewSummary()
		tracers = append(tracers, summary)
	}

	detector := core.DetectorOptions{
		Cut:                 core.CutOptions{KMin: *kmin, KMax: *kmax, RandSeed: *seed},
		TargetCount:         *target,
		AcceptanceThreshold: *threshold,
	}

	var backend server.Backend
	var store storage.Store
	if *clShards > 0 {
		// Cluster mode: the coordinator owns the store directory (one
		// segmented partition per shard) and the detection strategy; the
		// single-store snapshot path doesn't compose.
		if *storeDir == "" {
			return fail("-cluster-shards requires -store-dir as the cluster journal root")
		}
		if *snapEvery > 0 {
			return fail("-cluster-shards is mutually exclusive with -snapshot-every")
		}
		coord, err := cluster.New(cluster.Config{
			Base:         g,
			Detector:     detector,
			Shards:       *clShards,
			Workers:      *clWorkers,
			Dir:          *storeDir,
			SegmentBytes: *segBytes,
			Tracer:       obs.Multi(tracers...),
		})
		if err != nil {
			return fail("building cluster: %v", err)
		}
		backend = coord
		workers := *clWorkers
		if workers <= 0 {
			workers = *clShards
		}
		fmt.Printf("cluster backend: %d shards on %d workers under %s\n",
			*clShards, workers, *storeDir)
	} else if *storeDir != "" {
		store, err = storage.Open(storage.Options{
			Dir:          *storeDir,
			SegmentBytes: *segBytes,
			Tracer:       obs.Multi(tracers...),
		})
		if err != nil {
			return fail("opening store: %v", err)
		}
	} else if *snapEvery > 0 {
		return fail("-snapshot-every requires -store-dir")
	}

	srv, err := server.New(server.Config{
		Base:             g,
		Detector:         detector,
		DetectEvery:      *detectEvery,
		QueueSize:        *queueSize,
		Store:            store,
		Backend:          backend,
		SnapshotEvery:    *snapEvery,
		Tracer:           obs.Multi(tracers...),
		DisableWarmStart: *noWarm,
		Score: score.Options{
			DenyThreshold:     *scoreDeny,
			ThrottleThreshold: *scoreThrot,
			WindowEvents:      *scoreWindow,
		},
	})
	if err != nil {
		return fail("%v", err)
	}
	if ep := srv.CurrentEpoch(); ep.Events > 0 {
		fmt.Printf("recovered %d answered requests from %s\n", ep.Events, *storeDir)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail("listening: %v", err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	fmt.Printf("rejectod listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("rejectod: shutting down")
	case err := <-serveErr:
		return fail("serving: %v", err)
	}

	// Drain order matters: stop the listener first so no new events race
	// the queue drain, then let the server interrupt detection, drain the
	// queue, and flush the journal.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "rejectod: http shutdown: %v\n", err)
	}
	interrupted, err := srv.Shutdown(shutdownCtx)
	if err != nil {
		return fail("shutdown: %v", err)
	}
	if summary != nil {
		summary.WriteTable(os.Stdout)
		fmt.Println()
		summary.WritePhases(os.Stdout)
	}
	if interrupted {
		fmt.Println("rejectod: a detection round was interrupted; its completed prefix was published")
		return 130
	}
	fmt.Println("rejectod: drained cleanly")
	return 0
}

// Connection deadlines. A client that stops sending halfway through its
// request header loses the connection after readHeaderTimeout instead of
// holding it, a goroutine and a pooled buffer forever; an idle keep-alive
// connection is closed after idleTimeout. There is deliberately no
// whole-request read timeout: a large POST /v1/events body may take as
// long as its sender needs.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in an http.Server carrying the
// connection deadlines above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "rejectod: "+format+"\n", args...)
	return 1
}
