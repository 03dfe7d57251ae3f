// Command rejecto runs friend-spammer detection on a rejection-augmented
// social graph file (see internal/graphio for the format) and prints the
// detected groups.
//
// Usage:
//
//	rejecto -graph graph.txt [-target 100 | -threshold 0.5]
//	        [-legit-seeds 1,2,3] [-spammer-seeds 40,41]
//	        [-kmin 0.03125] [-kmax 32] [-seed 42] [-out suspects.txt]
//	        [-workers 4]  # >0 runs on the distributed engine
//	        [-retry-attempts 4] [-retry-timeout 0] [-retry-backoff 5ms]
//	        [-chaos-seed 7]  # inject a seeded fault schedule (distributed only)
//	        [-trace run.jsonl] [-v] [-debug-addr :6060]
//
// Observability:
//
//	-trace file   write one JSON line per pipeline event (package obs)
//	-v            print a per-round summary table and phase attribution
//	-debug-addr   serve expvar counters (/debug/vars, rejecto.* keys) and
//	              net/http/pprof (/debug/pprof/) on this address
//
// SIGINT/SIGTERM interrupt detection cleanly between rounds: the rounds
// completed so far are reported, the suspect list is still written, the
// trace is flushed, and the process exits with status 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/storage"
)

func main() { os.Exit(run()) }

// run carries the whole command so deferred cleanups (trace flush, output
// files) execute before the process exits — fatalf-style os.Exit calls are
// confined to flag validation, before any resource is open.
func run() int {
	var (
		graphPath = flag.String("graph", "", "path to the augmented social graph (required)")
		target    = flag.Int("target", 0, "estimated number of friend spammers (termination condition)")
		threshold = flag.Float64("threshold", 0, "acceptance-rate termination threshold, e.g. 0.5")
		legit     = flag.String("legit-seeds", "", "comma-separated known-legitimate node IDs")
		spammer   = flag.String("spammer-seeds", "", "comma-separated known-spammer node IDs")
		kmin      = flag.Float64("kmin", 0, "minimum friends-to-rejections ratio in the sweep")
		kmax      = flag.Float64("kmax", 0, "maximum friends-to-rejections ratio in the sweep")
		seed      = flag.Uint64("seed", 42, "random seed")
		out       = flag.String("out", "", "write suspect IDs to this file (default: stdout)")
		workers   = flag.Int("workers", 0, "run on the in-process distributed engine with this many workers")
		retryAtt  = flag.Int("retry-attempts", 0, "max attempts per cluster RPC (0 = engine default)")
		retryTO   = flag.Duration("retry-timeout", 0, "per-RPC timeout classified as transient (0 = none)")
		retryBack = flag.Duration("retry-backoff", 0, "base backoff between RPC retries (0 = engine default)")
		chaosSeed = flag.Uint64("chaos-seed", 0, "inject the seeded 'mixed' chaos fault schedule into the distributed run (0 = off)")
		requests  = flag.String("requests", "", "request-log file, or a stopped rejectod's -store-dir, for per-interval sharded detection (§VII); -graph supplies the friendship base")
		tracePath = flag.String("trace", "", "write a JSONL event trace to this file")
		verbose   = flag.Bool("v", false, "print per-round summary table and phase attribution")
		debugAddr = flag.String("debug-addr", "", "serve expvar and pprof on this address, e.g. :6060")
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
		// The default mux already carries /debug/pprof/ (blank import
		// above) and /debug/vars (expvar, pulled in by package obs); the
		// rejecto.* counters appear there as soon as the pipeline runs.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "rejecto: debug server: %v\n", err)
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

	seeds := core.Seeds{
		Legit:   parseIDs(*legit, g.NumNodes()),
		Spammer: parseIDs(*spammer, g.NumNodes()),
	}
	if seeds.Legit == nil && *legit != "" || seeds.Spammer == nil && *spammer != "" {
		return 1 // parseIDs already reported
	}

	// Assemble the tracer stack: JSONL sink, human summary, or both.
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
				fmt.Fprintf(os.Stderr, "rejecto: flushing trace: %v\n", err)
			}
		}()
		tracers = append(tracers, jsonl)
	}
	var summary *obs.Summary
	if *verbose {
		summary = obs.NewSummary()
		tracers = append(tracers, summary)
	}
	tracer := obs.Multi(tracers...)

	// SIGINT/SIGTERM close ctx.Done(); the detectors poll it between
	// rounds, so an interrupted run still returns its completed rounds.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cutOpts := core.CutOptions{
		KMin: *kmin, KMax: *kmax, Seeds: seeds, RandSeed: *seed, Tracer: tracer,
	}
	opts := core.DetectorOptions{
		Cut:                 cutOpts,
		TargetCount:         *target,
		AcceptanceThreshold: *threshold,
		Cancel:              ctx.Done(),
	}

	if *requests != "" {
		return runSharded(g, *requests, opts)
	}
	if *chaosSeed != 0 && *workers <= 0 {
		return fail("-chaos-seed needs the distributed engine; pass -workers too")
	}

	retry := dist.RetryPolicy{
		MaxAttempts: *retryAtt,
		Timeout:     *retryTO,
		BaseBackoff: *retryBack,
		JitterSeed:  *seed,
	}

	start := time.Now()
	var det core.Detection
	if *workers > 0 {
		det, err = detectDistributed(g, opts, *workers, retry, *chaosSeed, tracer, ctx.Done())
	} else {
		det, err = core.Detect(g, opts)
	}
	interrupted := errors.Is(err, core.ErrInterrupted)
	if err != nil && !interrupted {
		return fail("detection: %v", err)
	}
	if interrupted {
		fmt.Printf("interrupted after %s: partial results below (%d completed rounds)\n",
			time.Since(start).Round(time.Millisecond), det.Rounds)
	} else {
		fmt.Printf("detection finished in %s: %d rounds, %d groups, %d suspects\n",
			time.Since(start).Round(time.Millisecond), det.Rounds, len(det.Groups), len(det.Suspects))
	}
	for _, grp := range det.Groups {
		fmt.Printf("  round %d: %d accounts, aggregate acceptance %.3f (k=%.3f)\n",
			grp.Round, len(grp.Members), grp.Acceptance, grp.K)
	}
	if summary != nil {
		fmt.Println()
		summary.WriteTable(os.Stdout)
		fmt.Println()
		summary.WritePhases(os.Stdout)
	}

	if code := writeSuspects(det, *out); code != 0 {
		return code
	}
	if interrupted {
		return 130
	}
	return 0
}

// writeSuspects emits the suspect list to stdout or -out.
func writeSuspects(det core.Detection, out string) int {
	if out == "" {
		for _, u := range det.Suspects {
			fmt.Println(u)
		}
		return 0
	}
	f, err := os.Create(out)
	if err != nil {
		return fail("creating %s: %v", out, err)
	}
	defer f.Close()
	for _, u := range det.Suspects {
		fmt.Fprintln(f, u)
	}
	fmt.Printf("wrote %d suspect IDs to %s\n", len(det.Suspects), out)
	return 0
}

// runSharded executes the §VII deployment: requests sharded by time
// interval, one detection per interval over the friendship base.
func runSharded(base *graph.Graph, path string, opts core.DetectorOptions) int {
	reqs, err := readRequests(path)
	if err != nil {
		return fail("reading requests: %v", err)
	}
	fmt.Printf("loaded %d timed requests from %s\n", len(reqs), path)
	dets, err := core.DetectSharded(base, reqs, opts)
	if err != nil && !errors.Is(err, core.ErrInterrupted) {
		return fail("sharded detection: %v", err)
	}
	for _, d := range dets {
		fmt.Printf("interval %d: %d suspects in %d round(s)\n",
			d.Interval, len(d.Detection.Suspects), d.Detection.Rounds)
		for _, u := range d.Detection.Suspects {
			fmt.Printf("  %d\n", u)
		}
	}
	if errors.Is(err, core.ErrInterrupted) {
		fmt.Println("interrupted: intervals above are the completed prefix")
		return 130
	}
	return 0
}

// readRequests loads the answered-request journal at path: a graphio
// request-log file, or — when path is a directory — a stopped rejectod's
// segmented store, recovered exactly as a restart would (a torn tail is
// truncated in place).
func readRequests(path string) ([]core.TimedRequest, error) {
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		return graphio.ReadRequestsFile(path)
	}
	st, err := storage.Open(storage.Options{Dir: path})
	if err != nil {
		return nil, err
	}
	var reqs []core.TimedRequest
	_, err = st.Recover(func(batch []core.TimedRequest) error {
		reqs = append(reqs, batch...)
		return nil
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return reqs, err
}

func detectDistributed(g *graph.Graph, opts core.DetectorOptions, workers int, retry dist.RetryPolicy, chaosSeed uint64, tr obs.Tracer, cancel <-chan struct{}) (core.Detection, error) {
	var c *dist.Cluster
	var ct *chaos.Transport
	if chaosSeed != 0 {
		// Build the cluster by hand so the chaos layer sits between the
		// master and the local transport, and the retry path measures
		// timeouts/backoff on the chaos virtual clock.
		ws := make([]*dist.Worker, workers)
		for i := range ws {
			ws[i] = dist.NewWorker()
		}
		stats := &dist.IOStats{}
		mix, _ := chaos.Class("mixed")
		mix.Seed = chaosSeed
		mix.Tracer = tr
		ct = chaos.Wrap(dist.NewLocalTransport(ws, stats, 0), mix)
		c = dist.NewCluster(ct, stats)
		c.SetClock(ct.Clock())
	} else {
		c = dist.NewLocalCluster(workers, 0)
	}
	defer c.Close()
	c.SetTracer(tr)
	if err := c.LoadGraph(g, 2); err != nil {
		return core.Detection{}, err
	}
	if ct != nil {
		ct.Arm() // loading is fault-free; detection runs under fire
	}
	cfg := dist.DetectorConfig{
		Cut:                 opts.Cut,
		TargetCount:         opts.TargetCount,
		AcceptanceThreshold: opts.AcceptanceThreshold,
		Cancel:              cancel,
		Retry:               retry,
	}
	det := dist.NewDetector(c, g.NumNodes(), cfg)
	res, err := det.Detect(cfg)
	if err != nil {
		return res, err
	}
	io := c.IO()
	fmt.Printf("distributed run: %d workers, %s\n", workers, io)
	if ct != nil {
		ct.Disarm()
		fmt.Printf("chaos seed %d: %d faults over %d calls, %v virtual network time\n",
			chaosSeed, len(ct.Log()), ct.Calls(), ct.Clock().Elapsed())
		counts := ct.Counts()
		for kind := chaos.FaultLatency; kind <= chaos.FaultRestartDone; kind++ {
			if n := counts[kind]; n > 0 {
				fmt.Printf("  %s: %d\n", kind, n)
			}
		}
	}
	return res, nil
}

func parseIDs(s string, n int) []graph.NodeID {
	if s == "" {
		return nil
	}
	var out []graph.NodeID
	for _, field := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || v < 0 || v >= n {
			fmt.Fprintf(os.Stderr, "rejecto: bad node ID %q\n", field)
			return nil
		}
		out = append(out, graph.NodeID(v))
	}
	return out
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "rejecto: "+format+"\n", args...)
	return 1
}
