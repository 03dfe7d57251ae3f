// Command bench is the rejectod end-to-end benchmark: four workloads
// against the recommended configuration served over real HTTP, ten gated
// end-to-end metrics measured with tracing off, and a per-layer ledger
// from a second, traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Uint64("seed", 42, "traffic seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured window per workload; every phase is a fixed share of it")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans as JSONL to this file")
		aa       = flag.Int("aa", 0, "run two sets of N untraced runs of each workload and compare their medians")
		child    = flag.String("child", "", "internal: run one workload in this process and print its report")
		setups   = flag.Int("setups", untracedSetups, "internal: how many times the child runs set-up")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(childMain(job{*child, *seed, *seconds, *setups, *trace == 1, *traceOut}))
	}
	var names []string
	switch {
	case *workload == "all":
		names = workloadNames()
	case specByName(*workload) != nil:
		names = []string{*workload}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	env := describeEnv()
	fmt.Printf("config  %s\ncommit  %s\nmachine %s\nseed    %d\n", env.Config, env.Commit, env.Machine, *seed)
	if *aa > 0 {
		os.Exit(aaMain(names, *seed, *seconds, *aa))
	}
	ok := true
	for _, name := range names {
		res, err := measure(job{name, *seed, *seconds, untracedSetups, *trace == 1, *traceOut})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.env = env
		res.print()
		if err := res.store(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: storing result: %v\n", name, err)
			os.Exit(1)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

// untracedSetups is how often an untraced run repeats set-up to report a
// steady setup_s.
const untracedSetups = 3

// job is one child process's assignment.
type job struct {
	workload string
	seed     uint64
	seconds  float64
	setups   int
	traced   bool
	traceOut string
}

// childMain is the body of a child process: one workload, one report on
// the last line of standard output.
func childMain(j job) int {
	sp := specByName(j.workload)
	if sp == nil || j.setups < 1 {
		fmt.Fprintf(os.Stderr, "bench: bad child job %+v\n", j)
		return 2
	}
	rep, err := runWorkload(runConfig{
		sp: sp, seed: j.seed, seconds: j.seconds, nodes: fullScaleNodes,
		setups: j.setups, traced: j.traced, traceOut: j.traceOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// spawn runs one workload in a fresh child process of this binary, so
// peak RSS and GC state do not leak from one workload into the next.
func spawn(j job) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", j.workload, "-seed", fmt.Sprint(j.seed), "-seconds", fmt.Sprint(j.seconds),
		"-setups", fmt.Sprint(j.setups),
	}
	if j.traced {
		args = append(args, "-trace", "1", "-trace-out", j.traceOut)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// The child must not outlive a parent that is killed on a timeout.
	// Pdeathsig fires when the spawning thread exits, so pin it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &rep, nil
}

// result is one workload's outcome as the parent prints and stores it.
type result struct {
	report
	defs []metricDef
	env  envBlock
}

// measure produces one workload's result: the untraced run's end-to-end
// metrics, or — with tracing — the per-layer metrics of a traced run next
// to an untraced run of the same shape, whose difference is the tracing
// overhead.
func measure(j job) (*result, error) {
	if !j.traced {
		rep, err := spawn(j)
		if err != nil {
			return nil, err
		}
		return finish(rep, endToEnd)
	}
	// Neither run of the traced pair reports setup_s: set up once each.
	j.setups = 1
	untraced := j
	untraced.traced = false
	plain, err := spawn(untraced)
	if err != nil {
		return nil, err
	}
	rep, err := spawn(j)
	if err != nil {
		return nil, err
	}
	// The headline metric: what the workload exists to measure.
	headline, sign := "epoch_p50_s", 1.0
	if specByName(j.workload).cutEvents == 0 {
		headline, sign = "ingest_evps", -1.0
	}
	base := plain.Metrics[headline].Value
	rep.Metrics.put("trace.overhead_frac", sign*ratio(rep.Metrics[headline].Value-base, base), 0)
	rep.Metrics.fill(perLayer)
	rep.Correct = rep.Correct && plain.Correct
	rep.Problems = append(rep.Problems, plain.Problems...)
	rep.Attempted += plain.Attempted
	rep.Failed += plain.Failed
	rep.WallS += plain.WallS
	return finish(rep, perLayer)
}

func finish(rep *report, defs []metricDef) (*result, error) {
	if err := rep.Metrics.check(defs); err != nil {
		return nil, err
	}
	return &result{report: *rep, defs: defs}, nil
}

// print writes the human-readable table and, as the last line, the result
// object the benchmark contract asks for.
func (r *result) print() {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("\n%s  seed %d  %gs window  %s  [%d operations, %d failed, %.1fs wall]\n",
		r.Workload, r.Seed, r.Seconds, kind, r.Attempted, r.Failed, r.WallS)
	r.Metrics.write(os.Stdout, r.defs)
	fmt.Printf("  epochs (s): %.3f  [%s]\n", r.EpochS, r.Epochs)
	for _, p := range r.Problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wire{}}
	for _, d := range r.defs {
		out.Metrics[d.name] = wire{r.Metrics[d.name].Value, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to encode
	}
	fmt.Printf("%s\n", line)
}

// store keeps the full result — metrics with sample counts, plus the
// config / commit / machine block — under the build directory.
func (r *result) store() error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.Traced {
		kind = "layers"
	}
	data, err := json.MarshalIndent(struct {
		envBlock
		At string `json:"at"`
		report
	}{r.env, time.Now().UTC().Format(time.RFC3339), r.report}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", r.Workload, kind, r.Seed)), append(data, '\n'), 0o644)
}
