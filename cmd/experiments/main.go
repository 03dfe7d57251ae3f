// Command experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records a full run next to the published values.
//
// Usage:
//
//	experiments -list
//	experiments -run fig9 [-dataset Facebook] [-scale 1] [-seed 42]
//	experiments -run all -scale 0.2
//	experiments -run table2 -table2-users 50000,100000,200000
//	experiments -run table2 -trace table2.jsonl   # + phase attribution
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/simulate"
)

type experiment struct {
	id    string
	about string
	run   func(cfg simulate.Config, args *cliArgs) error
}

type cliArgs struct {
	table2Users   string
	table2Workers int
	table2Latency time.Duration
	tracePath     string
	matrixOut     string
}

func main() {
	var (
		runID   = flag.String("run", "", "experiment id to run, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids")
		dataset = flag.String("dataset", "Facebook", "Table I dataset for single-graph figures")
		scale   = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper scale)")
		seed    = flag.Uint64("seed", 42, "root random seed")
		trials  = flag.Int("trials", 1, "trials to average per point")
		args    cliArgs
	)
	flag.StringVar(&args.table2Users, "table2-users", "", "comma-separated user counts for table2")
	flag.IntVar(&args.table2Workers, "table2-workers", 5, "cluster size for table2")
	flag.DurationVar(&args.table2Latency, "table2-latency", 500*time.Microsecond, "simulated per-call latency for table2")
	flag.StringVar(&args.tracePath, "trace", "", "write a JSONL event trace of the table2 run and print phase attribution")
	flag.StringVar(&args.matrixOut, "matrix-out", "", "write the adversary/defense matrix JSON artifact to this path")
	flag.Parse()

	exps := experiments()
	if *list || *runID == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-8s %s\n", e.id, e.about)
		}
		if *runID == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := simulate.Config{
		Dataset: *dataset,
		Scale:   *scale,
		Seed:    *seed,
		Trials:  *trials,
	}.WithDefaults()

	selected := make([]experiment, 0, len(exps))
	for _, e := range exps {
		if *runID == "all" || e.id == *runID {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *runID)
		os.Exit(2)
	}
	for _, e := range selected {
		start := time.Now()
		if err := e.run(cfg, &args); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %s]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

func experiments() []experiment {
	exps := []experiment{
		{"table1", "the seven evaluation graphs: published vs generated stats", runTable1},
		{"fig1", "qualitative §II analog: friends vs pending requests on fake accounts", runFig1},
		{"fig9", "precision vs requests per fake (all fakes spam)", sweepRunner("Fig 9", "requests/fake", simulate.Config.Fig9Points)},
		{"fig10", "precision vs requests per fake (half the fakes spam)", sweepRunner("Fig 10", "requests/fake", simulate.Config.Fig10Points)},
		{"fig11", "precision vs rejection rate of spam requests", sweepRunner("Fig 11", "spam rejection rate", simulate.Config.Fig11Points)},
		{"fig12", "precision vs rejection rate of legitimate requests", sweepRunner("Fig 12", "legit rejection rate", simulate.Config.Fig12Points)},
		{"fig13", "collusion resilience: extra intra-fake edges per fake", sweepRunner("Fig 13", "extra edges/fake", simulate.Config.Fig13Points)},
		{"fig14", "self-rejection resilience: whitewash rejection rate", sweepRunner("Fig 14", "self-rejection rate", simulate.Config.Fig14Points)},
		{"fig15", "rejections cast by spammers on legitimate requests", sweepRunner("Fig 15", "rejections (K)", simulate.Config.Fig15Points)},
		{"fig16", "defense in depth: SybilRank AUC vs accounts removed", runFig16},
		{"fig17", "Fig 9-12 sweeps on the six other graphs", runFig17},
		{"fig18", "Fig 13-15 sweeps on the six other graphs", runFig18},
		{"table2", "distributed-engine scalability", runTable2},
		{"score", "real-time verdicts vs batch-only: precision/recall on a post-epoch spam wave", runScore},
		{"matrix", "adversary/defense matrix: adaptive strategies × fusion defenses", runMatrix},
	}
	return exps
}

func sweepRunner(title, xLabel string, points func(simulate.Config) []simulate.SweepPoint) func(simulate.Config, *cliArgs) error {
	return func(cfg simulate.Config, _ *cliArgs) error {
		outcomes, err := cfg.Sweep(points(cfg))
		if err != nil {
			return err
		}
		t := simulate.OutcomeTable(
			fmt.Sprintf("%s — %s (scale %.2f, seed %d)", title, cfg.Dataset, cfg.Scale, cfg.Seed),
			xLabel, outcomes)
		return t.Render(os.Stdout)
	}
}

func runTable1(cfg simulate.Config, _ *cliArgs) error {
	rows, err := cfg.TableI()
	if err != nil {
		return err
	}
	t := simulate.NewTable("Table I — evaluation graphs (published vs generated stand-in)",
		"graph", "nodes", "edges(paper)", "edges", "cc(paper)", "cc", "diam(paper)", "diam")
	for _, r := range rows {
		t.AddRow(r.Name, r.Nodes, r.PaperEdges, r.Edges, r.PaperCC, r.CC, r.PaperDiameter, r.Diameter)
	}
	return t.Render(os.Stdout)
}

func runFig1(cfg simulate.Config, _ *cliArgs) error {
	// 43 accounts with ≥ 50 requested contacts, like the purchased set of
	// §II; targets accept 30%, explicitly reject 35%, ignore the rest.
	sum, err := cfg.Fig1(43, 80, 0.30, 0.35)
	if err != nil {
		return err
	}
	t := simulate.NewTable("Fig 1 (qualitative §II analog) — fake-account footprint",
		"account", "friends", "pending", "pending fraction")
	for _, r := range sum.Rows {
		frac := 0.0
		if r.Friends+r.Pending > 0 {
			frac = float64(r.Pending) / float64(r.Friends+r.Pending)
		}
		t.AddRow(int(r.Account), r.Friends, r.Pending, frac)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("pending fraction: min %.3f, median %.3f, max %.3f (paper: 0.167–0.679)\n",
		sum.MinFraction, sum.MedianFraction, sum.MaxFraction)
	return nil
}

func runFig16(cfg simulate.Config, _ *cliArgs) error {
	for _, ds := range []string{"Facebook", "ca-AstroPh"} {
		dcfg := cfg
		dcfg.Dataset = ds
		points, err := dcfg.Fig16(dcfg.Fig16Removals())
		if err != nil {
			return err
		}
		t := simulate.NewTable(
			fmt.Sprintf("Fig 16 — SybilRank AUC after Rejecto removals (%s, scale %.2f)", ds, cfg.Scale),
			"removed", "auc")
		for _, p := range points {
			t.AddRow(p.Removed, p.AUC)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func runFig17(cfg simulate.Config, _ *cliArgs) error {
	cols := []simulate.Fig17Scenario{
		simulate.Fig17AllSpam, simulate.Fig17HalfSpam,
		simulate.Fig17SpamRejRate, simulate.Fig17LegitRate,
	}
	for _, ds := range simulate.AppendixGraphs() {
		for _, col := range cols {
			dcfg := cfg
			dcfg.Dataset = ds
			outcomes, err := dcfg.Sweep(dcfg.Fig17Points(col))
			if err != nil {
				return err
			}
			t := simulate.OutcomeTable(
				fmt.Sprintf("Fig 17 — %s / %s (scale %.2f)", ds, col, cfg.Scale),
				string(col), outcomes)
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}

func runFig18(cfg simulate.Config, _ *cliArgs) error {
	cols := []simulate.Fig18Scenario{
		simulate.Fig18Collusion, simulate.Fig18SelfRejection, simulate.Fig18RejectLegit,
	}
	for _, ds := range simulate.AppendixGraphs() {
		for _, col := range cols {
			dcfg := cfg
			dcfg.Dataset = ds
			outcomes, err := dcfg.Sweep(dcfg.Fig18Points(col))
			if err != nil {
				return err
			}
			t := simulate.OutcomeTable(
				fmt.Sprintf("Fig 18 — %s / %s (scale %.2f)", ds, col, cfg.Scale),
				string(col), outcomes)
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}

func runTable2(cfg simulate.Config, args *cliArgs) error {
	tcfg := simulate.TableIIConfig{
		Workers:        args.table2Workers,
		LatencyPerCall: args.table2Latency,
		Seed:           cfg.Seed,
	}
	if args.table2Users != "" {
		for _, field := range strings.Split(args.table2Users, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -table2-users entry %q", field)
			}
			tcfg.UserCounts = append(tcfg.UserCounts, n)
		}
	}
	// A -trace run captures every size point in one JSONL stream and one
	// summary; the phase attribution below therefore aggregates across the
	// whole sweep (the per-round table would conflate size points, so only
	// the freeze/sweep/prune totals are printed here).
	var summary *obs.Summary
	if args.tracePath != "" {
		f, err := os.Create(args.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl := obs.NewJSONL(f)
		defer func() {
			if err := jsonl.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "flushing trace: %v\n", err)
			}
		}()
		summary = obs.NewSummary()
		tcfg.Tracer = obs.Multi(jsonl, summary)
	}
	rows, err := simulate.TableII(tcfg)
	if err != nil {
		return err
	}
	if summary != nil {
		defer func() {
			fmt.Printf("\nphase attribution across the sweep (trace: %s):\n", args.tracePath)
			summary.WritePhases(os.Stdout)
		}()
	}
	t := simulate.NewTable(
		fmt.Sprintf("Table II — distributed-engine scalability (%d workers, %s simulated RTT)",
			args.table2Workers, args.table2Latency),
		"users", "edges", "wall", "rpc calls", "MB sent", "MB recv", "net time")
	for _, r := range rows {
		t.AddRow(r.Users, r.Edges, r.WallTime.Round(time.Millisecond).String(),
			r.Calls,
			fmt.Sprintf("%.1f", float64(r.BytesSent)/1e6),
			fmt.Sprintf("%.1f", float64(r.BytesRecv)/1e6),
			r.VirtualNetworkTime.Round(time.Millisecond).String())
	}
	return t.Render(os.Stdout)
}
