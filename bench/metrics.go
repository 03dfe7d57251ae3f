package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind a
// percentile or median (0 for plain counts and ratios).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metricSet map[string]metric

// metricDef declares a metric the benchmark promises to emit: BENCHMARK.json
// lists exactly these names, and a run that leaves one out fails.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the gated metrics, reported with tracing off by every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_evps", "1/s", "higher", 0.25},
	{"ingest_ack_p10_ms", "ms", "lower", 0.25},
	{"epoch_p50_s", "s", "lower", 0.25},
	{"event_to_verdict_p50_s", "s", "lower", 0.25},
	{"score_p50_us", "us", "lower", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"detect_recall", "ratio", "higher", 0.02},
	{"detect_precision", "ratio", "higher", 0.02},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// perLayer are the ungated metrics of the traced run. A layer a workload
// does not exercise reports 0 (the contract wants every name on every
// workload); bench/README.md lists which are live where.
var perLayer = []metricDef{
	// Demoted from the end-to-end set: their run-to-run spread on the
	// reference box is wider than any bound the contract allows (see
	// bench/README.md, "A/A and demotions"). Reported, not gated.
	{"ingest_ack_p50_ms", "ms", "lower", 0},
	{"ingest_ack_p99_ms", "ms", "lower", 0},
	{"score_p99_us", "us", "lower", 0},
	{"rss_peak_mb", "MB", "lower", 0},

	{"server.decode_ns_per_event", "ns", "lower", 0},
	{"server.fold_ns_per_event", "ns", "lower", 0},
	{"server.queue_depth_p50", "count", "lower", 0},
	{"server.queue_depth_max", "count", "lower", 0},
	{"server.backpressure_429s", "count", "lower", 0},
	{"server.fold_lag_p50_ms", "ms", "lower", 0},
	{"server.fold_lag_p99_ms", "ms", "lower", 0},
	{"server.gate_hold_ms_total", "ms", "lower", 0},
	{"server.http_overhead_us", "us", "lower", 0},

	{"storage.append_ns_per_rec", "ns", "lower", 0},
	{"storage.ledger_append_ns_per_rec", "ns", "lower", 0},
	{"storage.flush_count", "count", "lower", 0},
	{"storage.recs_per_flush", "count", "higher", 0},
	{"storage.flush_p50_us", "us", "lower", 0},
	{"storage.flush_p99_us", "us", "lower", 0},
	{"storage.busy_frac", "ratio", "lower", 0},
	{"storage.snapshot_count", "count", "lower", 0},
	{"storage.snapshot_p50_ms", "ms", "lower", 0},
	{"storage.recover_ms", "ms", "lower", 0},
	{"storage.recover_recs_per_s", "1/s", "higher", 0},
	{"storage.bytes_per_rec", "B", "lower", 0},

	{"score.observe_ns", "ns", "lower", 0},
	{"score.score_ns", "ns", "lower", 0},
	{"score.publish_ms", "ms", "lower", 0},
	{"score.server_p50_us", "us", "lower", 0},
	{"score.server_p99_us", "us", "lower", 0},
	{"score.verdict_deny_frac", "ratio", "higher", 0},

	{"incr.delta_add_ns", "ns", "lower", 0},
	{"incr.read_model_ms_p50", "ms", "lower", 0},
	{"incr.patch_ms_p50", "ms", "lower", 0},
	{"incr.solve_ms_p50", "ms", "lower", 0},
	{"incr.reused_per_epoch", "count", "higher", 0},
	{"incr.patched_per_epoch", "count", "lower", 0},
	{"incr.cold_built_per_epoch", "count", "lower", 0},
	{"incr.warm_rounds_per_epoch", "count", "higher", 0},
	{"incr.fallbacks_per_epoch", "count", "lower", 0},
	{"incr.cold_rounds_per_epoch", "count", "lower", 0},
	{"incr.warm_useful_frac", "ratio", "higher", 0},

	{"core.detect_ms_p50", "ms", "lower", 0},
	{"core.rounds_per_epoch", "count", "lower", 0},
	{"core.solves_per_epoch", "count", "lower", 0},
	{"core.sweep_ms_per_epoch", "ms", "lower", 0},
	{"core.freeze_ms_per_epoch", "ms", "lower", 0},
	{"core.prune_ms_per_epoch", "ms", "lower", 0},
	{"core.cold_detect_s", "s", "lower", 0},

	{"kl.solve_p50_ms", "ms", "lower", 0},
	{"kl.passes_per_solve", "count", "lower", 0},
	{"kl.switches_per_epoch", "count", "lower", 0},
	{"kl.rollback_frac", "ratio", "lower", 0},

	{"ml.coarsen_ms_per_epoch", "ms", "lower", 0},
	{"ml.solve_ms_per_epoch", "ms", "lower", 0},
	{"ml.refine_ms_per_epoch", "ms", "lower", 0},
	{"ml.fallbacks_per_epoch", "count", "lower", 0},

	{"graph.freeze_ms", "ms", "lower", 0},
	{"graph.splice_ms", "ms", "lower", 0},

	{"cluster.append_ns_per_rec", "ns", "lower", 0},
	{"cluster.flush_p50_us", "us", "lower", 0},
	{"cluster.detect_p50_ms", "ms", "lower", 0},
	{"cluster.ship_ms_per_epoch", "ms", "lower", 0},
	{"cluster.shard_detect_max_ms", "ms", "lower", 0},
	{"cluster.coord_self_ms_per_epoch", "ms", "lower", 0},
	{"cluster.merge_ms_p50", "ms", "lower", 0},
	{"cluster.boundary_frac", "ratio", "lower", 0},
	{"cluster.shard_skew", "ratio", "lower", 0},
	{"dist.rpc_count", "count", "lower", 0},
	{"dist.rpc_p50_us", "us", "lower", 0},
	{"dist.retries", "count", "lower", 0},

	{"gen.encode_ns_per_event", "ns", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"ledger.ingest_ns_per_event", "ns", "lower", 0},
	{"ledger.ingest_unattributed_frac", "ratio", "lower", 0},
	{"ledger.epoch_unattributed_frac", "ratio", "lower", 0},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// put records a declared metric; its unit comes from the declaration.
func (m metricSet) put(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// fill gives every declared metric the run did not produce the value 0,
// with its declared unit.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{Unit: d.unit}
		}
	}
}

// check reports declared metrics that are missing or not finite.
func (m metricSet) check(defs []metricDef) error {
	for _, d := range defs {
		got, ok := m[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", d.name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", d.name, got.Value)
		}
	}
	return nil
}

// write prints the declared metrics in declaration order.
func (m metricSet) write(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		got := m[d.name]
		n := ""
		if got.N > 0 {
			n = fmt.Sprintf("n=%d", got.N)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", d.name, got.Value, got.Unit, n)
	}
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the midpoint median (mean of the two middle values for an
// even count), so an even number of epochs does not pick a side.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func secs(d time.Duration) float64   { return d.Seconds() }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
