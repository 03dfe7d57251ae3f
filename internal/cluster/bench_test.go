package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// benchShards are the layouts the cluster benchmarks compare.
var benchShards = []int{1, 2, 4}

// benchClusterWorld is the fixed workload every layout ingests: the same
// base and journal, so timings across layouts are directly comparable.
// TestShardLoadSplitsJournal routes it too.
func benchClusterWorld() (*graph.Graph, core.DetectorOptions, []core.TimedRequest) {
	r := rand.New(rand.NewPCG(42, 1))
	const n, journal, intervals = 800, 40000, 8
	base := testBase(r, n)
	// Parallelism 1 inside each solve: epoch scaling should come from the
	// shard fan-out, not from oversubscribing every shard's KL.
	opts := core.DetectorOptions{
		Cut:                 core.CutOptions{RandSeed: 7, Parallelism: 1},
		AcceptanceThreshold: 0.6,
		MaxRounds:           4,
	}
	return base, opts, testRequests(r, n, journal, intervals)
}

// busyCollector sums each shard's ship busy time (encode, worker append,
// fsync) from cluster.ship events. Under Config.Serial the ships run one
// at a time, so every shard's busy time is an isolated measurement even
// on a single-CPU host — the busiest shard is the shard tier's ingest
// bottleneck when each shard runs on its own node.
type busyCollector struct {
	mu   sync.Mutex
	busy map[int]time.Duration
}

func (bc *busyCollector) Emit(ev obs.Event) {
	if ev.Name != obs.EvClusterShip {
		return
	}
	bc.mu.Lock()
	bc.busy[ev.Job] += ev.Dur
	bc.mu.Unlock()
}

func (bc *busyCollector) max() time.Duration {
	var m time.Duration
	for _, d := range bc.busy {
		if d > m {
			m = d
		}
	}
	return m
}

func benchCoordinator(b *testing.B, base *graph.Graph, opts core.DetectorOptions, shards int, mods ...func(*Config)) *Coordinator {
	b.Helper()
	cfg := Config{
		Base:     base,
		Detector: opts,
		Shards:   shards,
		Dir:      b.TempDir(),
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Recover(nil); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkClusterIngest ingests one full journal per iteration — Append
// routing plus one Flush that ships every shard's slice — and reports two
// timings:
//
//   - ns/op: single-process wall time (every shard's ship work and fsyncs
//     share this machine, so it is GOMAXPROCS- and disk-bound);
//   - busyns/op: the busiest shard's total ship busy time, measured with
//     serial fan-out so each shard's work is timed in isolation. This is
//     the shard tier's ingest bottleneck when each shard runs on its own
//     node.
//
// recs/op reports the fixed record count, letting tooling turn either
// timing into records/sec.
func BenchmarkClusterIngest(b *testing.B) {
	base, opts, reqs := benchClusterWorld()
	for _, shards := range benchShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var busyTotal time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bc := &busyCollector{busy: make(map[int]time.Duration)}
				c := benchCoordinator(b, base, opts, shards, func(cfg *Config) {
					cfg.Serial = true
					cfg.Tracer = bc
				})
				b.StartTimer()
				for _, req := range reqs {
					if err := c.Append(req); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				busyTotal += bc.max()
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(busyTotal.Nanoseconds())/float64(b.N), "busyns/op")
			b.ReportMetric(float64(len(reqs)), "recs/op")
		})
	}
}

// BenchmarkClusterEpoch times one merged detection epoch over the fully
// ingested journal per iteration: shard fan-out, per-shard engine steps,
// and the interval-ordered merge.
func BenchmarkClusterEpoch(b *testing.B) {
	base, opts, reqs := benchClusterWorld()
	for _, shards := range benchShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := benchCoordinator(b, base, opts, shards)
				for _, req := range reqs {
					if err := c.Append(req); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := c.Detect(len(reqs), nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
