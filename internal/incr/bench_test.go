package incr

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// benchWorld is a primed-epoch scenario: a base graph, a journal spread
// over intervals, and a per-epoch delta generator producing the given
// fraction of the journal's requests, always landing in the last interval.
func benchWorld(deltaFrac float64) (base *graph.Graph, opts core.DetectorOptions, journalReqs []core.TimedRequest, makeDelta func(r *rand.Rand) Delta) {
	r := rand.New(rand.NewPCG(42, 1))
	const n, journal, intervals = 400, 8000, 8
	base = randomBase(r, n)
	opts = testOpts()
	journalReqs = randomRequests(r, n, journal, intervals)

	deltaSize := int(deltaFrac * float64(journal))
	if deltaSize < 1 {
		deltaSize = 1
	}
	makeDelta = func(r *rand.Rand) Delta {
		var d Delta
		for _, req := range randomRequests(r, n, deltaSize, intervals) {
			req.Interval = intervals - 1
			d.AddRequest(req)
		}
		return d
	}
	return base, opts, journalReqs, makeDelta
}

var benchFracs = []float64{0.001, 0.01, 0.1}

// BenchmarkEpochCold is the baseline: every epoch re-runs the batch
// engine over the full journal plus the accumulated deltas, the way the
// replay oracle (core.DetectSharded) does.
func BenchmarkEpochCold(b *testing.B) {
	for _, frac := range benchFracs {
		b.Run(fmt.Sprintf("delta=%g", frac), func(b *testing.B) {
			base, opts, journalReqs, makeDelta := benchWorld(frac)
			r := rand.New(rand.NewPCG(7, 2))
			reqs := append([]core.TimedRequest{}, journalReqs...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reqs = append(reqs, makeDelta(r).Requests...)
				if _, err := core.DetectSharded(base, reqs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEpochIncremental advances a primed engine by one delta per
// iteration. Warm-start outcomes are reported next to the timing, since a
// high fallback rate would mean the speedup comes with cold re-solves.
func BenchmarkEpochIncremental(b *testing.B) {
	for _, frac := range benchFracs {
		b.Run(fmt.Sprintf("delta=%g", frac), func(b *testing.B) {
			base, opts, journalReqs, makeDelta := benchWorld(frac)
			eng, err := NewEngine(Config{Base: base, Detector: opts})
			if err != nil {
				b.Fatal(err)
			}
			var prime Delta
			prime.Requests = journalReqs
			if _, _, err := eng.Step(prime); err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewPCG(7, 2))
			fallbacks, warm := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := eng.Step(makeDelta(r))
				if err != nil {
					b.Fatal(err)
				}
				fallbacks += stats.Fallbacks
				warm += stats.WarmRounds
			}
			b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
			b.ReportMetric(float64(warm)/float64(b.N), "warmrounds/op")
		})
	}
}
