package incr

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
)

// randomBase builds a friendship-only base graph: a ring with random
// chords, the §VII deployment's pre-existing social graph.
func randomBase(r *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddFriendship(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	for i := 0; i < n; i++ {
		u, v := r.IntN(n), r.IntN(n)
		if u != v {
			g.AddFriendship(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return g
}

// randomRequests draws count answered requests over nNodes and maxIv
// intervals. Spammy senders (top decile of IDs) are rejected often, so
// detections have something to find.
func randomRequests(r *rand.Rand, nNodes, count, maxIv int) []core.TimedRequest {
	reqs := make([]core.TimedRequest, 0, count)
	for i := 0; i < count; i++ {
		from := graph.NodeID(r.IntN(nNodes))
		to := graph.NodeID(r.IntN(nNodes))
		if from == to {
			continue
		}
		rejOdds := 0.25
		if int(from) >= nNodes*9/10 {
			rejOdds = 0.8
		}
		reqs = append(reqs, core.TimedRequest{
			From: from, To: to,
			Accepted: r.Float64() >= rejOdds,
			Interval: r.IntN(maxIv),
		})
	}
	return reqs
}

// coldModel folds base + requests into one mutable graph and freezes it
// canonically — the reference Patch must hit byte for byte.
func coldModel(base *graph.Graph, newNodes int, reqs []core.TimedRequest) *graph.Frozen {
	aug := base.Clone()
	aug.AddNodes(newNodes)
	for _, req := range reqs {
		if req.From == req.To {
			continue
		}
		if req.Accepted {
			aug.AddFriendship(req.From, req.To)
		} else {
			aug.AddRejection(req.To, req.From)
		}
	}
	return aug.FreezeCanonical()
}

// TestPatchByteIdentity is the tentpole property: over hundreds of random
// delta sequences, chaining Patch over the previous snapshot equals a cold
// FreezeCanonical of the fully folded log — CSR arrays compared directly —
// at every step of the chain.
func TestPatchByteIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 17))
		n := 10 + r.IntN(40)
		base := randomBase(r, n)
		snap := base.FreezeCanonical()
		var all []core.TimedRequest
		newNodes := 0
		for step := 0; step < 1+r.IntN(4); step++ {
			var d Delta
			if r.IntN(4) == 0 {
				d.NewNodes = r.IntN(3)
			}
			for _, req := range randomRequests(r, n+newNodes+d.NewNodes, 1+r.IntN(25), 3) {
				d.AddRequest(req)
			}
			snap = Patch(snap, d)
			all = append(all, d.Requests...)
			newNodes += d.NewNodes
			if !snap.Equal(coldModel(base, newNodes, all)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 220}); err != nil {
		t.Fatal(err)
	}
}

func testOpts() core.DetectorOptions {
	return core.DetectorOptions{
		Cut:                 core.CutOptions{RandSeed: 7, Parallelism: 2},
		AcceptanceThreshold: 0.6,
		MaxRounds:           4,
	}
}

// sameDetections asserts two interval-detection sets are identical —
// intervals, rounds, group membership and scores, suspect order.
func sameDetections(t *testing.T, got, want []core.IntervalDetection, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d intervals, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Interval != w.Interval {
			t.Fatalf("%s: interval %d vs %d at %d", what, g.Interval, w.Interval, i)
		}
		if g.Detection.Rounds != w.Detection.Rounds || len(g.Detection.Groups) != len(w.Detection.Groups) {
			t.Fatalf("%s: interval %d shape differs", what, g.Interval)
		}
		for j := range g.Detection.Groups {
			gg, wg := g.Detection.Groups[j], w.Detection.Groups[j]
			if gg.Acceptance != wg.Acceptance || gg.K != wg.K || len(gg.Members) != len(wg.Members) {
				t.Fatalf("%s: interval %d group %d differs", what, g.Interval, j)
			}
			for m := range gg.Members {
				if gg.Members[m] != wg.Members[m] {
					t.Fatalf("%s: interval %d group %d member %d differs", what, g.Interval, j, m)
				}
			}
		}
		for j := range g.Detection.Suspects {
			if g.Detection.Suspects[j] != w.Detection.Suspects[j] {
				t.Fatalf("%s: interval %d suspect %d differs", what, g.Interval, j)
			}
		}
	}
}

// TestEngineEquivalentToDetectSharded: with warm starting off, every Step
// over a random delta sequence must report exactly what a from-scratch
// core.DetectSharded over the accumulated journal reports.
func TestEngineEquivalentToDetectSharded(t *testing.T) {
	opts := testOpts()
	for seed := uint64(0); seed < 25; seed++ {
		r := rand.New(rand.NewPCG(seed, 31))
		n := 20 + r.IntN(40)
		base := randomBase(r, n)
		eng, err := NewEngine(Config{Base: base, Detector: opts, DisableWarm: true})
		if err != nil {
			t.Fatal(err)
		}
		var all []core.TimedRequest
		for step := 0; step < 1+r.IntN(4); step++ {
			var d Delta
			for _, req := range randomRequests(r, n, 1+r.IntN(40), 4) {
				d.AddRequest(req)
			}
			got, _, err := eng.Step(d)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			all = append(all, d.Requests...)
			want, err := core.DetectSharded(base, all, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameDetections(t, got, want, "incremental diverged from batch")
		}
	}
}

// TestEngineSnapshotsByteIdentical (white-box): after a sequence of Steps,
// every interval's live snapshot equals the cold canonical build of its
// shard — the patched path never drifts.
func TestEngineSnapshotsByteIdentical(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 33))
	const n = 40
	base := randomBase(r, n)
	eng, err := NewEngine(Config{Base: base, Detector: testOpts(), DisableWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	shards := make(map[int][]core.TimedRequest)
	for step := 0; step < 5; step++ {
		var d Delta
		for _, req := range randomRequests(r, n, 30, 3) {
			d.AddRequest(req)
		}
		if _, _, err := eng.Step(d); err != nil {
			t.Fatal(err)
		}
		for _, req := range d.Requests {
			shards[req.Interval] = append(shards[req.Interval], req)
		}
	}
	for iv, st := range eng.intervals {
		if !st.frozen.Equal(coldModel(base, 0, shards[iv])) {
			t.Fatalf("interval %d snapshot diverged from cold build", iv)
		}
	}
}

// TestEngineReusesUntouchedIntervals: a delta confined to one interval
// must leave every other interval's detection served from memo, with the
// touched one patched, not cold-rebuilt.
func TestEngineReusesUntouchedIntervals(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 44))
	const n = 60
	base := randomBase(r, n)
	eng, err := NewEngine(Config{Base: base, Detector: testOpts(), DisableWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	var seedDelta Delta
	for _, req := range randomRequests(r, n, 400, 5) {
		seedDelta.AddRequest(req)
	}
	first, stats, err := eng.Step(seedDelta)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ColdBuilt != 5 || stats.Reused != 0 {
		t.Fatalf("first step: %d cold builds, %d reused; want 5, 0", stats.ColdBuilt, stats.Reused)
	}

	var d Delta
	for _, req := range randomRequests(r, n, 8, 5) {
		req.Interval = 2
		d.AddRequest(req)
	}
	second, stats, err := eng.Step(d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Patched != 1 || stats.ColdBuilt != 0 {
		t.Fatalf("delta step: %d patched, %d cold; want 1, 0", stats.Patched, stats.ColdBuilt)
	}
	if stats.Reused != len(first)-1 {
		t.Fatalf("delta step reused %d intervals, want %d", stats.Reused, len(first)-1)
	}
	for i, det := range second {
		if det.Interval == 2 {
			continue
		}
		sameDetections(t, []core.IntervalDetection{det}, []core.IntervalDetection{first[i]},
			"untouched interval changed")
	}
}

// TestEngineColdFallbackOnLargeDelta: a delta larger than MaxPatchFraction
// of the interval's graph must rebuild cold, and the results must still
// match the batch engine.
func TestEngineColdFallbackOnLargeDelta(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 55))
	const n = 50
	base := randomBase(r, n)
	opts := testOpts()
	eng, err := NewEngine(Config{Base: base, Detector: opts, DisableWarm: true, MaxPatchFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var first Delta
	for _, req := range randomRequests(r, n, 60, 1) {
		first.AddRequest(req)
	}
	if _, _, err := eng.Step(first); err != nil {
		t.Fatal(err)
	}
	// A second delta of comparable size to the shard blows the 5% budget.
	var big Delta
	for _, req := range randomRequests(r, n, 60, 1) {
		big.AddRequest(req)
	}
	got, stats, err := eng.Step(big)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ColdBuilt != 1 || stats.Patched != 0 {
		t.Fatalf("large delta: %d cold, %d patched; want 1, 0", stats.ColdBuilt, stats.Patched)
	}
	all := append(append([]core.TimedRequest{}, first.Requests...), big.Requests...)
	want, err := core.DetectSharded(base, all, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, got, want, "cold fallback diverged from batch")
}

// TestEngineWarmStepMatchesBatch: with warm starting ON, a small-delta
// step must consult its hints (warm rounds or gated fallbacks, not plain
// cold rounds) and still report the batch engine's suspect sets on this
// pinned scenario.
func TestEngineWarmStepMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 66))
	const n = 60
	base := randomBase(r, n)
	opts := testOpts()
	eng, err := NewEngine(Config{Base: base, Detector: opts})
	if err != nil {
		t.Fatal(err)
	}
	var seedDelta Delta
	for _, req := range randomRequests(r, n, 300, 2) {
		seedDelta.AddRequest(req)
	}
	if _, _, err := eng.Step(seedDelta); err != nil {
		t.Fatal(err)
	}

	var d Delta
	for _, req := range randomRequests(r, n, 6, 2) {
		d.AddRequest(req)
	}
	got, stats, err := eng.Step(d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WarmRounds+stats.Fallbacks == 0 {
		t.Fatal("warm step consulted no hints")
	}
	all := append(append([]core.TimedRequest{}, seedDelta.Requests...), d.Requests...)
	want, err := core.DetectSharded(base, all, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d intervals, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i].Detection.Suspects, want[i].Detection.Suspects
		if len(g) != len(w) {
			t.Fatalf("interval %d: %d suspects warm, %d batch", got[i].Interval, len(g), len(w))
		}
		seen := make(map[graph.NodeID]bool, len(g))
		for _, u := range g {
			seen[u] = true
		}
		for _, u := range w {
			if !seen[u] {
				t.Fatalf("interval %d: batch suspect %d missing from warm set", got[i].Interval, u)
			}
		}
	}
}

// TestEngineInterrupted: cancellation surfaces core.ErrInterrupted with
// the completed prefix, and the next Step finishes the remaining stale
// intervals without losing the consumed delta.
func TestEngineInterrupted(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 77))
	const n = 40
	base := randomBase(r, n)
	opts := testOpts()
	cancel := make(chan struct{})
	close(cancel)
	opts.Cancel = cancel
	eng, err := NewEngine(Config{Base: base, Detector: opts, DisableWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	var d Delta
	for _, req := range randomRequests(r, n, 100, 3) {
		d.AddRequest(req)
	}
	out, _, err := eng.Step(d)
	if err != core.ErrInterrupted {
		t.Fatalf("Step under cancellation: %v", err)
	}
	if len(out) != 1 || out[0].Detection.Rounds != 0 {
		t.Fatalf("interrupted prefix: %d intervals", len(out))
	}

	// Resume: a fresh engine option set without the tripped Cancel.
	eng.cfg.Detector.Cancel = nil
	got, stats, err := eng.Step(Delta{})
	if err != nil {
		t.Fatal(err)
	}
	// Intervals 1 and 2 never got snapshots before the interrupt, so they
	// cold-build now; interval 0's snapshot was already current and must
	// not be rebuilt or re-patched.
	if stats.ColdBuilt != 2 || stats.Patched != 0 {
		t.Fatalf("resume: %d cold, %d patched; want 2, 0", stats.ColdBuilt, stats.Patched)
	}
	want, err := core.DetectSharded(base, d.Requests, eng.cfg.Detector)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, got, want, "post-interrupt resume diverged from batch")
}

// TestEngineValidation: malformed deltas are rejected before any state
// changes.
func TestEngineValidation(t *testing.T) {
	base := randomBase(rand.New(rand.NewPCG(8, 88)), 10)
	if _, err := NewEngine(Config{Detector: testOpts()}); err == nil {
		t.Fatal("NewEngine without base accepted")
	}
	if _, err := NewEngine(Config{Base: base}); err == nil {
		t.Fatal("NewEngine without termination condition accepted")
	}
	eng, err := NewEngine(Config{Base: base, Detector: testOpts()})
	if err != nil {
		t.Fatal(err)
	}
	var d Delta
	d.AddRequest(core.TimedRequest{From: 3, To: 99})
	if _, _, err := eng.Step(d); err == nil {
		t.Fatal("out-of-range request accepted")
	}
	if len(eng.intervals) != 0 {
		t.Fatal("rejected delta mutated engine state")
	}
}

// TestDeltaHelpers covers the accumulator's small API surface.
func TestDeltaHelpers(t *testing.T) {
	var d Delta
	if !d.Empty() {
		t.Fatal("zero delta not empty")
	}
	d.AddRequest(core.TimedRequest{From: 1, To: 2, Accepted: true, Interval: 0})
	d.AddRequest(core.TimedRequest{From: 2, To: 3, Interval: 1})
	d.AddRequest(core.TimedRequest{From: 4, To: 4, Interval: 1}) // self: no edge
	var o Delta
	o.NewNodes = 2
	o.Friendships = []Edge{{From: 0, To: 1}}
	o.Rejections = []Edge{{From: 1, To: 2}}
	d.Merge(o)
	if d.Empty() || d.NewNodes != 2 || len(d.Requests) != 3 {
		t.Fatalf("merge lost state: %+v", d)
	}
	if got := d.EdgeCount(); got != 4 {
		t.Fatalf("EdgeCount = %d, want 4", got)
	}
	fr, rj := d.Edges()
	if len(fr) != 2 || len(rj) != 2 {
		t.Fatalf("Edges: %d friendships, %d rejections; want 2, 2", len(fr), len(rj))
	}
	if fr[0] != [2]graph.NodeID{0, 1} || rj[1] != [2]graph.NodeID{3, 2} {
		t.Fatalf("Edges misordered: %v %v", fr, rj)
	}
}
