package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// eventSink collects trace events in memory. Sweep workers emit from
// their own goroutines, so Emit locks; the tests read events only after
// the detection returned.
type eventSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *eventSink) Emit(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

func (s *eventSink) count(name string) int {
	n := 0
	for _, e := range s.events {
		if e.Name == name {
			n++
		}
	}
	return n
}

func sameDetection(t *testing.T, a, b Detection, what string) {
	t.Helper()
	if a.Rounds != b.Rounds || len(a.Suspects) != len(b.Suspects) || len(a.Groups) != len(b.Groups) {
		t.Fatalf("%s: %d/%d rounds, %d/%d suspects, %d/%d groups", what,
			a.Rounds, b.Rounds, len(a.Suspects), len(b.Suspects), len(a.Groups), len(b.Groups))
	}
	for i := range a.Suspects {
		if a.Suspects[i] != b.Suspects[i] {
			t.Fatalf("%s: suspect %d differs: %d vs %d", what, i, a.Suspects[i], b.Suspects[i])
		}
	}
	for i := range a.Groups {
		if a.Groups[i].Acceptance != b.Groups[i].Acceptance || a.Groups[i].K != b.Groups[i].K {
			t.Fatalf("%s: group %d (k, acceptance) differs", what, i)
		}
	}
}

// TestDetectFrozenMatchesDetect: handing DetectFrozen the canonical freeze
// of a canonicalized graph reproduces Detect on that graph exactly — the
// identity the incremental engine's patched snapshots rely on.
func TestDetectFrozenMatchesDetect(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 91))
	const nL, nF = 300, 100
	g, _ := plantedWorld(r, nL, nF, 0.7)
	g.Canonicalize()
	opts := DetectorOptions{
		Cut:         CutOptions{Seeds: plantedSeeds(nL, nF, 15), RandSeed: 5},
		TargetCount: nF,
	}
	cold, err := Detect(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := DetectFrozen(g.FreezeCanonical(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameDetection(t, cold, frozen, "DetectFrozen diverged from Detect")
}

// TestDetectWarmNilEqualsDetectFrozen: no hints means every round solves
// cold; the detection is identical and the report counts only cold rounds.
func TestDetectWarmNilEqualsDetectFrozen(t *testing.T) {
	r := rand.New(rand.NewPCG(22, 92))
	const nL, nF = 300, 100
	g, _ := plantedWorld(r, nL, nF, 0.7)
	f := g.FreezeCanonical()
	opts := DetectorOptions{
		Cut:         CutOptions{Seeds: plantedSeeds(nL, nF, 15), RandSeed: 5},
		TargetCount: nF,
	}
	cold, err := DetectFrozen(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, report, err := DetectWarm(f, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetection(t, cold, warm, "DetectWarm(nil) diverged from DetectFrozen")
	if report.WarmRounds != 0 || report.Fallbacks != 0 || report.ColdRounds != warm.Rounds {
		t.Fatalf("unexpected report %+v for %d rounds", report, warm.Rounds)
	}
}

// TestDetectWarmUnchangedGraphPassesGate: warming a detection with its own
// result on the same snapshot must pass the quality gate in every hinted
// round — KL started from a converged cut cannot do worse than it — and
// reproduce the same suspect sets.
func TestDetectWarmUnchangedGraphPassesGate(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 93))
	const nL, nF = 300, 100
	g, _ := plantedWorld(r, nL, nF, 0.7)
	f := g.FreezeCanonical()
	opts := DetectorOptions{
		Cut:         CutOptions{Seeds: plantedSeeds(nL, nF, 15), RandSeed: 5},
		TargetCount: nF,
	}
	cold, err := DetectFrozen(f, opts)
	if err != nil {
		t.Fatal(err)
	}

	sink := &eventSink{}
	warmOpts := opts
	warmOpts.Tracer = sink
	warm, report, err := DetectWarm(f, warmOpts, WarmFromDetection(cold, f.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if report.Fallbacks != 0 {
		t.Fatalf("%d fallbacks warming an unchanged snapshot", report.Fallbacks)
	}
	if report.WarmRounds == 0 {
		t.Fatal("no round used its warm hint")
	}
	sameDetection(t, cold, warm, "warm detection diverged on unchanged snapshot")
	if got := sink.count(obs.EvIncrWarm); got != report.WarmRounds {
		t.Fatalf("%d incr.warm events, report says %d warm rounds", got, report.WarmRounds)
	}
	if sink.count(obs.EvIncrFallback) != 0 {
		t.Fatal("incr.fallback emitted without a fallback")
	}
}

// TestDetectWarmQualityGateFallsBack: a hint whose acceptance bar is
// unreachable forces the gate to reject every warm solve; each round must
// re-solve cold, emit incr.fallback, and end with the cold detection.
func TestDetectWarmQualityGateFallsBack(t *testing.T) {
	r := rand.New(rand.NewPCG(24, 94))
	const nL, nF = 300, 100
	g, _ := plantedWorld(r, nL, nF, 0.7)
	f := g.FreezeCanonical()
	opts := DetectorOptions{
		Cut:         CutOptions{Seeds: plantedSeeds(nL, nF, 15), RandSeed: 5},
		TargetCount: nF,
	}
	cold, err := DetectFrozen(f, opts)
	if err != nil {
		t.Fatal(err)
	}

	hints := WarmFromDetection(cold, f.NumNodes())
	for i := range hints.Rounds {
		hints.Rounds[i].Acceptance = -1 // bar no real cut can meet
	}
	sink := &eventSink{}
	warmOpts := opts
	warmOpts.Tracer = sink
	warm, report, err := DetectWarm(f, warmOpts, hints)
	if err != nil {
		t.Fatal(err)
	}
	if report.WarmRounds != 0 {
		t.Fatalf("%d rounds passed an impossible gate", report.WarmRounds)
	}
	if report.Fallbacks == 0 {
		t.Fatal("impossible gate produced no fallbacks")
	}
	sameDetection(t, cold, warm, "fallback rounds diverged from cold detection")
	if got := sink.count(obs.EvIncrFallback); got != report.Fallbacks {
		t.Fatalf("%d incr.fallback events, report says %d fallbacks", got, report.Fallbacks)
	}
	for _, e := range sink.events {
		if e.Name == obs.EvIncrFallback && e.Detail != "quality" {
			t.Fatalf("fallback detail %q, want \"quality\"", e.Detail)
		}
	}
}

// TestDetectWarmNewNodesPlacedByHeuristic: hints from a smaller previous
// epoch still apply; nodes that did not exist then are placed by the
// acceptance heuristic and detection completes without error.
func TestDetectWarmNewNodesPlacedByHeuristic(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 95))
	const nL, nF = 300, 100
	g, _ := plantedWorld(r, nL, nF, 0.7)
	prevNodes := g.NumNodes()
	opts := DetectorOptions{
		Cut:         CutOptions{Seeds: plantedSeeds(nL, nF, 15), RandSeed: 5},
		TargetCount: nF,
	}
	prev, err := DetectFrozen(g.FreezeCanonical(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Grow the world: 20 new spammers join the fake region's behavior.
	first := int(g.AddNodes(20))
	for i := 0; i < 20; i++ {
		u := graph.NodeID(first + i)
		for req := 0; req < 10; req++ {
			target := graph.NodeID(r.IntN(nL))
			if r.Float64() < 0.7 {
				g.AddRejection(target, u)
			} else {
				g.AddFriendship(u, target)
			}
		}
	}
	grownOpts := opts
	grownOpts.TargetCount = nF + 20
	warm, report, err := DetectWarm(g.FreezeCanonical(), grownOpts, WarmFromDetection(prev, prevNodes))
	if err != nil {
		t.Fatal(err)
	}
	if report.WarmRounds+report.Fallbacks == 0 {
		t.Fatal("no round consulted the warm hints")
	}
	caught := 0
	for _, u := range warm.Suspects {
		if int(u) >= nL {
			caught++
		}
	}
	if prec := float64(caught) / float64(len(warm.Suspects)); prec < 0.85 {
		t.Fatalf("warm detection on grown graph imprecise: %.3f", prec)
	}
}

func TestWarmInitValidated(t *testing.T) {
	g := graph.New(5)
	bad := CutOptions{WarmInit: graph.NewPartition(3)}
	if err := bad.Validate(g); err == nil {
		t.Fatal("short WarmInit accepted")
	}
	good := CutOptions{WarmInit: graph.NewPartition(5)}
	if err := good.Validate(g); err != nil {
		t.Fatal(err)
	}
}
