package server

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// TestChaosDistributedMatchesServerEpoch closes the loop across the whole
// stack: events ingested by the online service produce an epoch of
// per-interval detections; the same event log, rebuilt into per-interval
// augmented graphs, is then detected by the *distributed* engine under a
// seeded chaos fault schedule. The chaos runs must be byte-identical to
// the fault-free distributed baseline, and that baseline must agree with
// the server's single-machine epoch on every interval's suspect set.
// The "restarts" variant gives the server's sweeps a random restart and
// checks them against a batch DetectSharded rebuild with the same options;
// the distributed baseline stays on one init, so there the restarts run
// keeps only the chaos-vs-baseline byte-equality, pinning that fault
// injection stays deterministic when the service around it runs
// multi-init sweeps.
func TestChaosDistributedMatchesServerEpoch(t *testing.T) {
	t.Run("flat", func(t *testing.T) { chaosDistributedMatchesServerEpoch(t, false) })
	t.Run("restarts", func(t *testing.T) { chaosDistributedMatchesServerEpoch(t, true) })
}

func chaosDistributedMatchesServerEpoch(t *testing.T, restarts bool) {
	const n, spammers = 300, 40
	r := rand.New(rand.NewPCG(1, 91))
	events := spamWorkload(r, n, spammers)
	base := testBase(n)
	opts := testDetectorOptions()
	if restarts {
		opts = restartsDetectorOptions()
	}
	s, ts := newTestServer(t, base, func(cfg *Config) {
		cfg.Detector = opts
	})
	postEvents(t, ts.URL, events)
	drainIngest(t, s)

	ep := detectNow(t, s)
	if len(ep.Intervals) == 0 {
		t.Fatal("epoch carries no interval detections")
	}

	// Rebuild each interval's augmented graph from the same event log, the
	// way core.DetectSharded does: accepted requests become friendships,
	// rejections become ⟨target, sender⟩ edges, then canonicalize.
	shards := make(map[int][]core.TimedRequest)
	for _, req := range EventsToRequests(events) {
		shards[req.Interval] = append(shards[req.Interval], req)
	}

	// The distributed baseline runs the one-init configuration. In restarts
	// mode the server's epoch is instead checked against a batch
	// DetectSharded rebuild running the same two-init sweeps; the dist
	// baseline then only anchors the chaos byte-equality below.
	distOpts := testDetectorOptions()
	cfg := dist.DetectorConfig{
		Cut:                 distOpts.Cut,
		AcceptanceThreshold: distOpts.AcceptanceThreshold,
		MaxRounds:           distOpts.MaxRounds,
	}
	var batch map[int]core.Detection
	if restarts {
		dets, err := core.DetectSharded(base, EventsToRequests(events), opts)
		if err != nil {
			t.Fatal(err)
		}
		batch = make(map[int]core.Detection, len(dets))
		for _, d := range dets {
			batch[d.Interval] = d.Detection
		}
	}
	mix, ok := chaos.Class("mixed")
	if !ok {
		t.Fatal("mixed fault class missing")
	}
	sc := chaos.Scenario{Faults: mix}

	faults := 0
	for _, iv := range ep.Intervals {
		aug := base.Clone()
		for _, req := range shards[iv.Interval] {
			if req.From == req.To {
				continue
			}
			if req.Accepted {
				aug.AddFriendship(req.From, req.To)
			} else {
				aug.AddRejection(req.To, req.From)
			}
		}
		aug.Canonicalize()

		baseline, err := sc.Baseline(aug, cfg)
		if err != nil {
			t.Fatalf("interval %d: fault-free distributed baseline: %v", iv.Interval, err)
		}
		if restarts {
			assertSameSuspectSet(t, iv.Interval, iv.Detection, batch[iv.Interval])
		} else {
			assertSameSuspectSet(t, iv.Interval, iv.Detection, baseline)
		}

		for _, seed := range []uint64{101, 102, 103} {
			res, err := sc.Run(aug, cfg, seed)
			if err != nil {
				t.Fatalf("interval %d seed %d: %v", iv.Interval, seed, err)
			}
			faults += len(res.Faults)
			if diff := chaos.DiffDetections(baseline, res.Detection); diff != "" {
				t.Errorf("interval %d seed %d: chaos run diverged from baseline: %s",
					iv.Interval, seed, diff)
			}
		}
	}
	if faults == 0 {
		t.Fatal("no faults injected across the epoch's chaos runs — the test is vacuous")
	}
}

// assertSameSuspectSet checks the single-machine epoch detection and the
// distributed baseline flag the same accounts in an interval.
func assertSameSuspectSet(t *testing.T, interval int, want, got core.Detection) {
	t.Helper()
	if want.Rounds != got.Rounds {
		t.Fatalf("interval %d: distributed rounds = %d, server epoch = %d",
			interval, got.Rounds, want.Rounds)
	}
	ws := append([]graph.NodeID(nil), want.Suspects...)
	gs := append([]graph.NodeID(nil), got.Suspects...)
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	if len(ws) != len(gs) {
		t.Fatalf("interval %d: distributed flagged %d accounts, server epoch %d",
			interval, len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("interval %d: suspect sets differ at %d: %d vs %d",
				interval, i, gs[i], ws[i])
		}
	}
}
