package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
)

// splitPairs cuts an event log into `parts` contiguous chunks on pair
// boundaries (spamWorkload emits each answered request as an adjacent
// request/answer pair, so even offsets are safe cut points).
func splitPairs(events []Event, parts int) [][]Event {
	out := make([][]Event, 0, parts)
	per := (len(events)/2/parts + 1) * 2
	for len(events) > 0 {
		n := min(per, len(events))
		out = append(out, events[:n])
		events = events[n:]
	}
	return out
}

// servingRow is one cell of the configuration matrix a rejectod can be
// booted in: detector × journal × backend. The coordinator owns its shard
// journals, so there is no memory × cluster cell.
type servingRow struct {
	name       string
	multilevel bool
	durable    bool // segmented journal (+ SnapshotEvery locally), restarted over a torn tail
	cluster    bool // 4-shard/2-worker coordinator as Config.Backend
}

var servingMatrix = []servingRow{
	{"flat/memory/local", false, false, false},
	{"ml/memory/local", true, false, false},
	{"flat/segmented/local", false, true, false},
	{"ml/segmented/local", true, true, false}, // the benchmark's single-node SUT
	{"flat/segmented/cluster", false, true, true},
	{"ml/segmented/cluster", true, true, true}, // the benchmark's sharded SUT
}

func (r servingRow) opts() core.DetectorOptions {
	if r.multilevel {
		return mlDetectorOptions()
	}
	return testDetectorOptions()
}

// boot starts one server life of the row over dir.
func (r servingRow) boot(t *testing.T, base *graph.Graph, dir string, warm bool) (*Server, *httptest.Server) {
	return newTestServer(t, base, func(cfg *Config) {
		cfg.Detector = r.opts()
		cfg.DisableWarmStart = !warm
		switch {
		case r.cluster:
			cfg.Backend = newClusterCoord(t, base, r.opts(), 4, 2, dir)
		case r.durable:
			cfg.Store = openSegmented(t, dir)
			cfg.SnapshotEvery = 80
		}
	})
}

// crash leaves the row's journal the way a crash mid-append would: junk
// on the tail of a live segment (the low-ID spammers' home shard in
// cluster rows).
func (r servingRow) crash(t *testing.T, dir string) {
	if r.cluster {
		dir = filepath.Join(dir, "shard-000")
	}
	tearLiveSegment(t, dir, 7)
}

// TestIncrementalMatchesBatchExactly is the replay invariant over every
// configuration that ships: with warm starting off, every published epoch
// — live, after a restart over a torn tail, and after a second clean
// restart — equals the cold batch engine over the same journal prefix,
// detections and frozen read model both.
func TestIncrementalMatchesBatchExactly(t *testing.T) {
	const n, spammers = 150, 20
	for _, row := range servingMatrix {
		t.Run(row.name, func(t *testing.T) {
			events := spamWorkload(rand.New(rand.NewPCG(17, 5)), n, spammers)
			chunks := splitPairs(events, 4)
			base, opts, dir := testBase(n), row.opts(), t.TempDir()

			s, ts := row.boot(t, base, dir, false)
			var posted []Event
			for round, chunk := range chunks[:3] {
				postEvents(t, ts.URL, chunk)
				posted = append(posted, chunk...)
				drainIngest(t, s)
				assertEpochMatchesReplay(t, fmt.Sprintf("round %d", round),
					detectNow(t, s), base, EventsToRequests(posted), opts)
			}

			// /v1/stats names who answered: the local engine and store, or
			// the backend — never both, never "batch".
			var stats statsReply
			getJSON(t, ts.URL+"/v1/stats", &stats)
			wantMode := "incremental"
			if row.cluster {
				wantMode = "cluster"
			}
			if stats.Mode != wantMode {
				t.Fatalf("stats mode = %q, want %q", stats.Mode, wantMode)
			}
			if (stats.Incr != nil) == row.cluster || (stats.Backend != nil) != row.cluster {
				t.Fatalf("stats blocks: incremental=%v backend=%v with cluster=%v", stats.Incr, stats.Backend, row.cluster)
			}
			if (stats.Storage != nil) != (row.durable && !row.cluster) {
				t.Fatalf("stats storage block = %+v with durable=%v cluster=%v", stats.Storage, row.durable, row.cluster)
			}
			if row.cluster {
				var cs cluster.Stats
				remarshal(t, stats.Backend, &cs)
				if cs.Shards != 4 || cs.Workers != 2 {
					t.Fatalf("coordinator stats = %d shards / %d workers", cs.Shards, cs.Workers)
				}
				if cs.Records == 0 || cs.Boundary == 0 {
					t.Fatalf("coordinator routed %d records, %d boundary — workload did not exercise routing", cs.Records, cs.Boundary)
				}
			} else if stats.Incr.Patched+stats.Incr.ColdBuilt+stats.Incr.Reused == 0 {
				t.Fatalf("incremental stats show no interval work: %+v", *stats.Incr)
			}
			if !row.durable {
				return
			}

			// The last chunk is journaled but never detected, so the restart
			// has a tail past the snapshot to replay.
			postEvents(t, ts.URL, chunks[3])
			wantReqs := EventsToRequests(events)
			drainIngest(t, s)
			if !row.cluster {
				getJSON(t, ts.URL+"/v1/stats", &stats)
				if st := stats.Storage; st.Backend != "segmented" || st.Snapshots == 0 || st.CompactedSegments == 0 || st.Records != int64(len(wantReqs)) {
					t.Fatalf("first life's storage block: %+v (want %d records, snapshots, compaction)", *st, len(wantReqs))
				}
			}
			stopServer(t, s, ts)
			if !row.cluster {
				if got := readJournal(t, dir); !reflect.DeepEqual(got, wantReqs) {
					t.Fatalf("journal holds %d requests, lifecycle fold yields %d (or order differs)", len(got), len(wantReqs))
				}
			}

			// Second life: recovery truncates the junk, loads the snapshot,
			// and replays only the tail.
			row.crash(t, dir)
			s, ts = row.boot(t, base, dir, false)
			if got := s.CurrentEpoch().Events; got != len(wantReqs) {
				t.Fatalf("recovered %d events, want %d", got, len(wantReqs))
			}
			if !row.cluster {
				getJSON(t, ts.URL+"/v1/stats", &stats)
				st := stats.Storage
				if st.TornBytesTruncated != 7 {
					t.Fatalf("recovery truncated %d torn bytes, want 7", st.TornBytesTruncated)
				}
				if st.RecoveredFromSnap+st.RecoveredFromSegs != len(wantReqs) {
					t.Fatalf("recovery found %d+%d records, want %d", st.RecoveredFromSnap, st.RecoveredFromSegs, len(wantReqs))
				}
				if st.RecoveredFromSegs == 0 || st.RecoveredFromSegs >= st.RecoveredFromSnap {
					t.Fatalf("replayed %d records from segments vs %d from the snapshot; restart is not O(delta)",
						st.RecoveredFromSegs, st.RecoveredFromSnap)
				}
			}
			assertEpochMatchesReplay(t, "after crash restart", detectNow(t, s), base, wantReqs, opts)

			// Third life, no damage: the journal survives repeated restarts.
			stopServer(t, s, ts)
			s, _ = row.boot(t, base, dir, false)
			assertEpochMatchesReplay(t, "after clean restart", detectNow(t, s), base, wantReqs, opts)
		})
	}
}

// remarshal decodes a value JSON left as generic maps into out.
func remarshal(t *testing.T, v, out any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(b, out)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalWarmMatchesBatchSuspects runs every local row with warm
// starting ON (cluster shards always solve cold). A gated warm solve may
// converge to a different near-minimal cut than the cold sweep (it only
// guarantees equal-or-better acceptance), so the invariant checked here is
// detection quality, not set identity: every epoch detects the same
// intervals as the cold batch engine, catches the planted spammers at its
// recall with bounded spill-over, and the frozen read model — which warm
// starting must never touch — stays byte-identical. Durable rows crash and
// restart mid-stream, resuming from the snapshot's engine memo. At least
// one warm start must actually engage.
func TestIncrementalWarmMatchesBatchSuspects(t *testing.T) {
	const n, spammers = 150, 20
	// recall/size of the spam interval's suspect set vs the planted nodes.
	spamQuality := func(dets []core.IntervalDetection) (recall float64, size int) {
		for _, d := range dets {
			if d.Interval != 1 {
				continue
			}
			caught := 0
			for _, u := range d.Detection.Suspects {
				if int(u) < spammers {
					caught++
				}
			}
			return float64(caught) / float64(spammers), len(d.Detection.Suspects)
		}
		return 0, 0
	}
	for _, row := range servingMatrix {
		if row.cluster {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			events := spamWorkload(rand.New(rand.NewPCG(21, 8)), n, spammers)
			base, dir := testBase(n), t.TempDir()
			s, ts := row.boot(t, base, dir, true)

			warmSeen := 0
			var posted []Event
			for round, chunk := range splitPairs(events, 3) {
				postEvents(t, ts.URL, chunk)
				posted = append(posted, chunk...)
				drainIngest(t, s)
				got := detectNow(t, s)

				reqs := EventsToRequests(posted)
				want, err := core.DetectSharded(base, reqs, row.opts())
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != len(got.Intervals) {
					t.Fatalf("round %d: %d intervals warm vs %d batch", round, len(got.Intervals), len(want))
				}
				for i := range want {
					if want[i].Interval != got.Intervals[i].Interval {
						t.Fatalf("round %d: warm detected interval %d where batch detected %d",
							round, got.Intervals[i].Interval, want[i].Interval)
					}
				}
				if !got.frozen.Equal(coldFold(base, reqs)) {
					t.Fatalf("round %d: read model diverged (warm starting must not affect it)", round)
				}
				if round == 2 { // full workload ingested: quality is comparable
					wantRecall, _ := spamQuality(want)
					gotRecall, gotSize := spamQuality(got.Intervals)
					if gotRecall < wantRecall {
						t.Errorf("warm recall %.2f below batch recall %.2f", gotRecall, wantRecall)
					}
					if gotSize > 3*spammers {
						t.Errorf("warm suspect set bloated to %d nodes (planted %d)", gotSize, spammers)
					}
				}
				warmSeen += s.incrStats.Load().WarmRounds
				if row.durable && round == 1 {
					stopServer(t, s, ts)
					row.crash(t, dir)
					s, ts = row.boot(t, base, dir, true)
				}
			}
			if warmSeen == 0 {
				t.Fatal("no warm-started rounds across three epochs — warm path never engaged")
			}
		})
	}
}

// TestIncrementalConcurrentIngestReplay is the chaos interleaving check:
// several goroutines ingest disjoint pair-streams concurrently while
// detections run mid-stream, then the final epoch must equal the batch
// engine replayed over the journal the server actually wrote — whatever
// interleaving the race chose. Run under -race this also exercises the
// log handoff for data races.
func TestIncrementalConcurrentIngestReplay(t *testing.T) {
	const n, spammers, workers = 150, 20, 4
	r := rand.New(rand.NewPCG(33, 7))
	events := spamWorkload(r, n, spammers)

	dir := t.TempDir()
	s, ts := newTestServer(t, testBase(n), func(cfg *Config) {
		cfg.Store = openSegmented(t, dir)
	})

	// Partition by (from,to) pair so each pair's request→answer order is
	// owned by one worker; across workers the interleaving is arbitrary.
	streams := make([][]Event, workers)
	for _, ev := range events {
		w := (int(ev.From)*31 + int(ev.To)) % workers
		streams[w] = append(streams[w], ev)
	}
	var wg sync.WaitGroup
	for _, stream := range streams {
		wg.Add(1)
		go func(stream []Event) {
			defer wg.Done()
			for _, chunk := range splitPairs(stream, 8) {
				postEvents(t, ts.URL, chunk)
			}
		}(stream)
	}
	// Mid-stream detections race the ingest, stepping the engine over
	// whatever journal prefix each snapshot catches.
	for i := 0; i < 3; i++ {
		if _, err := s.Detect(context.Background()); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	drainIngest(t, s)
	final := detectNow(t, s)
	stopServer(t, s, ts)

	reqs := readJournal(t, dir)
	if final.Events != len(reqs) {
		t.Fatalf("final epoch covers %d events, journal holds %d", final.Events, len(reqs))
	}
	want, err := core.DetectSharded(testBase(n), reqs, testDetectorOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Intervals, want) {
		t.Fatalf("incremental epoch over concurrent ingest diverges from batch replay of its own journal:\n got %+v\nwant %+v",
			final.Intervals, want)
	}
}

// serverAllocBytes measures process heap allocation across fn with the
// collector paused. Detection runs on the detector goroutine, but
// TotalAlloc is process-wide and every other goroutine is idle while
// Detect blocks, so the reading is attributable.
func serverAllocBytes(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// manyIntervalWorkload spreads answered pairs over 10 intervals so a small
// delta touches one interval in ten.
func manyIntervalWorkload(r *rand.Rand, n, pairs int, interval int) []Event {
	var events []Event
	for i := 0; i < pairs; i++ {
		u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if u == v {
			continue
		}
		iv := interval
		if iv < 0 {
			iv = i % 10
		}
		typ := EvAccept
		if int(u) >= n*9/10 || r.Float64() < 0.25 {
			typ = EvReject
		}
		events = append(events,
			Event{Type: EvRequest, From: u, To: v, Interval: iv},
			Event{Type: typ, From: u, To: v, Interval: iv})
	}
	return events
}

// TestIncrementalDetectionAllocsSublinear: after priming the server with a
// 10-interval journal, a detection over a 10-pair delta must not allocate
// like a cold batch replay of the whole journal — the server-level
// regression guard that the engine keeps per-interval state alive instead
// of rebuilding O(journal) memory each round.
func TestIncrementalDetectionAllocsSublinear(t *testing.T) {
	const n = 200
	r := rand.New(rand.NewPCG(9, 101))
	prime := manyIntervalWorkload(r, n, 1000, -1)
	delta := manyIntervalWorkload(r, n, 10, 0)

	s, ts := newTestServer(t, testBase(n), func(cfg *Config) {
		cfg.Detector.Cut.Parallelism = 1
	})
	opts := s.cfg.Detector
	postEvents(t, ts.URL, prime)
	drainIngest(t, s)
	detectNow(t, s)
	postEvents(t, ts.URL, delta)
	drainIngest(t, s)

	incrBytes := serverAllocBytes(func() { detectNow(t, s) })
	batchBytes := serverAllocBytes(func() {
		if _, err := Replay(testBase(n), append(prime, delta...), opts); err != nil {
			t.Error(err)
		}
	})
	if 2*incrBytes >= batchBytes {
		t.Fatalf("incremental detection allocated %d bytes vs batch replay %d — not sublinear in the journal",
			incrBytes, batchBytes)
	}
	t.Logf("alloc per detection: incremental %s, batch replay %s", fmtBytes(incrBytes), fmtBytes(batchBytes))
}

func fmtBytes(b uint64) string {
	return fmt.Sprintf("%.1f KiB", float64(b)/1024)
}
