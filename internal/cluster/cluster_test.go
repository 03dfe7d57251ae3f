package cluster

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// testBase builds a friendship ring with random chords — the pre-existing
// social graph detection overlays.
func testBase(r *rand.Rand, n int) *graph.Graph {
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

// testRequests draws count answered requests over maxIv intervals; spammy
// senders (top decile of IDs) are rejected often so detections find
// something.
func testRequests(r *rand.Rand, nNodes, count, maxIv int) []core.TimedRequest {
	reqs := make([]core.TimedRequest, 0, count)
	for len(reqs) < count {
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

func testOpts() core.DetectorOptions {
	return core.DetectorOptions{
		Cut:                 core.CutOptions{RandSeed: 7, Parallelism: 2},
		AcceptanceThreshold: 0.6,
		MaxRounds:           4,
	}
}

// newTestCoord builds and recovers a coordinator over t.TempDir, applying
// mods to the config first.
func newTestCoord(t *testing.T, base *graph.Graph, shards, workers int, mods ...func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Base:     base,
		Detector: testOpts(),
		Shards:   shards,
		Workers:  workers,
		Dir:      t.TempDir(),
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// driveBatches appends reqs in batches, flushing and detecting after each,
// and returns the detections of every mid-stream epoch plus the final one.
func driveBatches(t *testing.T, c *Coordinator, reqs []core.TimedRequest, batch int) [][]core.IntervalDetection {
	t.Helper()
	var epochs [][]core.IntervalDetection
	for start := 0; start < len(reqs); start += batch {
		end := start + batch
		if end > len(reqs) {
			end = len(reqs)
		}
		for _, req := range reqs[start:end] {
			if err := c.Append(req); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		dets, err := c.Detect(end, nil)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, dets)
	}
	return epochs
}

// TestClusterMatchesSingleNode is the tentpole invariant: for every shard
// and worker layout, the coordinator's merged epochs — including every
// mid-stream epoch — are byte-identical to the single-node batch engine
// over the same journal prefix.
func TestClusterMatchesSingleNode(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 23))
	const n, count, maxIv, batch = 120, 180, 6, 50
	base := testBase(r, n)
	reqs := testRequests(r, n, count, maxIv)

	// Reference epochs at each batch cut, from the single-node engine.
	var want [][]core.IntervalDetection
	for start := 0; start < count; start += batch {
		end := start + batch
		if end > count {
			end = count
		}
		dets, err := core.DetectSharded(base, reqs[:end], testOpts())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dets)
	}

	layouts := []struct{ shards, workers int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {4, 2}, {5, 3},
	}
	for _, lay := range layouts {
		c := newTestCoord(t, base, lay.shards, lay.workers)
		got := driveBatches(t, c, reqs, batch)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("shards=%d workers=%d: epoch %d diverged from single-node engine",
					lay.shards, lay.workers, i)
			}
		}
		st := c.Stats().(Stats)
		if st.Records != int64(count) {
			t.Fatalf("shards=%d: stats carry %d records, want %d", lay.shards, st.Records, count)
		}
		if lay.shards > 1 && st.Boundary == 0 {
			t.Fatalf("shards=%d: no boundary residuals in a random workload — routing is vacuous", lay.shards)
		}
	}
}

// TestBoundaryResiduals pins the two ownership planes apart: a request
// whose sender lives on one shard but whose interval is owned by another
// must be counted as a boundary residual and still reach the owner's
// detection.
func TestBoundaryResiduals(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 9))
	const n = 40
	base := testBase(r, n)
	c := newTestCoord(t, base, 2, 2)

	// Sender 0 homes on shard 0; interval 1 is owned by shard 1.
	reqs := []core.TimedRequest{
		{From: 0, To: 5, Accepted: false, Interval: 1},
		{From: 1, To: 6, Accepted: true, Interval: 1},
		{From: graph.NodeID(n - 1), To: 3, Accepted: false, Interval: 0}, // home 1, owner 0
		{From: 2, To: 7, Accepted: false, Interval: 0},                   // home 0, owner 0
	}
	for _, req := range reqs {
		if err := c.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Detect(len(reqs), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DetectSharded(base, reqs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("boundary-heavy epoch diverged from single-node engine")
	}
	st := c.Stats().(Stats)
	if st.Boundary != 3 {
		t.Fatalf("boundary residuals = %d, want 3", st.Boundary)
	}
}

// TestClusterRestartRecovers closes the durability loop: a second
// coordinator over the same directory recovers every flushed record and
// publishes the same merged epoch.
func TestClusterRestartRecovers(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 31))
	const n, count = 80, 120
	base := testBase(r, n)
	reqs := testRequests(r, n, count, 5)
	dir := t.TempDir()

	cfg := Config{Base: base, Detector: testOpts(), Shards: 3, Workers: 2, Dir: dir}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Recover(nil); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if err := c1.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := c1.Detect(count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	recovered := 0
	nrec, err := c2.Recover(func(batch []core.TimedRequest) error {
		recovered += len(batch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nrec != count || recovered != count {
		t.Fatalf("recovered %d records (apply saw %d), want %d", nrec, recovered, count)
	}
	after, err := c2.Detect(count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatal("post-restart epoch diverged from pre-restart epoch")
	}
}

// TestPositionalIdempotency drives the shard service handlers directly
// through every duplicate/gap case the retry layer can produce.
func TestPositionalIdempotency(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 13))
	base := testBase(r, 30)
	det := testOpts()
	n := newNode(nodeConfig{
		base: &coordBase{graph: base, detector: det},
		dir:  t.TempDir(),
	})
	var or OpenReply
	if err := n.open(&OpenArgs{Shard: 0}, &or); err != nil {
		t.Fatal(err)
	}
	if or.Records != 0 {
		t.Fatalf("fresh shard recovered %d records", or.Records)
	}

	reqs := testRequests(r, 30, 8, 2)
	// First delivery, then an exact duplicate, then an overlapping batch.
	var ir IngestReply
	if err := n.ingest(&IngestArgs{Shard: 0, Start: 0, Records: reqs[:5]}, &ir); err != nil {
		t.Fatal(err)
	}
	if err := n.ingest(&IngestArgs{Shard: 0, Start: 0, Records: reqs[:5]}, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Records != 5 {
		t.Fatalf("duplicate ingest grew the journal to %d", ir.Records)
	}
	if err := n.ingest(&IngestArgs{Shard: 0, Start: 3, Records: reqs[3:8]}, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Records != 8 {
		t.Fatalf("overlapping ingest produced %d records, want 8", ir.Records)
	}
	// A gap is lost state, not silent corruption.
	if err := n.ingest(&IngestArgs{Shard: 0, Start: 12, Records: reqs[:2]}, &ir); !errors.Is(err, dist.ErrStateLost) {
		t.Fatalf("gapped ingest returned %v, want ErrStateLost", err)
	}

	// Detect: first step, duplicate step (memoized reply), gapped step.
	var d1, d2 DetectReply
	if err := n.detect(&DetectArgs{Shard: 0, Stepped: 0, Delta: reqs[:5]}, &d1); err != nil {
		t.Fatal(err)
	}
	if d1.Stepped != 5 {
		t.Fatalf("engine stepped %d, want 5", d1.Stepped)
	}
	if err := n.detect(&DetectArgs{Shard: 0, Stepped: 0, Delta: reqs[:5]}, &d2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("duplicate detect did not return the memoized reply")
	}
	var d3 DetectReply
	if err := n.detect(&DetectArgs{Shard: 0, Stepped: 9, Delta: reqs[:2]}, &d3); !errors.Is(err, dist.ErrStateLost) {
		t.Fatal("gapped detect must report lost state")
	}

	// Open on a healthy shard is a probe: it must not drop live state.
	if err := n.open(&OpenArgs{Shard: 0}, &or); err != nil {
		t.Fatal(err)
	}
	if or.Records != 8 {
		t.Fatalf("probe open reports %d records, want 8", or.Records)
	}
	var d4 DetectReply
	if err := n.detect(&DetectArgs{Shard: 0, Stepped: 5, Delta: nil}, &d4); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d4, d1) {
		t.Fatal("probe open wiped the engine's memoized state")
	}

	// A never-opened shard reports lost state on every method.
	if err := n.flush(&FlushArgs{Shard: 1}, &FlushReply{}); !errors.Is(err, dist.ErrStateLost) {
		t.Fatal("unopened shard must report lost state")
	}
}

// TestConfigValidation pins the constructor's error surface.
func TestConfigValidation(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	base := testBase(r, 10)
	good := Config{Base: base, Detector: testOpts(), Shards: 2, Dir: t.TempDir()}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"nil base", func(c *Config) { c.Base = nil }},
		{"no termination", func(c *Config) { c.Detector = core.DetectorOptions{} }},
		{"zero shards", func(c *Config) { c.Shards = 0 }},
		{"no dir", func(c *Config) { c.Dir = "" }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
	c, err := New(good)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(nil); err == nil {
		t.Fatal("second Recover must fail")
	}
	if err := c.Append(core.TimedRequest{From: 50, To: 1, Interval: 0}); err == nil {
		t.Fatal("Append accepted a sender outside the base")
	}
}

// TestShardLoadSplitsJournal asserts the cluster's scaling property as a
// count, not a timing: routing the benchmark world's journal over S shards
// leaves the busiest shard holding about 1/S of it, both as sender-homed
// journal records (what each shard ships and fsyncs) and as interval-owned
// records (what each shard's engine detects over).
func TestShardLoadSplitsJournal(t *testing.T) {
	base, _, reqs := benchClusterWorld()
	for _, tc := range []struct {
		shards int
		max    float64
	}{{2, 0.55}, {4, 0.30}} {
		c := newTestCoord(t, base, tc.shards, tc.shards)
		for _, req := range reqs {
			if err := c.Append(req); err != nil {
				t.Fatal(err)
			}
		}
		var records, owned int64
		for _, s := range c.Stats().(Stats).PerShard {
			records = max(records, s.Records)
			owned = max(owned, int64(s.Owned))
		}
		total := float64(len(reqs))
		if fr, fo := float64(records)/total, float64(owned)/total; fr > tc.max || fo > tc.max {
			t.Errorf("%d shards: busiest shard holds %.3f of records and %.3f of owned, want <= %.2f",
				tc.shards, fr, fo, tc.max)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDetectStaleSeedReturnsMemo reproduces the rebuild/detect race on
// co-homed shards: a rebuild seed positioned from a stale coordinator
// read (Stepped:0 with a short owned prefix) can arrive after the
// engine has already stepped past the prefix. The handler must answer
// with the memoized reply — not panic slicing past the delta's end.
func TestDetectStaleSeedReturnsMemo(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 9))
	base := testBase(r, 60)
	reqs := testRequests(r, 60, 12, 3)
	n := newNode(nodeConfig{
		base: &coordBase{graph: base, detector: testOpts()},
		dir:  t.TempDir(),
	})
	if err := n.open(&OpenArgs{Shard: 0}, &OpenReply{}); err != nil {
		t.Fatal(err)
	}
	if err := n.ingest(&IngestArgs{Shard: 0, Start: 0, Records: reqs}, &IngestReply{}); err != nil {
		t.Fatal(err)
	}
	var full DetectReply
	if err := n.detect(&DetectArgs{Shard: 0, Stepped: 0, Delta: reqs}, &full); err != nil {
		t.Fatal(err)
	}
	var stale DetectReply
	if err := n.detect(&DetectArgs{Shard: 0, Stepped: 0, Delta: reqs[:3]}, &stale); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stale, full) {
		t.Fatalf("stale seed reply diverged from memoized reply: got %d dets stepped %d, want %d dets stepped %d",
			len(stale.Dets), stale.Stepped, len(full.Dets), full.Stepped)
	}
}
