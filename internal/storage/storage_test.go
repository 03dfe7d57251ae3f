package storage

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// reqSeq builds a deterministic answered-request sequence.
func reqSeq(seed uint64, n, count int) []core.TimedRequest {
	r := rand.New(rand.NewPCG(seed, 101))
	reqs := make([]core.TimedRequest, 0, count)
	for len(reqs) < count {
		from, to := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if from == to {
			continue
		}
		reqs = append(reqs, core.TimedRequest{
			From: from, To: to,
			Accepted: r.IntN(3) > 0,
			Interval: r.IntN(4),
		})
	}
	return reqs
}

// recoverAll opens a store's directory fresh and returns the recovered log.
func recoverAll(t *testing.T, dir string, segBytes int64) ([]core.TimedRequest, Recovered, *FileStore) {
	t.Helper()
	st, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var log []core.TimedRequest
	rec, err := st.Recover(func(req []core.TimedRequest) error {
		log = append(log, req...)
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return log, rec, st
}

func appendAll(t *testing.T, st Store, reqs []core.TimedRequest) {
	t.Helper()
	for _, req := range reqs {
		if err := st.Append(req); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func sameLog(t *testing.T, got, want []core.TimedRequest, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func TestSegmentedAppendRecover(t *testing.T) {
	dir := t.TempDir()
	reqs := reqSeq(1, 20, 500)
	// Tiny segments force many seal/roll cycles.
	_, _, st := recoverAll(t, dir, 40*frameSize)
	appendAll(t, st, reqs)
	stats := st.Stats()
	if stats.Records != int64(len(reqs)) {
		t.Fatalf("stats report %d records, want %d", stats.Records, len(reqs))
	}
	if stats.Segments < 5 {
		t.Fatalf("tiny segment size produced only %d segments", stats.Segments)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	log, rec, st2 := recoverAll(t, dir, 40*frameSize)
	defer st2.Close()
	sameLog(t, log, reqs, "restart")
	if rec.Info.Records != len(reqs) || rec.Info.SegmentRecords != len(reqs) {
		t.Fatalf("recovery info %+v, want %d records all from segments", rec.Info, len(reqs))
	}
	if rec.Info.TornBytesTruncated != 0 || rec.Info.OrphansRemoved != 0 {
		t.Fatalf("clean restart reported damage: %+v", rec.Info)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for torn := 1; torn < frameSize; torn++ {
		dir := t.TempDir()
		reqs := reqSeq(2, 10, 25)
		_, _, st := recoverAll(t, dir, defaultSegmentBytes)
		appendAll(t, st, reqs)
		st.Close()

		// Tear the live segment: append a partial frame, as a crash
		// mid-write would.
		seg := filepath.Join(dir, segmentFileName(0))
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, torn)
		for i := range junk {
			junk[i] = 0xAB
		}
		f.Write(junk)
		f.Close()

		log, rec, st2 := recoverAll(t, dir, defaultSegmentBytes)
		sameLog(t, log, reqs, "torn restart")
		if rec.Info.TornBytesTruncated != int64(torn) {
			t.Fatalf("torn=%d: reported %d bytes truncated", torn, rec.Info.TornBytesTruncated)
		}
		// The store stays writable after truncation.
		more := reqSeq(3, 10, 5)
		appendAll(t, st2, more)
		st2.Close()
		log2, _, st3 := recoverAll(t, dir, defaultSegmentBytes)
		st3.Close()
		sameLog(t, log2, append(append([]core.TimedRequest{}, reqs...), more...), "after torn truncation")
	}
}

func TestSealedSegmentCorruptionFailsBoot(t *testing.T) {
	dir := t.TempDir()
	reqs := reqSeq(4, 10, 200)
	_, _, st := recoverAll(t, dir, 20*frameSize)
	appendAll(t, st, reqs)
	st.Close()

	// Flip one payload byte in the middle of the FIRST (sealed) segment.
	seg := filepath.Join(dir, segmentFileName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[segmentHeaderSize+5*frameSize+3] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir, SegmentBytes: 20 * frameSize})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(nil); err == nil {
		t.Fatal("corrupt sealed segment recovered without error")
	}
}

func TestSnapshotCompactsAndRecoversFast(t *testing.T) {
	dir := t.TempDir()
	reqs := reqSeq(5, 16, 300)
	_, _, st := recoverAll(t, dir, 25*frameSize)
	appendAll(t, st, reqs[:250])

	frozen := frozenOf(reqs[:250], 16)
	if err := st.Snapshot(SnapshotState{Count: 250, Requests: reqs[:250], Frozen: frozen}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	stats := st.Stats()
	if stats.SnapshotRecords != 250 {
		t.Fatalf("stats report snapshot at %d, want 250", stats.SnapshotRecords)
	}
	if stats.CompactedSegments == 0 {
		t.Fatal("compaction deleted no segments")
	}
	appendAll(t, st, reqs[250:])
	st.Close()

	log, rec, st2 := recoverAll(t, dir, 25*frameSize)
	defer st2.Close()
	sameLog(t, log, reqs, "post-snapshot restart")
	if rec.SnapshotCount != 250 {
		t.Fatalf("recovered snapshot covers %d, want 250", rec.SnapshotCount)
	}
	if rec.Frozen == nil || !rec.Frozen.Equal(frozen) {
		t.Fatal("recovered frozen snapshot missing or different")
	}
	// The bulk of the journal must have come from the snapshot, not replay.
	if rec.Info.SegmentRecords >= 100 {
		t.Fatalf("replayed %d records from segments despite a snapshot at 250", rec.Info.SegmentRecords)
	}
}

// frozenOf folds requests over an n-node empty base, the server's read
// model shape.
func frozenOf(reqs []core.TimedRequest, n int) *graph.Frozen {
	g := graph.New(n)
	for _, req := range reqs {
		if req.Accepted {
			g.AddFriendship(req.From, req.To)
		} else {
			g.AddRejection(req.To, req.From)
		}
	}
	return g.FreezeCanonical()
}

func TestSnapshotValidation(t *testing.T) {
	dir := t.TempDir()
	reqs := reqSeq(6, 8, 10)
	_, _, st := recoverAll(t, dir, defaultSegmentBytes)
	defer st.Close()
	appendAll(t, st, reqs)
	if err := st.Snapshot(SnapshotState{Count: 11, Requests: make([]core.TimedRequest, 11)}); err == nil {
		t.Fatal("snapshot past the journal end accepted")
	}
	if err := st.Snapshot(SnapshotState{Count: 5, Requests: reqs[:4]}); err == nil {
		t.Fatal("snapshot with mismatched request count accepted")
	}
	if err := st.Snapshot(SnapshotState{Count: 8, Requests: reqs[:8]}); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if err := st.Snapshot(SnapshotState{Count: 5, Requests: reqs[:5]}); err == nil {
		t.Fatal("snapshot older than the current one accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := manifest{
		snapshotFile:  snapshotFileName(65536),
		snapshotCount: 65536,
		segments: []manifestSegment{
			{file: segmentFileName(65536), firstSeq: 65536},
			{file: segmentFileName(131072), firstSeq: 131072},
		},
	}
	if err := writeManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := readManifest(dir)
	if err != nil || !ok {
		t.Fatalf("readManifest: ok=%v err=%v", ok, err)
	}
	if got.snapshotFile != want.snapshotFile || got.snapshotCount != want.snapshotCount ||
		len(got.segments) != len(want.segments) {
		t.Fatalf("manifest round trip: got %+v want %+v", got, want)
	}
	for i := range want.segments {
		if got.segments[i] != want.segments[i] {
			t.Fatalf("segment %d: got %+v want %+v", i, got.segments[i], want.segments[i])
		}
	}
	if _, ok, err := readManifest(t.TempDir()); ok || err != nil {
		t.Fatalf("missing manifest: ok=%v err=%v", ok, err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readManifest(dir); err == nil {
		t.Fatal("malformed manifest parsed without error")
	}
}

func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	reqs := reqSeq(8, 10, 30)
	_, _, st := recoverAll(t, dir, defaultSegmentBytes)
	appendAll(t, st, reqs)
	st.Close()
	// Strand crash debris: a temp file and an unreferenced segment.
	os.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), []byte("half"), 0o644)
	os.WriteFile(filepath.Join(dir, segmentFileName(999999)), []byte("half"), 0o644)
	log, rec, st2 := recoverAll(t, dir, defaultSegmentBytes)
	defer st2.Close()
	sameLog(t, log, reqs, "post-sweep")
	if rec.Info.OrphansRemoved != 2 {
		t.Fatalf("swept %d orphans, want 2", rec.Info.OrphansRemoved)
	}
	// Unknown files refuse the boot rather than getting deleted.
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep"), 0o644)
	st3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st3.Recover(nil); err == nil {
		t.Fatal("unknown file in store dir did not fail recovery")
	}
}

func TestRecoverTwiceFails(t *testing.T) {
	_, _, st := recoverAll(t, t.TempDir(), defaultSegmentBytes)
	defer st.Close()
	if _, err := st.Recover(nil); err == nil {
		t.Fatal("second Recover succeeded")
	}
	if err := st.Append(core.TimedRequest{From: 0, To: 1}); err != nil {
		t.Fatalf("append after recover: %v", err)
	}
	st2, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Append(core.TimedRequest{From: 0, To: 1}); err == nil {
		t.Fatal("Append before Recover succeeded")
	}
}
