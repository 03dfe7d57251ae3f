package storage

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Options configures the segmented file backend.
type Options struct {
	// Dir is the storage directory; created if absent. It must be dedicated
	// to one store — recovery sweeps unrecognized files as crash debris.
	Dir string
	// SegmentBytes is the size at which the live segment is sealed and a
	// new one started. Defaults to 4 MiB; the floor is one frame.
	SegmentBytes int64
	// Now supplies timestamps (snapshot headers, recovery duration).
	// Defaults to time.Now; tests inject a chaos.Clock for determinism.
	Now func() time.Time
	// Tracer receives storage.* events; nil disables them.
	Tracer obs.Tracer
	// Hooks injects simulated crashes at the store's fault points; nil
	// means no faults.
	Hooks Hooks
}

const defaultSegmentBytes = 4 << 20

// FileStore is the segmented, checksummed journal with persisted snapshots.
// All methods are mutex-serialized: the ingest loop appends and flushes
// while the detector goroutine snapshots, and recovery-time state (segment
// list, sequence counters) is shared by both.
type FileStore struct {
	opts Options

	mu        sync.Mutex
	recovered bool
	crashed   bool
	closed    bool

	// seq is the next logical sequence number — equivalently, the logical
	// journal length (snapshot prefix + segment records + appends).
	seq int64
	// snapFile / snapCount name the latest snapshot; "" / 0 when none.
	snapFile  string
	snapCount int64
	// segs mirrors the manifest's segment list plus per-segment record
	// counts; the last entry is the live (unsealed) write head.
	segs []segInfo

	// Write head state. frame is the encode scratch of Append and the
	// seal: a stack frame would escape through liveBuf.Write and
	// crashTorn, one allocation per record.
	liveFile  *os.File
	liveBuf   *bufio.Writer
	liveBytes int64
	frame     [frameSize]byte

	// Process-lifetime counters for Stats.
	nSnapshots int64
	nCompacted int64
}

// segInfo is the in-memory view of one live segment file.
type segInfo struct {
	file     string
	firstSeq int64
	records  int64
	sealed   bool
}

// Open opens (or initializes) a segmented store in opts.Dir. The store is
// not usable until Recover runs.
func Open(opts Options) (*FileStore, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("storage: Options.Dir is required")
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SegmentBytes < frameSize {
		return nil, fmt.Errorf("storage: segment size %d below one %d-byte frame", opts.SegmentBytes, frameSize)
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{opts: opts}, nil
}

// recoverBatchSize is how many replayed records accumulate before apply
// sees them; both backends chunk segment/line replay at this grain so the
// per-record callback cost stays off recovery's critical path.
const recoverBatchSize = 4096

// recoverBatcher adapts the per-record segment scan to the batched apply
// contract.
type recoverBatcher struct {
	apply func([]core.TimedRequest) error
	buf   []core.TimedRequest
}

func (b *recoverBatcher) add(req core.TimedRequest) error {
	if b.apply == nil {
		return nil
	}
	if b.buf == nil {
		b.buf = make([]core.TimedRequest, 0, recoverBatchSize)
	}
	b.buf = append(b.buf, req)
	if len(b.buf) >= recoverBatchSize {
		return b.flush()
	}
	return nil
}

func (b *recoverBatcher) flush() error {
	if b.apply == nil || len(b.buf) == 0 {
		return nil
	}
	err := b.apply(b.buf)
	b.buf = b.buf[:0]
	return err
}

// Recover implements Store. It sweeps orphans, loads the manifest's
// snapshot, replays every surviving segment record past the snapshot point,
// truncates a torn live-segment tail, and positions the write head.
func (s *FileStore) Recover(apply func([]core.TimedRequest) error) (Recovered, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovered {
		return Recovered{}, fmt.Errorf("storage: Recover called twice")
	}
	start := s.opts.Now()

	m, ok, err := readManifest(s.opts.Dir)
	if err != nil {
		return Recovered{}, err
	}
	if !ok {
		// Fresh store: segment 0 then the manifest naming it, in that
		// order, so the manifest never references a missing file.
		if err := s.createSegment(0); err != nil {
			return Recovered{}, err
		}
		m = manifest{segments: []manifestSegment{{file: segmentFileName(0), firstSeq: 0}}}
		if err := writeManifest(s.opts.Dir, m); err != nil {
			return Recovered{}, err
		}
		s.segs = []segInfo{{file: m.segments[0].file, firstSeq: 0}}
		s.recovered = true
		info := RecoveryInfo{Duration: s.opts.Now().Sub(start)}
		s.emitRecover(Recovered{Info: info})
		return Recovered{Info: info}, nil
	}

	orphans, err := s.sweepOrphans(m)
	if err != nil {
		return Recovered{}, err
	}

	var rec Recovered
	rec.Info.OrphansRemoved = orphans
	if m.snapshotFile != "" {
		snap, err := readSnapshot(filepath.Join(s.opts.Dir, m.snapshotFile), apply)
		if err != nil {
			return Recovered{}, err
		}
		if int64(snap.SnapshotCount) != m.snapshotCount {
			return Recovered{}, fmt.Errorf("storage: manifest says snapshot covers %d records, %s says %d",
				m.snapshotCount, m.snapshotFile, snap.SnapshotCount)
		}
		rec.SnapshotCount = snap.SnapshotCount
		rec.Memo = snap.Memo
		rec.Info.SnapshotRecords = snap.SnapshotCount
		s.snapFile, s.snapCount = m.snapshotFile, m.snapshotCount
	}

	if len(m.segments) == 0 {
		return Recovered{}, fmt.Errorf("storage: manifest names no segments")
	}
	if first := m.segments[0].firstSeq; first > s.snapCount {
		return Recovered{}, fmt.Errorf("storage: records %d..%d missing: snapshot covers %d, first segment starts at %d",
			s.snapCount, first, s.snapCount, first)
	}

	seq := int64(0)
	batch := recoverBatcher{apply: apply}
	for i, ms := range m.segments {
		last := i == len(m.segments)-1
		path := filepath.Join(s.opts.Dir, ms.file)
		scan, err := scanSegment(path, s.snapCount, batch.add)
		if err != nil {
			return Recovered{}, err
		}
		if scan.firstSeq != ms.firstSeq && scan.goodLen >= segmentHeaderSize {
			return Recovered{}, fmt.Errorf("storage: %s: header firstseq %d, manifest says %d", ms.file, scan.firstSeq, ms.firstSeq)
		}
		rec.Info.SegmentsScanned++
		if !last {
			// Inner segments must be sealed and intact: their records were
			// acknowledged durable when the next segment was created, so a
			// bad frame here is corruption, not a torn write.
			if !scan.sealed || scan.tornLen > 0 {
				return Recovered{}, fmt.Errorf("storage: %s: sealed segment is damaged (sealed=%v, %d torn bytes): refusing to drop acknowledged records",
					ms.file, scan.sealed, scan.tornLen)
			}
		} else if scan.tornLen > 0 {
			// The live segment's torn tail is the unfinished last write of
			// the previous process: never acknowledged, safe to cut.
			if err := os.Truncate(path, scan.goodLen); err != nil {
				return Recovered{}, err
			}
			if err := syncDir(s.opts.Dir); err != nil {
				return Recovered{}, err
			}
			rec.Info.TornBytesTruncated = scan.tornLen
			obs.Storage.TornTruncations.Add(1)
		}
		end := ms.firstSeq + int64(scan.records)
		replayed := scan.records
		if covered := s.snapCount - ms.firstSeq; covered > 0 {
			replayed -= int(min64(covered, int64(scan.records)))
		}
		rec.Info.SegmentRecords += replayed
		s.segs = append(s.segs, segInfo{file: ms.file, firstSeq: ms.firstSeq, records: int64(scan.records), sealed: scan.sealed})
		seq = end
		if last {
			s.liveBytes = scan.goodLen
		}
	}
	if err := batch.flush(); err != nil {
		return Recovered{}, err
	}
	if seq < s.snapCount {
		return Recovered{}, fmt.Errorf("storage: snapshot covers %d records but segments end at %d", s.snapCount, seq)
	}
	s.seq = seq

	// Position the write head. A sealed last segment means the previous
	// process died between sealing and committing the next segment to the
	// manifest (the orphan sweep just removed any half-created successor);
	// start the successor now.
	if s.segs[len(s.segs)-1].sealed {
		if err := s.rollLocked(); err != nil {
			return Recovered{}, err
		}
	} else {
		f, err := os.OpenFile(filepath.Join(s.opts.Dir, s.segs[len(s.segs)-1].file), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return Recovered{}, err
		}
		s.liveFile = f
		s.liveBuf = bufio.NewWriterSize(f, 1<<16)
	}

	s.recovered = true
	rec.Info.Records = int(s.seq)
	rec.Info.Duration = s.opts.Now().Sub(start)
	obs.Storage.RecoveredRecords.Set(s.seq)
	obs.Storage.LastRecoverMS.Set(float64(rec.Info.Duration) / float64(time.Millisecond))
	s.emitRecover(rec)
	return rec, nil
}

func (s *FileStore) emitRecover(rec Recovered) {
	if s.opts.Tracer == nil {
		return
	}
	detail := fmt.Sprintf("snapshot %d + %d segments", rec.Info.SnapshotRecords, rec.Info.SegmentsScanned)
	if rec.Info.TornBytesTruncated > 0 {
		detail += fmt.Sprintf(", torn %dB", rec.Info.TornBytesTruncated)
	}
	if rec.Info.OrphansRemoved > 0 {
		detail += fmt.Sprintf(", %d orphans", rec.Info.OrphansRemoved)
	}
	s.opts.Tracer.Emit(obs.Event{
		Name:     obs.EvStorageRecover,
		Wall:     s.opts.Now(),
		Dur:      rec.Info.Duration,
		Nodes:    rec.Info.Records,
		Suspects: rec.Info.SegmentRecords,
		Detail:   detail,
	})
}

// sweepOrphans removes files the manifest does not reference — temp files
// and segment/snapshot files stranded by a crash between commit points.
// Unrecognized names are an error: Dir is dedicated, so a stray file is
// either operator error or a format this build does not understand.
func (s *FileStore) sweepOrphans(m manifest) (int, error) {
	live := map[string]bool{manifestName: true}
	if m.snapshotFile != "" {
		live[m.snapshotFile] = true
	}
	for _, seg := range m.segments {
		live[seg.file] = true
	}
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if live[name] {
			continue
		}
		known := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")) ||
			(strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"))
		if !known {
			return removed, fmt.Errorf("storage: unexpected file %q in store directory", name)
		}
		if err := os.Remove(filepath.Join(s.opts.Dir, name)); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(s.opts.Dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// createSegment creates and syncs a fresh segment file and installs it as
// the write head.
func (s *FileStore) createSegment(firstSeq int64) error {
	path := filepath.Join(s.opts.Dir, segmentFileName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segmentHeaderSize]byte
	copy(hdr[:], segmentMagic[:])
	putUint64(hdr[8:], uint64(firstSeq))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(s.opts.Dir); err != nil {
		f.Close()
		return err
	}
	s.liveFile = f
	s.liveBuf = bufio.NewWriterSize(f, 1<<16)
	s.liveBytes = segmentHeaderSize
	return nil
}

// Append implements Store.
func (s *FileStore) Append(req core.TimedRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	putRequestFrame(s.frame[:], req)
	if f := hookAt(s.opts.Hooks, PointAppend, frameSize); f.Crash {
		return s.crashTorn(s.frame[:], f.Torn)
	}
	if _, err := s.liveBuf.Write(s.frame[:]); err != nil {
		return err
	}
	s.liveBytes += frameSize
	live := &s.segs[len(s.segs)-1]
	live.records++
	s.seq++
	obs.Storage.Appends.Add(1)
	if s.liveBytes >= s.opts.SegmentBytes {
		return s.sealAndRollLocked()
	}
	return nil
}

// sealAndRollLocked seals the live segment (footer frame + fsync), creates
// its successor, and commits the new segment list to the manifest.
func (s *FileStore) sealAndRollLocked() error {
	live := &s.segs[len(s.segs)-1]
	putSealFrame(s.frame[:], live.records)
	if f := hookAt(s.opts.Hooks, PointSeal, frameSize); f.Crash {
		return s.crashTorn(s.frame[:], f.Torn)
	}
	if _, err := s.liveBuf.Write(s.frame[:]); err != nil {
		return err
	}
	if err := s.liveBuf.Flush(); err != nil {
		return err
	}
	if err := s.liveFile.Sync(); err != nil {
		return err
	}
	if err := s.liveFile.Close(); err != nil {
		return err
	}
	s.liveFile, s.liveBuf = nil, nil
	live.sealed = true
	obs.Storage.Seals.Add(1)
	if s.opts.Tracer != nil {
		s.opts.Tracer.Emit(obs.Event{
			Name:   obs.EvStorageSeal,
			Wall:   s.opts.Now(),
			Nodes:  int(live.records),
			Detail: live.file,
		})
	}
	return s.rollLocked()
}

// rollLocked starts the successor of a sealed last segment and commits it
// to the manifest. Crash windows: after segment create but before manifest
// commit, the new file is an orphan and recovery recreates it.
func (s *FileStore) rollLocked() error {
	if f := hookAt(s.opts.Hooks, PointSegmentCreate, 0); f.Crash {
		return s.crash()
	}
	if err := s.createSegment(s.seq); err != nil {
		return err
	}
	s.segs = append(s.segs, segInfo{file: segmentFileName(s.seq), firstSeq: s.seq})
	if f := hookAt(s.opts.Hooks, PointManifest, 0); f.Crash {
		return s.crash()
	}
	return writeManifest(s.opts.Dir, s.manifestLocked())
}

// manifestLocked builds the manifest describing current in-memory state.
func (s *FileStore) manifestLocked() manifest {
	m := manifest{snapshotFile: s.snapFile, snapshotCount: s.snapCount}
	for _, seg := range s.segs {
		m.segments = append(m.segments, manifestSegment{file: seg.file, firstSeq: seg.firstSeq})
	}
	return m
}

// Flush implements Store.
func (s *FileStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if err := s.liveBuf.Flush(); err != nil {
		return err
	}
	return s.liveFile.Sync()
}

// Snapshot implements Store: persist st, commit it to the manifest, then
// compact away sealed segments the snapshot fully covers.
func (s *FileStore) Snapshot(st SnapshotState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if int64(st.Count) > s.seq {
		return fmt.Errorf("storage: snapshot covers %d records but journal holds %d", st.Count, s.seq)
	}
	if int64(st.Count) < s.snapCount {
		return fmt.Errorf("storage: snapshot covers %d records, older than current snapshot's %d", st.Count, s.snapCount)
	}
	start := s.opts.Now()
	data, err := encodeSnapshot(st, start.UnixNano())
	if err != nil {
		return err
	}

	name := snapshotFileName(int64(st.Count))
	path := filepath.Join(s.opts.Dir, name)
	tmp := path + ".tmp"
	if f := hookAt(s.opts.Hooks, PointSnapshotWrite, len(data)); f.Crash {
		torn := f.Torn
		if torn > len(data) {
			torn = len(data)
		}
		os.WriteFile(tmp, data[:torn], 0o644)
		return s.crash()
	}
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if f := hookAt(s.opts.Hooks, PointSnapshotRename, 0); f.Crash {
		return s.crash()
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(s.opts.Dir); err != nil {
		return err
	}

	// Commit: the manifest switches to the new snapshot and drops fully
	// covered sealed segments in the same atomic replace.
	oldSnap := s.snapFile
	var kept []segInfo
	var droppedFiles []string
	var droppedRecords int64
	for i, seg := range s.segs {
		covered := seg.sealed && i < len(s.segs)-1 && seg.firstSeq+seg.records <= int64(st.Count)
		if covered {
			droppedFiles = append(droppedFiles, seg.file)
			droppedRecords += seg.records
		} else {
			kept = append(kept, seg)
		}
	}
	s.snapFile, s.snapCount = name, int64(st.Count)
	s.segs = kept
	if f := hookAt(s.opts.Hooks, PointManifest, 0); f.Crash {
		return s.crash()
	}
	if err := writeManifest(s.opts.Dir, s.manifestLocked()); err != nil {
		return err
	}

	// The manifest no longer references the old snapshot or the covered
	// segments; deleting them is cleanup, and a crash mid-delete just
	// leaves orphans for the next boot's sweep.
	if oldSnap != "" && oldSnap != name {
		droppedFiles = append(droppedFiles, oldSnap)
	}
	for _, file := range droppedFiles {
		if f := hookAt(s.opts.Hooks, PointCompactDelete, 0); f.Crash {
			return s.crash()
		}
		if err := os.Remove(filepath.Join(s.opts.Dir, file)); err != nil {
			return err
		}
	}
	if len(droppedFiles) > 0 {
		if err := syncDir(s.opts.Dir); err != nil {
			return err
		}
	}

	dur := s.opts.Now().Sub(start)
	s.nSnapshots++
	nSegs := int64(len(droppedFiles))
	if oldSnap != "" && oldSnap != name {
		nSegs--
	}
	s.nCompacted += nSegs
	obs.Storage.Snapshots.Add(1)
	obs.Storage.CompactedSegments.Add(nSegs)
	ms := float64(dur) / float64(time.Millisecond)
	obs.Storage.SnapshotMS.Add(ms)
	obs.Storage.LastSnapshotMS.Set(ms)
	if s.opts.Tracer != nil {
		s.opts.Tracer.Emit(obs.Event{
			Name:   obs.EvStorageSnapshot,
			Wall:   s.opts.Now(),
			Dur:    dur,
			Nodes:  st.Count,
			Detail: name,
		})
		if nSegs > 0 {
			s.opts.Tracer.Emit(obs.Event{
				Name:   obs.EvStorageCompact,
				Wall:   s.opts.Now(),
				Nodes:  int(nSegs),
				Detail: fmt.Sprintf("%d segments, %d records re-homed", nSegs, droppedRecords),
			})
		}
	}
	return nil
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Backend:           "segmented",
		Records:           s.seq,
		Segments:          len(s.segs),
		LiveSegmentBytes:  s.liveBytes,
		SnapshotRecords:   s.snapCount,
		Snapshots:         s.nSnapshots,
		CompactedSegments: s.nCompacted,
	}
	for _, seg := range s.segs {
		if seg.sealed {
			st.SealedSegments++
		}
	}
	return st
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.liveFile == nil {
		return nil
	}
	var err error
	if !s.crashed {
		// A crashed store writes nothing more — the disk must stay exactly
		// as the simulated death left it.
		if ferr := s.liveBuf.Flush(); ferr != nil {
			err = ferr
		} else if serr := s.liveFile.Sync(); serr != nil {
			err = serr
		}
	}
	if cerr := s.liveFile.Close(); err == nil {
		err = cerr
	}
	s.liveFile, s.liveBuf = nil, nil
	return err
}

// usable guards every mutating operation.
func (s *FileStore) usable() error {
	switch {
	case s.crashed:
		return ErrCrashed
	case s.closed:
		return fmt.Errorf("storage: store is closed")
	case !s.recovered:
		return fmt.Errorf("storage: operation before Recover")
	}
	return nil
}

// crash marks the store dead after a fault hook fired.
func (s *FileStore) crash() error {
	s.crashed = true
	return ErrCrashed
}

// crashTorn simulates a crash mid-write: everything buffered so far reaches
// the file (the generous crash model — recovery must cope with any durable
// prefix), then torn bytes of the pending frame, then death.
func (s *FileStore) crashTorn(frame []byte, torn int) error {
	if torn > len(frame) {
		torn = len(frame)
	}
	if s.liveBuf != nil {
		s.liveBuf.Flush()
		if torn > 0 {
			s.liveFile.Write(frame[:torn])
		}
	}
	return s.crash()
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
