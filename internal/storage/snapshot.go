package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/incr"
)

// Snapshot file format. A snapshot folds a journal prefix — and optionally
// the incremental engine's memo for base + that prefix — into one
// bulk-loadable file:
//
//	magic      [8]byte  "REJSNAP1"
//	version    uint32   currently 1
//	flags      uint32   bit0 = frozen present, bit1 = memo present
//	count      uint64   journal records covered
//	unixNanos  int64    wall-clock of the snapshot (informational)
//	requests   count × 13-byte records (graphio request codec)
//	frozen     graphio frozen blob, if flags bit0
//	memo       incr memo blob, if flags bit1
//	crc        uint32   CRC32C of everything above
//
// The frozen section held a CSR read model of base + the prefix that
// nothing reads any more. This build never writes it; the reader still
// decodes and discards one, so a snapshot written before it was dropped
// keeps booting under the same version.
//
// The trailing checksum covers the whole body, so a snapshot is either
// wholly trusted or wholly rejected — there is no "recover a prefix of the
// snapshot" path, because the snapshot is itself a derived cache: if it
// fails its checksum the boot fails loudly and the operator restores or
// deletes it (docs/OPERATIONS.md, "Corrupt snapshot").

var snapshotMagic = [8]byte{'R', 'E', 'J', 'S', 'N', 'A', 'P', '1'}

const (
	snapshotVersion = 1

	snapFlagFrozen = 1 << 0
	snapFlagMemo   = 1 << 1
)

// encodeSnapshot serializes st into one buffer, checksum included.
func encodeSnapshot(st SnapshotState, unixNanos int64) ([]byte, error) {
	if len(st.Requests) != st.Count {
		return nil, fmt.Errorf("storage: snapshot state holds %d requests, count says %d", len(st.Requests), st.Count)
	}
	var buf bytes.Buffer
	buf.Grow(32 + st.Count*graphio.RequestRecordSize)
	buf.Write(snapshotMagic[:])
	var flags uint32
	if st.Memo != nil {
		flags |= snapFlagMemo
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapshotVersion)
	binary.LittleEndian.PutUint32(hdr[4:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(st.Count))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(unixNanos))
	buf.Write(hdr[:])
	var rec [graphio.RequestRecordSize]byte
	for _, req := range st.Requests {
		graphio.PutRequest(rec[:], req)
		buf.Write(rec[:])
	}
	if st.Memo != nil {
		if err := incr.EncodeMemo(&buf, st.Memo); err != nil {
			return nil, err
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(buf.Bytes(), castagnoli))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

// readSnapshot loads and verifies a snapshot file. The apply callback sees
// every covered request, in order, as one batch — the snapshot is already
// wholly in memory for the checksum, so recovery hands it over in a single
// call rather than a million.
func readSnapshot(path string, apply func(reqs []core.TimedRequest) error) (snap Recovered, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Recovered{}, err
	}
	if len(data) < 8+24+4 {
		return Recovered{}, fmt.Errorf("storage: %s: snapshot too short (%d bytes)", path, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return Recovered{}, fmt.Errorf("storage: %s: snapshot checksum mismatch", path)
	}
	if [8]byte(body[:8]) != snapshotMagic {
		return Recovered{}, fmt.Errorf("storage: %s: bad snapshot magic %q", path, body[:8])
	}
	hdr := body[8 : 8+24]
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != snapshotVersion {
		return Recovered{}, fmt.Errorf("storage: %s: snapshot version %d, this build reads %d", path, v, snapshotVersion)
	}
	flags := binary.LittleEndian.Uint32(hdr[4:])
	count := binary.LittleEndian.Uint64(hdr[8:])
	records := body[8+24:]
	if count > uint64(len(records))/graphio.RequestRecordSize {
		return Recovered{}, fmt.Errorf("storage: %s: snapshot claims %d records, file holds at most %d",
			path, count, len(records)/graphio.RequestRecordSize)
	}
	// Decode straight off the mapped body — the checksum already vouched
	// for every byte, so this loop is pure conversion.
	reqs := make([]core.TimedRequest, count)
	for i := uint64(0); i < count; i++ {
		req, err := graphio.GetRequest(records[i*graphio.RequestRecordSize:])
		if err != nil {
			return Recovered{}, fmt.Errorf("storage: %s: snapshot record %d: %w", path, i, err)
		}
		reqs[i] = req
	}
	if apply != nil && count > 0 {
		if err := apply(reqs); err != nil {
			return Recovered{}, err
		}
	}
	r := bytes.NewReader(records[count*graphio.RequestRecordSize:])
	snap.SnapshotCount = int(count)
	if flags&snapFlagFrozen != 0 {
		if _, err := graphio.ReadFrozen(r); err != nil {
			return Recovered{}, fmt.Errorf("storage: %s: snapshot frozen section: %w", path, err)
		}
	}
	if flags&snapFlagMemo != 0 {
		m, err := incr.DecodeMemo(r)
		if err != nil {
			return Recovered{}, fmt.Errorf("storage: %s: snapshot memo section: %w", path, err)
		}
		snap.Memo = m
	}
	if r.Len() != 0 {
		return Recovered{}, fmt.Errorf("storage: %s: %d trailing bytes after snapshot body", path, r.Len())
	}
	return snap, nil
}
