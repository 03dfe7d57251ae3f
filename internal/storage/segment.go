package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/graphio"
)

// Segment file format. A segment is a header followed by fixed-size frames:
//
//	header  [16]byte  magic "REJSEG01" + firstSeq uint64 (little-endian)
//	frame   [18]byte  kind uint8 + payload [13]byte + crc32c uint32
//
// kind 1 frames carry one answered request (graphio's 13-byte record
// codec); the CRC32C (Castagnoli) covers kind + payload. A sealed segment
// ends with exactly one kind 2 frame whose payload is the segment's record
// count — the footer a reader uses to distinguish "this segment is
// complete" from "this segment ends where the last crash left it". Fixed
// frames mean a reader never needs to resynchronize: every frame boundary
// is computable from the file offset alone, and a torn tail is precisely a
// trailing partial or checksum-failing frame.

var segmentMagic = [8]byte{'R', 'E', 'J', 'S', 'E', 'G', '0', '1'}

const (
	segmentHeaderSize = 16
	frameSize         = 1 + graphio.RequestRecordSize + 4

	frameKindRequest = 1
	frameKindSeal    = 2
)

// castagnoli is the CRC32C table; Castagnoli is the polynomial with
// hardware support on both amd64 and arm64, the usual choice for storage
// checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putFrame encodes one frame into b (frameSize bytes).
func putFrame(b []byte, kind byte, payload []byte) {
	_ = b[frameSize-1]
	b[0] = kind
	copy(b[1:1+graphio.RequestRecordSize], payload)
	crc := crc32.Checksum(b[:1+graphio.RequestRecordSize], castagnoli)
	binary.LittleEndian.PutUint32(b[1+graphio.RequestRecordSize:], crc)
}

// putRequestFrame encodes req as a kind 1 frame.
func putRequestFrame(b []byte, req core.TimedRequest) {
	var payload [graphio.RequestRecordSize]byte
	graphio.PutRequest(payload[:], req)
	putFrame(b, frameKindRequest, payload[:])
}

// putSealFrame encodes the seal footer for a segment of count records.
func putSealFrame(b []byte, count int64) {
	var payload [graphio.RequestRecordSize]byte
	binary.LittleEndian.PutUint64(payload[:8], uint64(count))
	putFrame(b, frameKindSeal, payload[:])
}

// checkFrame verifies b's checksum and returns its kind.
func checkFrame(b []byte) (kind byte, ok bool) {
	want := binary.LittleEndian.Uint32(b[1+graphio.RequestRecordSize:])
	if crc32.Checksum(b[:1+graphio.RequestRecordSize], castagnoli) != want {
		return 0, false
	}
	return b[0], true
}

// segScan is the outcome of scanning one segment file.
type segScan struct {
	firstSeq int64
	records  int   // request frames with a valid checksum, before any seal
	sealed   bool  // a valid seal frame terminated the scan
	goodLen  int64 // bytes of valid prefix (header + whole valid frames)
	tornLen  int64 // bytes past goodLen in the file (0 = clean)
}

// scanSegment reads a segment file, calling apply (if non-nil) for every
// request record whose logical sequence number is >= skipBelow. It stops at
// a seal frame, at EOF, or at the first invalid frame; the caller decides
// whether an invalid tail is a recoverable torn write (live segment) or
// corruption (sealed segment).
func scanSegment(path string, skipBelow int64, apply func(core.TimedRequest) error) (segScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return segScan{}, err
	}

	// One read(2) per 64 KiB, not per frame. io.ReadFull reports io.EOF and
	// io.ErrUnexpectedEOF through a bufio.Reader exactly as on the file, so
	// the torn-tail arithmetic below is unchanged.
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [segmentHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// A header too short to read is a torn segment-create; the whole
		// file is tail.
		return segScan{goodLen: 0, tornLen: st.Size()}, nil
	}
	if [8]byte(hdr[:8]) != segmentMagic {
		return segScan{}, fmt.Errorf("storage: %s: bad segment magic %q", path, hdr[:8])
	}
	scan := segScan{
		firstSeq: int64(binary.LittleEndian.Uint64(hdr[8:])),
		goodLen:  segmentHeaderSize,
	}

	buf := make([]byte, frameSize)
	seq := scan.firstSeq
	for {
		n, err := io.ReadFull(r, buf)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			scan.tornLen = int64(n)
			break
		}
		if err != nil {
			return scan, fmt.Errorf("storage: %s: %w", path, err)
		}
		kind, ok := checkFrame(buf)
		if !ok {
			scan.tornLen = int64(frameSize)
			break
		}
		switch kind {
		case frameKindRequest:
			if apply != nil && seq >= skipBelow {
				req, err := graphio.GetRequest(buf[1:])
				if err != nil {
					return scan, fmt.Errorf("storage: %s record %d: %w", path, seq, err)
				}
				if err := apply(req); err != nil {
					return scan, err
				}
			}
			seq++
			scan.records++
			scan.goodLen += frameSize
		case frameKindSeal:
			count := int64(binary.LittleEndian.Uint64(buf[1:9]))
			if count != int64(scan.records) {
				return scan, fmt.Errorf("storage: %s: seal footer claims %d records, segment holds %d",
					path, count, scan.records)
			}
			scan.sealed = true
			scan.goodLen += frameSize
		default:
			// An unknown kind with a valid checksum is a format from the
			// future, not a torn write.
			return scan, fmt.Errorf("storage: %s: unknown frame kind %d", path, kind)
		}
		if scan.sealed {
			break
		}
	}
	if rest := st.Size() - scan.goodLen - scan.tornLen; rest > 0 {
		scan.tornLen += rest
	}
	return scan, nil
}
