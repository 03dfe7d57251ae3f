package graphio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// Request-log text format, consumed by the §VII sharded deployment
// (core.DetectSharded and `rejecto -requests`):
//
//	# comment
//	<interval> <from> <to> <accepted: 0|1>
//
// one line per answered friend request, whitespace-separated.

// WriteRequests serializes a request log.
func WriteRequests(w io.Writer, reqs []core.TimedRequest) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# interval from to accepted")
	for _, req := range reqs {
		accepted := 0
		if req.Accepted {
			accepted = 1
		}
		fmt.Fprintf(bw, "%d %d %d %d\n", req.Interval, req.From, req.To, accepted)
	}
	return bw.Flush() // bufio errors are sticky: Flush reports the first
}

// ScanRequests parses a request log as a stream, calling apply once per
// answered request in log order, without materializing the whole log. A
// non-nil error from apply aborts the scan and is returned verbatim.
func ScanRequests(r io.Reader, apply func(core.TimedRequest) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return fmt.Errorf("graphio: requests line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		var vals [4]int64
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return fmt.Errorf("graphio: requests line %d: bad field %q", lineNo, f)
			}
			vals[i] = v
		}
		if vals[3] != 0 && vals[3] != 1 {
			return fmt.Errorf("graphio: requests line %d: accepted flag %d not 0/1", lineNo, vals[3])
		}
		// NodeID is int32; a raw int64 conversion would silently truncate
		// (possibly to a negative ID that panics adjacency code downstream),
		// so out-of-range IDs and intervals are parse errors.
		if vals[0] < math.MinInt32 || vals[0] > math.MaxInt32 {
			return fmt.Errorf("graphio: requests line %d: interval %d out of range", lineNo, vals[0])
		}
		if vals[1] < 0 || vals[1] > math.MaxInt32 {
			return fmt.Errorf("graphio: requests line %d: node ID %d out of range", lineNo, vals[1])
		}
		if vals[2] < 0 || vals[2] > math.MaxInt32 {
			return fmt.Errorf("graphio: requests line %d: node ID %d out of range", lineNo, vals[2])
		}
		if err := apply(core.TimedRequest{
			Interval: int(vals[0]),
			From:     graph.NodeID(vals[1]),
			To:       graph.NodeID(vals[2]),
			Accepted: vals[3] == 1,
		}); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graphio: requests: %w", err)
	}
	return nil
}

// ReadRequests parses a request log.
func ReadRequests(r io.Reader) ([]core.TimedRequest, error) {
	var out []core.TimedRequest
	if err := ScanRequests(r, func(req core.TimedRequest) error {
		out = append(out, req)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRequestsFile parses a request log from the named file.
func ReadRequestsFile(path string) ([]core.TimedRequest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reqs, err := ReadRequests(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reqs, nil
}

// WriteRequestsFile serializes a request log to the named file.
func WriteRequestsFile(path string, reqs []core.TimedRequest) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return WriteRequests(f, reqs)
}
