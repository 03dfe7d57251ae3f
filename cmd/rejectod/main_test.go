package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/server"
	"repro/internal/storage"
)

// buildBinary compiles rejectod (pkg ".") or a sibling command.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bin")
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// writeBaseGraph persists a small friendship base for the daemon to load.
func writeBaseGraph(t *testing.T, dir string, n int) string {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddFriendship(graph.NodeID(i), graph.NodeID((i+1)%n))
		g.AddFriendship(graph.NodeID(i), graph.NodeID((i+9)%n))
	}
	path := filepath.Join(dir, "base.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graphio.Write(f, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// daemon wraps a running rejectod process.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	output bytes.Buffer // guarded: the scanner goroutine appends while tests read
}

func (d *daemon) appendOutput(line string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.output.WriteString(line + "\n")
}

func (d *daemon) outputString() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.output.String()
}

// startDaemon launches rejectod and waits for its listen line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-listen", "127.0.0.1:0")...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout // single interleaved stream is fine for tests
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.appendOutput(line)
			if rest, ok := strings.CutPrefix(line, "rejectod listening on "); ok {
				select {
				case addrc <- rest:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("rejectod never announced its listen address; output:\n%s", d.outputString())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return d
}

// terminate sends SIGTERM and returns the exit code.
func (d *daemon) terminate(t *testing.T) int {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("waiting for rejectod: %v", err)
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("rejectod did not exit after SIGTERM; output:\n%s", d.outputString())
	}
	return -1
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// daemonStats is the slice of GET /v1/stats the e2e tests synchronize on.
type daemonStats struct {
	EventsIngested int64 `json:"events_ingested"`
	QueueDepth     int   `json:"queue_depth"`
	DetectInflight bool  `json:"detect_inflight"`
}

// waitStats polls /v1/stats until cond holds.
func (d *daemon) waitStats(t *testing.T, what string, cond func(daemonStats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url("/v1/stats"))
		if err != nil {
			t.Fatal(err)
		}
		var st daemonStats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cond(st) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; output:\n%s", what, d.outputString())
}

func postBody(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGracefulShutdownExitsZero is the happy-path e2e: ingest a workload over
// HTTP, run a detection, SIGTERM — the daemon drains, flushes its journal and
// trace, and exits 0; `rejecto -requests <store-dir>` then replays the
// journal to the served suspect sets.
func TestGracefulShutdownExitsZero(t *testing.T) {
	bin := buildBinary(t, ".")
	dir := t.TempDir()
	base := writeBaseGraph(t, dir, 60)
	storeDir := filepath.Join(dir, "data")
	trace := filepath.Join(dir, "run.jsonl")

	d := startDaemon(t, bin, "-graph", base, "-threshold", "0.5", "-seed", "3",
		"-store-dir", storeDir, "-trace", trace)

	var events []server.Event
	for i := 0; i < 30; i++ {
		from := graph.NodeID(i % 10)
		to := graph.NodeID(10 + (i+3)%50)
		events = append(events, server.Event{Type: server.EvRequest, From: from, To: to, Interval: 0})
		typ := server.EvReject
		if i%5 == 0 {
			typ = server.EvAccept
		}
		events = append(events, server.Event{Type: typ, From: from, To: to, Interval: 0})
	}
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBody(t, d.url("/v1/events"), body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/events = %d", resp.StatusCode)
	}
	// The 202 acks the enqueue; wait for the fold before cutting an epoch.
	d.waitStats(t, "ingest to drain", func(st daemonStats) bool {
		return st.EventsIngested == int64(len(events)) && st.QueueDepth == 0
	})

	resp = postBody(t, d.url("/v1/detect"), []byte("{}"))
	var ep struct {
		Epoch     int64 `json:"epoch"`
		Events    int   `json:"events"`
		Intervals []struct {
			Interval int            `json:"interval"`
			Rounds   int            `json:"rounds"`
			Suspects []graph.NodeID `json:"suspects"`
		} `json:"intervals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ep.Epoch < 1 || ep.Events != len(events)/2 {
		t.Fatalf("detect epoch %d over %d events, want >=1 over %d", ep.Epoch, ep.Events, len(events)/2)
	}

	if code := d.terminate(t); code != 0 {
		t.Fatalf("clean shutdown exited %d; output:\n%s", code, d.outputString())
	}
	if !strings.Contains(d.outputString(), "drained cleanly") {
		t.Fatalf("missing drain confirmation; output:\n%s", d.outputString())
	}

	// The batch CLI replays the store directory to the suspect sets the
	// daemon served.
	out, err := exec.Command(buildBinary(t, "../rejecto"), "-graph", base, "-requests", storeDir,
		"-threshold", "0.5", "-seed", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("rejecto -requests %s: %v\n%s", storeDir, err, out)
	}
	var want strings.Builder
	fmt.Fprintf(&want, "loaded %d timed requests from %s\n", len(events)/2, storeDir)
	for _, iv := range ep.Intervals {
		fmt.Fprintf(&want, "interval %d: %d suspects in %d round(s)\n", iv.Interval, len(iv.Suspects), iv.Rounds)
		for _, u := range iv.Suspects {
			fmt.Fprintf(&want, "  %d\n", u)
		}
	}
	if !strings.HasSuffix(string(out), want.String()) {
		t.Fatalf("batch replay of the store directory printed:\n%s\nwant it to end with the daemon's epoch:\n%s", out, want.String())
	}

	// The trace must be valid JSONL with at least one sweep event.
	traceData, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range bytes.Split(traceData, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if !json.Valid(line) {
			t.Fatalf("trace line is not valid JSON: %q", line)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("trace file is empty after a detection ran")
	}
}

// TestInterruptedDetectionExits130: a daemon terminated mid-detection must
// interrupt it between rounds, still drain, and exit 130 — the same
// convention as cmd/rejecto.
func TestInterruptedDetectionExits130(t *testing.T) {
	bin := buildBinary(t, ".")
	dir := t.TempDir()
	base := writeBaseGraph(t, dir, 80)

	// Pre-write a journal with enough rejection-bearing intervals that a
	// detection over it takes long enough to be caught in flight.
	storeDir := filepath.Join(dir, "data")
	st, err := storage.Open(storage.Options{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(nil); err != nil {
		t.Fatal(err)
	}
	for iv := 0; iv < 2000; iv++ {
		for k := 0; k < 10; k++ {
			err := st.Append(core.TimedRequest{
				From:     graph.NodeID(k),
				To:       graph.NodeID(20 + (iv+k*7)%60),
				Accepted: false,
				Interval: iv,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Periodic detection (rather than POST /v1/detect) so no HTTP request
	// hangs on the running detection during shutdown.
	d := startDaemon(t, bin, "-graph", base, "-threshold", "0.5", "-seed", "3",
		"-store-dir", storeDir, "-detect-every", "50ms")
	if !strings.Contains(d.outputString(), "recovered") {
		t.Fatalf("daemon did not recover the journal; output:\n%s", d.outputString())
	}

	d.waitStats(t, "a detection to go in flight", func(st daemonStats) bool { return st.DetectInflight })

	if code := d.terminate(t); code != 130 {
		t.Fatalf("interrupted shutdown exited %d, want 130; output:\n%s", code, d.outputString())
	}
	if !strings.Contains(d.outputString(), "interrupted") {
		t.Fatalf("missing interruption notice; output:\n%s", d.outputString())
	}
}
