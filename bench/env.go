package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envBlock records where a result came from, as ROADMAP asks of every
// benchmark file: the SUT configuration, the commit, and the machine.
type envBlock struct {
	Config  string `json:"config"`
	Commit  string `json:"commit"`
	Machine string `json:"machine"`
}

func describeEnv() envBlock {
	return envBlock{
		Config: fmt.Sprintf("ws(n=%d,k=8,beta=0.1) segmented-store incremental multilevel snapshot-every=%d queue=%d threshold=0.5 | sharded: %d shards on %d workers",
			fullScaleNodes, sutSnapshotEvery, sutQueueSize, sutShards, sutWorkers),
		Commit: commit(),
		Machine: fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel()),
	}
}

// commit is `git rev-parse HEAD` plus a dirty flag, or "unknown" where
// the benchmark runs outside a git checkout (as under the PR driver).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
