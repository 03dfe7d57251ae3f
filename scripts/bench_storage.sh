#!/usr/bin/env sh
# Runs the restart/recovery benchmarks (internal/server BenchmarkRestart)
# and emits BENCH_storage.json at the repo root: time-to-serving after a
# process restart of the segmented store with no snapshot (replay every
# segment, re-fold the journal) vs with a 99%-coverage snapshot carrying
# the frozen read model and the engine memo, at 10^5 and 10^6 journaled
# events.
#
# The acceptance criterion is checked here and the script fails if it does
# not hold: at 10^6 events the snapshot restart must be at least
# REQUIRED_SPEEDUP times faster than the segment replay. The floor is half
# the ratio measured when this file was last regenerated, so a CI runner's
# noise passes and losing the O(delta) restart does not.
#
# Usage: scripts/bench_storage.sh [benchtime]   (default 3x)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-3x}"
REQUIRED_SPEEDUP=2.5
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test ./internal/server/ -run NONE \
	-bench 'BenchmarkRestart/snapshot=(none|99pct)/events=[0-9]+' \
	-benchtime "$BENCHTIME" -count 1 -timeout 30m | tee "$tmp"

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
[ -z "$(git status --porcelain 2>/dev/null)" ] || commit="$commit+dirty"

python3 - "$tmp" "$BENCHTIME" "$REQUIRED_SPEEDUP" "$commit" "$(go version)" "$(nproc)" <<'PY' > BENCH_storage.json
import json, re, sys

path, benchtime, required, commit, goversion, nproc = sys.argv[1:7]
required = float(required)
rows = {}
for line in open(path):
    m = re.match(r'BenchmarkRestart/snapshot=(none|99pct)/events=(\d+)\S*\s+\d+\s+([0-9.e+]+)\s+ns/op', line)
    if not m:
        continue
    leg, events, ns = m.group(1), int(m.group(2)), float(m.group(3))
    rows.setdefault(events, {})[leg] = ns

sizes = []
for events in sorted(rows):
    replay = rows[events].get('none')
    snap = rows[events].get('99pct')
    entry = {
        'events': events,
        'segment_replay_restart_ns': replay,
        'snapshot_restart_ns': snap,
    }
    if replay and snap:
        entry['speedup'] = round(replay / snap, 2)
    sizes.append(entry)

achieved = max((e.get('speedup', 0) for e in sizes if e['events'] >= 1_000_000),
               default=0)
out = {
    'benchmark': 'internal/server BenchmarkRestart (segmented store: segment replay vs 99% snapshot + engine memo)',
    'config': {
        'benchtime': benchtime,
        'snapshot_coverage': 0.99,
        'users': 5000,
        'intervals': 4,
        'segment_bytes': 'default (4 MiB)',
    },
    'commit': commit,
    'machine': {'nproc': int(nproc), 'go': goversion},
    'sizes': sizes,
    'criterion': {
        'required_speedup': required,
        'at_events': 1_000_000,
        'achieved_speedup': achieved,
        'pass': achieved >= required,
    },
}
json.dump(out, sys.stdout, indent=2)
print()
if not out['criterion']['pass']:
    print(f"FAIL: restart speedup {achieved}x at 10^6 events, need >={required}x", file=sys.stderr)
    sys.exit(1)
PY

echo "wrote BENCH_storage.json"
