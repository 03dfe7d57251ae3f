#!/usr/bin/env sh
# Regenerates the adversary/defense matrix (cmd/experiments -run matrix)
# and enforces its floor criteria against the committed baseline
# results/MATRIX.json:
#
#   - per-cell floor: no (strategy, defense) cell's recall at the pinned
#     precision may drop more than 0.02 below the committed baseline;
#   - ensemble improvement: the calibrated ensemble's recall must never be
#     below the rejecto-only defense's on any strategy, and must be strictly
#     above it, at equal-or-better precision, on compromise — the one
#     strategy the committed baseline shows Rejecto alone losing (0.22
#     against the ensemble's 0.92).
#
# The run is fully seeded, so cells only move when detection or game code
# changes. After an intentional change: UPDATE=1 scripts/bench_matrix.sh
# rewrites the baseline.
#
# Usage: scripts/bench_matrix.sh
set -eu
cd "$(dirname "$0")/.."

BASELINE="results/MATRIX.json"
FRESH="$(mktemp)"
trap 'rm -f "$FRESH"' EXIT

go run ./cmd/experiments -run matrix -matrix-out "$FRESH"

if [ "${UPDATE:-0}" = "1" ]; then
	mkdir -p results
	cp "$FRESH" "$BASELINE"
	echo "updated $BASELINE"
	exit 0
fi

python3 - "$BASELINE" "$FRESH" <<'PY'
import json, sys

MAX_DROP = 0.02
MUST_IMPROVE = 'compromise'

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)

def cells(m):
    return {(c['strategy'], c['defense']): c for c in m['cells']}

bc, fc = cells(base), cells(fresh)
failures = []

missing = set(bc) - set(fc)
if missing:
    failures.append(f"cells missing from fresh run: {sorted(missing)}")

for key in sorted(set(bc) & set(fc)):
    drop = bc[key]['recall'] - fc[key]['recall']
    if drop > MAX_DROP + 1e-9:
        failures.append(
            f"cell {key}: recall {fc[key]['recall']:.3f} dropped "
            f"{drop:.3f} below baseline {bc[key]['recall']:.3f} (floor {MAX_DROP})")

improved = []
strategies = sorted({s for s, _ in fc})
for s in strategies:
    ens, rej = fc.get((s, 'ensemble')), fc.get((s, 'rejecto'))
    if not (ens and rej):
        continue
    if ens['recall'] < rej['recall'] - 1e-9:
        failures.append(
            f"ensemble recall {ens['recall']:.3f} below rejecto-only "
            f"{rej['recall']:.3f} on {s}")
    if ens['recall'] > rej['recall'] and ens['precision'] >= rej['precision']:
        improved.append(s)
if MUST_IMPROVE not in improved:
    failures.append(
        f"ensemble no longer strictly improves recall over rejecto on {MUST_IMPROVE}")

print(f"matrix check: {len(set(bc) & set(fc))} cells compared, "
      f"ensemble never below rejecto, strictly above on {improved}")
if failures:
    for f_ in failures:
        print(f"FAIL: {f_}", file=sys.stderr)
    sys.exit(1)
print("PASS")
PY
