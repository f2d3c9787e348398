#!/usr/bin/env bash
# Interleaved base/change pairs of the repository benchmark.  Run from the
# repository root:
#
#   scripts/benchpairs.sh BASE WORKLOAD PAIRS SECONDS [SEED]
#
# BASE is any git revision.  Its committed files are extracted into a
# temporary directory, and `bash perfbench/run.sh` runs PAIRS times there and
# PAIRS times in the working tree, alternating which side of a pair runs
# first, every run at the given workload, run length and seed (default 1).
# For each end-to-end metric BENCHMARK.json declares, the script prints both
# sides' median and quartiles, how many pairs the working tree won (ties
# count for neither), and whether the gain rule holds: the working tree wins
# at least nine tenths of the pairs, and its median beats the base median by
# more than the distance between the base runs' quartiles.  Exit status is 1
# when any run reports incorrect output, 2 on a usage error.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: scripts/benchpairs.sh BASE WORKLOAD PAIRS SECONDS [SEED]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seconds=$4 seed=${5:-1}
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
results="$tmp/results"

# run SIDE DIR appends "SIDE <json>" for one benchmark run in DIR.
run() {
	local line
	line=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 | tail -n 1)
	echo "$1 $line" >> "$results"
	echo "pair $i $1: $line" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run base "$tmp/base"
		run change "$root"
	else
		run change "$root"
		run base "$tmp/base"
	fi
done

python3 - "$root/BENCHMARK.json" "$results" "$base" "$workload" "$seed" <<'PY'
import json, sys

spec_path, results_path, base, workload, seed = sys.argv[1:]
metrics = json.load(open(spec_path))["end_to_end"]
runs = {"base": [], "change": []}
for line in open(results_path):
    side, payload = line.split(" ", 1)
    runs[side].append(json.loads(payload))

def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

pairs = len(runs["base"])
print(f"benchpairs: {workload} seed {seed}, {pairs} pairs, base {base} vs working tree")
bad = False
for side in ("base", "change"):
    attempted = sum(r["attempted"] for r in runs[side])
    failed = sum(r["failed"] for r in runs[side])
    correct = all(r["correct"] for r in runs[side])
    bad = bad or not correct
    print(f"  {side:6} correct={str(correct).lower()} failed={failed}/{attempted}")
print(f"  {'metric':12} {'base p25/p50/p75':>26} {'change p25/p50/p75':>26} {'wins':>6}  gain")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
    bq = [quantile(b, q) for q in (0.25, 0.5, 0.75)]
    cq = [quantile(c, q) for q in (0.25, 0.5, 0.75)]
    better = (bq[1] - cq[1]) if lower else (cq[1] - bq[1])
    gain = wins * 10 >= 9 * pairs and better > bq[2] - bq[0]
    fmt = lambda q: "/".join(f"{v:.3f}" for v in q)
    print(f"  {name:12} {fmt(bq):>26} {fmt(cq):>26} {wins:>3}/{pairs:<2}  {'yes' if gain else 'no'}")
sys.exit(1 if bad else 0)
PY
