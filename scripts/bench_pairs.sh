#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a parent revision:
#
#   scripts/bench_pairs.sh <parent-rev> [workload seed seconds pairs]
#
# Defaults: dist_tcp, seed 1, 40-s runs, 10 pairs.  The parent is exported
# with `git archive` into .bench_build/parent-<sha>/, and both trees are built
# by perfbench/run.py.  Each pair runs both sides back to back, alternating
# which one goes first so host drift does not favour a side.  At the end it
# prints, per end-to-end metric of BENCHMARK.json, the median [q1, q3] of
# each side and the number of pairs the working tree won.
#
# It refuses to run when perfbench/ or BENCHMARK.json differ between the two
# trees: the benchmark itself must be the same on both sides.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 5 ]; then
  echo "usage: $0 <parent-rev> [workload seed seconds pairs]" >&2
  exit 2
fi
rev="$1"
workload="${2:-dist_tcp}"
seed="${3:-1}"
seconds="${4:-40}"
pairs="${5:-10}"

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
sha="$(git rev-parse --verify "$rev^{commit}")"

if ! git diff --quiet "$sha" -- perfbench BENCHMARK.json ||
   [ -n "$(git status --porcelain -- perfbench BENCHMARK.json)" ]; then
  echo "$0: perfbench/ or BENCHMARK.json differ from $rev; refusing" >&2
  exit 2
fi

parent="$root/.bench_build/parent-$sha"
if [ ! -f "$parent/BENCHMARK.json" ]; then
  mkdir -p "$parent"
  git archive "$sha" | tar -x -C "$parent"
fi

out="$root/.bench_build/pairs-$workload-s$seed"
mkdir -p "$out"
rm -f "$out"/*.json

run() {  # side tree index
  local side="$1" tree="$2" i="$3"
  local res
  res="$(python3 "$tree/perfbench/run.py" --workload "$workload" \
           --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
  echo "$res" > "$out/$side-$i.json"
  echo "pair $i $side: $res" | cut -c1-200 >&2
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$root" "$i"
  else
    run change "$root" "$i"
    run parent "$parent" "$i"
  fi
done

python3 - "$out" "$pairs" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys
out, pairs, bench = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))

def load(side, i):
    return json.load(open(f"{out}/{side}-{i}.json"))

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 \
        else [xs[0]] * 3
    return q[1], q[0], q[2]

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
print(f"{pairs} pairs; failed frames: parent {failed['parent']}, "
      f"change {failed['change']}")
print(f"{'metric':<18} {'parent median [q1, q3]':>34} "
      f"{'change median [q1, q3]':>34} {'change':>8} {'wins':>6}")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    p, c = quartiles(vals["parent"]), quartiles(vals["change"])
    wins = sum((b < a) if lower else (b > a)
               for a, b in zip(vals["parent"], vals["change"]))
    delta = (c[0] - p[0]) / p[0] if p[0] else float("nan")
    fmt = lambda q: f"{q[0]:.4g} [{q[1]:.4g}, {q[2]:.4g}]"
    print(f"{name:<18} {fmt(p):>34} {fmt(c):>34} {delta:>+8.1%} "
          f"{wins:>3}/{pairs}")
EOF
