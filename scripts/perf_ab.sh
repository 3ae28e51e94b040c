#!/usr/bin/env bash
# A/B comparison of the repository benchmark between a parent revision and
# the working tree.
#
#   scripts/perf_ab.sh -w echo-64 [-n 10] [-s 20] [-S 4] [-k] [PARENT_REV]
#
# Exports PARENT_REV (default HEAD) and the working tree (tracked and
# untracked, non-ignored files, uncommitted edits included) into two
# directories under a fresh temporary directory, then runs N alternating
# pairs of `perfbench/run.py --workload W --seed S --seconds T --trace 0`,
# one process at a time: odd pairs run the parent first, even pairs the
# change first. Each checkout builds its own benchmark (run.py builds into
# .bench_build/ inside that checkout). For every metric of the result line
# it prints both medians, both quartiles and in how many pairs the change
# was better, using the direction declared in BENCHMARK.json. The raw
# result lines are kept in the temporary directory with -k and deleted
# otherwise. Nothing in the repository is modified.
set -euo pipefail

pairs=10
seconds=20
seed=4
workload=""
keep=0
usage() {
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0" >&2
  exit 2
}
while getopts "w:n:s:S:kh" opt; do
  case "$opt" in
    w) workload=$OPTARG ;;
    n) pairs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    S) seed=$OPTARG ;;
    k) keep=1 ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[ -n "$workload" ] || usage
[ $# -le 1 ] || usage
parent_rev=${1:-HEAD}

root=$(git rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
if [ "$keep" = 1 ]; then
  echo "perf_ab: keeping $tmp" >&2
else
  trap 'rm -rf "$tmp"' EXIT
fi

mkdir -p "$tmp/parent" "$tmp/change"
git -C "$root" archive "$parent_sha" | tar -x -C "$tmp/parent"
# Tracked files deleted in the working tree are skipped.
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$tmp/change"

run_one() { # side
  local out
  if ! out=$(cd "$tmp/$1" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>>"$tmp/$1.stderr" | tail -n 1); then
    echo "perf_ab: $1 run failed; see $tmp/$1.stderr" >&2
    keep=1
    trap - EXIT
    exit 1
  fi
  printf '%s\n' "$out" >>"$tmp/$1.jsonl"
}

echo "perf_ab: $workload seed $seed, $pairs pairs of ${seconds}s, parent ${parent_sha:0:12} vs working tree" >&2
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do run_one "$side"; done
  echo "perf_ab: pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$tmp/parent.jsonl" "$tmp/change.jsonl" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
better = {m["name"]: m["better"] for m in bench.get("end_to_end", [])}
load = lambda p: [json.loads(l)["metrics"] for l in open(p) if l.strip()]
parent, change = load(sys.argv[2]), load(sys.argv[3])

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':<22} {'parent med [q1, q3]':>32} {'change med [q1, q3]':>32} {'ratio':>7} {'wins':>6}")
for name in parent[0]:
    p = [r[name]["value"] for r in parent]
    c = [r[name]["value"] for r in change]
    hi = better.get(name, "higher") == "higher"
    wins = sum((y > x) if hi else (y < x) for x, y in zip(p, c))
    pq, cq = quart(p), quart(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    print(f"{name:<22} {fmt(pq):>32} {fmt(cq):>32} {ratio:>7.3f} {wins:>3}/{len(p)}")
EOF
