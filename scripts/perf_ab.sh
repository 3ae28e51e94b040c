#!/usr/bin/env bash
# A/B comparison of the repository benchmark between a parent revision and
# the working tree.
#
#   scripts/perf_ab.sh -w echo-64 [-n 10] [-s 20] [-S 4] [-t] [-k] [PARENT_REV]
#
# Exports PARENT_REV (default HEAD) and the working tree (tracked and
# untracked, non-ignored files, uncommitted edits included) into two
# directories under a fresh temporary directory, then runs N alternating
# pairs of `perfbench/run.py --workload W --seed S --seconds T --trace 0`,
# one process at a time: odd pairs run the parent first, even pairs the
# change first. Each checkout builds its own benchmark (run.py builds into
# .bench_build/ inside that checkout). For every metric of the result line
# it prints both medians, both quartiles, their ratio and in how many pairs
# the change was better, using the direction declared in BENCHMARK.json.
# It prints the same for the side figures of each run's text report that
# tell a calibration effect from a slower workload: plain ops_per_s, the
# op_wall_us_p50/p99 latencies and the reference kernel's kernel_us_mean
# (their directions are set below; traced runs report none), and
# max_rss_mib, the peak resident set of the bench.exe process alone: each
# checkout is built first, then run.py runs with its build step skipped
# under a small wrapper that reads getrusage(RUSAGE_CHILDREN), whose only
# child is then bench.exe. With -t the pairs run with --trace 1 instead,
# and it prints, per layer, both medians of self_ns_per_op and of
# minor_words_per_op, plus how many of the runs' replay checks read ok
# (a failed check already stops the script).
# The raw result lines and text reports are kept in the temporary
# directory with -k and deleted otherwise. Nothing in the repository is modified.
set -euo pipefail

pairs=10
seconds=20
seed=4
workload=""
trace=0
keep=0
usage() {
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0" >&2
  exit 2
}
while getopts "w:n:s:S:tkh" opt; do
  case "$opt" in
    w) workload=$OPTARG ;;
    n) pairs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    S) seed=$OPTARG ;;
    t) trace=1 ;;
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

# Builds the checkout in the current directory with run.py's own build
# step, so that the measured run below starts no dune.
build_py='import sys; sys.path.insert(0, "perfbench"); import run; run.build()'
# Runs run.py with its build step skipped (argv: rss file, then run.py's
# arguments) and appends bench.exe's peak RSS in KiB to the rss file:
# bench.exe is this process's only child.
measure_py='
import resource, sys
sys.path.insert(0, "perfbench")
import run
rss_file = sys.argv[1]
sys.argv = ["perfbench/run.py"] + sys.argv[2:]
run.build = lambda: None
try:
    run.main()
finally:
    with open(rss_file, "a") as f:
        f.write(f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}\n")
'

fail() { # side step
  echo "perf_ab: $1 $2 failed; see $tmp/$1.stderr" >&2
  keep=1
  trap - EXIT
  exit 1
}

run_one() { # side
  local out
  out=$(cd "$tmp/$1" && python3 -c "$measure_py" "$tmp/$1.rss" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace "$trace" 2>>"$tmp/$1.stderr") || fail "$1" run
  printf '%s\n' "$out" | tail -n 1 >>"$tmp/$1.jsonl"
  printf '%s\n' "$out" | sed '$d' >>"$tmp/$1.reports"
  printf '%s\n' "$out" | { grep '^ *check:' || true; } >>"$tmp/$1.checks"
}

echo "perf_ab: $workload seed $seed trace $trace, $pairs pairs of ${seconds}s, parent ${parent_sha:0:12} vs working tree" >&2
for side in parent change; do
  (cd "$tmp/$side" && python3 -c "$build_py" 2>>"$tmp/$side.stderr") || fail "$side" build
done
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do run_one "$side"; done
  echo "perf_ab: pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$tmp" "$trace" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
tmp, trace = sys.argv[2], sys.argv[3] == "1"
better = {m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
# Side figures of the text report, which BENCHMARK.json does not declare.
# ops_per_s is uncalibrated throughput; the op latencies are wall-clock
# per operation; kernel_us_mean is the time of one run of the reference
# kernel that cal_ops_per_s divides by, so a lower one with a flat
# ops_per_s is the machine or heap, not the workload, getting faster.
# max_rss_mib is bench.exe's peak resident set, from the wrapper's file.
side = {"ops_per_s": "higher", "op_wall_us_p50": "lower", "op_wall_us_p99": "lower",
        "kernel_us_mean": "lower", "max_rss_mib": "lower"}
better.update(side)
load = lambda p: [json.loads(l)["metrics"] for l in open(p) if l.strip()]
parent, change = load(f"{tmp}/parent.jsonl"), load(f"{tmp}/change.jsonl")

def reports(side_name):
    """Each run's side figures, from its text report: every run starts
    with a `workload` line, and a figure is an indented `name value` line.
    The peak RSS of each run is one KiB line of the rss file, in run order."""
    runs = []
    for line in open(f"{tmp}/{side_name}.reports"):
        words = line.split()
        if line.startswith("workload "):
            runs.append({})
        elif len(words) >= 2 and words[0] in side:
            runs[-1][words[0]] = {"value": float(words[1])}
    for run, kib in zip(runs, open(f"{tmp}/{side_name}.rss")):
        run["max_rss_mib"] = {"value": int(kib) / 1024}
    return runs

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def row(label, name, width, parent=parent, change=change):
    p = [r[name]["value"] for r in parent]
    c = [r[name]["value"] for r in change]
    hi = better.get(name, "higher") == "higher"
    wins = sum((y > x) if hi else (y < x) for x, y in zip(p, c))
    pq, cq = quart(p), quart(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    print(f"{label:<{width}} {fmt(pq):>32} {fmt(cq):>32} {ratio:>7.3f} {wins:>3}/{len(p)}")

head = lambda first, width: print(
    f"{first:<{width}} {'parent med [q1, q3]':>32} {'change med [q1, q3]':>32} {'ratio':>7} {'wins':>6}")

if not trace:
    head("metric", 22)
    for name in parent[0]:
        row(name, name, 22)
    p_side, c_side = reports("parent"), reports("change")
    print()
    head("side figure", 22)
    for name in side:
        row(name, name, 22, p_side, c_side)
else:
    # Layers that ran in this workload: a span with calls on either side.
    suffix = ".self_ns_per_op"
    layers = [n[: -len(suffix)] for n in parent[0] if n.endswith(suffix)]
    ran = lambda l: any(r[f"{l}.calls_per_op"]["value"] > 0 for r in parent + change)
    layers = [l for l in layers if ran(l)]
    for metric in ("self_ns_per_op", "minor_words_per_op"):
        head(f"layer {metric}", 30)
        for l in layers:
            row(l, f"{l}.{metric}", 30)
        print()
    for side in ("parent", "change"):
        checks = [l for l in open(f"{tmp}/{side}.checks") if l.strip()]
        ok = sum(l.split()[-1] == "ok" for l in checks)
        print(f"{side} replay checks: {ok}/{len(checks)} ok")
EOF
