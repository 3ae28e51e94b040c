#!/usr/bin/env bash
# Sampling CPU profile of one benchmark workload, by function.
#
#   scripts/profile.sh WORKLOAD [SECONDS]
#
# Builds perfbench/bench.exe as perfbench/run.py does (release profile,
# into .bench_build/), then runs it once (`--seed 1 --trace 0`, SECONDS
# default 10) under a small LD_PRELOAD sampler: setitimer(ITIMER_PROF)
# interrupts this one process every millisecond of its CPU time and the
# handler records the interrupted instruction pointer; at exit the
# sampler writes them with the executable's load base. The script maps
# each sample to the enclosing symbol of `nm` and prints the top 30
# functions by share of samples, plus the share outside the executable
# (libc, the kernel's vDSO).
#
# The samples cover the whole process: set-up, the calibration runs of
# the reference kernel, the measured window and the sort of the latency
# samples after it, so a function's share is of all of them, not of the
# window alone. Needs gcc and nm; no perf, no privileges. Temporary
# files go under ${TMPDIR:-/tmp} and are removed.
set -euo pipefail

[ $# -ge 1 ] && [ $# -le 2 ] || {
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0" >&2
  exit 2
}
workload=$1
seconds=${2:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build/dune"
exe="$build/default/perfbench/bench.exe"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$build"
DUNE_CACHE=disabled XDG_CACHE_HOME="$root/.bench_build/cache" \
  dune build --root "$root" --build-dir "$build" --profile release ./perfbench/bench.exe >&2

cat >"$tmp/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static uintptr_t samples[MAX_SAMPLES];
static volatile long n_samples;
static uintptr_t base;
static int base_set;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig; (void)si;
  if (n_samples < MAX_SAMPLES)
    samples[n_samples++] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

/* The first object dl_iterate_phdr reports is the executable. */
static int find_base(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size; (void)data;
  if (!base_set) { base = info->dlpi_addr; base_set = 1; }
  return 1;
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  dl_iterate_phdr(find_base, NULL);
  const char *path = getenv("CIO_PROFILE_OUT");
  FILE *f = path ? fopen(path, "w") : NULL;
  if (!f) return;
  fprintf(f, "base %lx\n", (unsigned long)base);
  for (long i = 0; i < n_samples; i++) fprintf(f, "%lx\n", (unsigned long)samples[i]);
  fclose(f);
}
EOF
gcc -O2 -shared -fPIC -o "$tmp/sampler.so" "$tmp/sampler.c"

(cd "$root" && CIO_PROFILE_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" \
  "$exe" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$tmp/bench.out")
nm --defined-only "$exe" >"$tmp/symbols"

python3 - "$tmp/samples" "$tmp/symbols" "$workload" <<'EOF'
import bisect, collections, sys

samples_path, symbols_path, workload = sys.argv[1:]
lines = open(samples_path).read().split()
base = int(lines[1], 16)
pcs = [int(x, 16) - base for x in lines[2:]]
syms = sorted(
    (int(addr, 16), name)
    for addr, kind, name in (l.split() for l in open(symbols_path) if len(l.split()) == 3)
    if kind in "tTwW"
)
addrs = [a for a, _ in syms]
counts = collections.Counter()
for pc in pcs:
    i = bisect.bisect_right(addrs, pc) - 1
    counts[syms[i][1] if i >= 0 and pc - addrs[i] < (1 << 20) else "[outside the executable]"] += 1
total = len(pcs)
print(f"{workload}: {total} samples (1 ms of CPU time each)")
for name, n in counts.most_common(30):
    print(f"{100.0 * n / total:6.2f}%  {name}")
EOF
