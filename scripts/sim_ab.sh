#!/usr/bin/env bash
# A/B check that a change leaves every simulated result byte-identical.
#
#   scripts/sim_ab.sh [-k] [PARENT_REV]
#
# Exports PARENT_REV (default HEAD) and the working tree (tracked and
# untracked, non-ignored files, uncommitted edits included) into two
# directories under a fresh temporary directory and builds cio_sim,
# cio_lint and the examples in each. In both trees it then captures:
#
#   all            `cio_sim all` (every experiment, TCB rows included)
#   campaign       `cio_sim campaign --json` stdout and its JSON report
#   trace-e2       `cio_sim trace e2` stdout and its Chrome trace JSON
#   trace-e16      `cio_sim trace e16` stdout and its Chrome trace JSON
#   lint           `cio_lint --json` with line numbers stripped
#   examples       stdout of every `examples/*.exe`, one after another
#
# It prints a unified diff for every capture that differs and exits 1 if
# any does, 0 otherwise. The simulator is deterministic, so any
# difference is a behaviour change. With -k the temporary directory is
# kept. Nothing in the repository is modified.
set -euo pipefail

keep=0
usage() {
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0" >&2
  exit 2
}
while getopts "kh" opt; do
  case "$opt" in
    k) keep=1 ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[ $# -le 1 ] || usage
parent_rev=${1:-HEAD}

root=$(git rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sim_ab.XXXXXX")
if [ "$keep" = 1 ]; then
  echo "sim_ab: keeping $tmp" >&2
else
  trap 'rm -rf "$tmp"' EXIT
fi

mkdir -p "$tmp/parent" "$tmp/change"
git -C "$root" archive "$parent_sha" | tar -x -C "$tmp/parent"
# Tracked files deleted in the working tree are skipped.
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$tmp/change"

captures="all campaign campaign-json trace-e2 trace-e16 lint examples"

capture() { # side
  local dir="$tmp/$1" out="$tmp/$1.out"
  mkdir -p "$out"
  echo "sim_ab: building and running $1" >&2
  local examples ex
  examples=$(cd "$dir/examples" && ls -- *.ml | sed 's/\.ml$//')
  (cd "$dir" && dune build --root . ./bin/cio_sim.exe ./bin/cio_lint.exe \
    $(for ex in $examples; do echo "./examples/$ex.exe"; done) 2>"$out/build.stderr")
  local sim="$dir/_build/default/bin/cio_sim.exe" lint="$dir/_build/default/bin/cio_lint.exe"
  (cd "$dir" \
    && "$sim" all >"$out/all" \
    && { "$sim" campaign --json campaign.json >"$out/campaign" || true; } \
    && cp campaign.json "$out/campaign-json" \
    && { "$sim" trace e2 -o trace-e2.json && cat trace-e2.json; } >"$out/trace-e2" \
    && { "$sim" trace e16 -o trace-e16.json && cat trace-e16.json; } >"$out/trace-e16" \
    && { "$lint" --json || true; } | sed -E -e 's/"line":[0-9]+/"line":_/g' -e 's/\},\{/},\n{/g' >"$out/lint")
  (cd "$dir" && for ex in $examples; do
    echo "== examples/$ex"
    "$dir/_build/default/examples/$ex.exe"
  done) >"$out/examples"
}

capture parent
capture change

status=0
for c in $captures; do
  if diff -u --label "parent/$c" --label "change/$c" "$tmp/parent.out/$c" "$tmp/change.out/$c"; then
    echo "sim_ab: $c identical" >&2
  else
    status=1
  fi
done
[ "$status" = 0 ] && echo "sim_ab: no difference against ${parent_sha:0:12}" >&2
exit "$status"
