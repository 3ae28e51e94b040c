#!/usr/bin/env python3
"""Compare a fresh bench run against the committed baseline.

Usage: check_bench_baseline.py CURRENT.json BASELINE.json [--strict]

Both files are cio-bench-v1 JSON as written by `bench/main.exe --json`.
Three checks:

- experiment text: every experiment's `output` must equal the
  baseline's byte for byte (exit 1 with a unified diff otherwise). The
  outputs are deterministic simulated-cycle tables, so any drift is a
  behaviour change. Skipped with a warning when the two runs differ in
  `smoke`, since smoke and full runs size their workloads differently.
- micro timings: the `micro_ns_per_run` entries whose names start with
  "cio/cionet" warn when more than 10% slower than the baseline (exit 1
  with --strict). The Bechamel runs are time-boxed, so two runs of the
  same tree already differ. A run's `metrics` section is not compared,
  and the baseline keeps none: those counts depend on how long each
  time-boxed micro ran.
- batching win: a burst micro of depth d warns (exit 1 with --strict)
  unless it costs less per frame than its single-slot counterpart. The
  gate on this property is test_shapes' `E21 shape: burst amortizes`,
  which compares guest cycles per frame; wall-clock ns on a shared
  machine can invert the order between two runs of the same tree.

Always fails on a malformed file.
"""

import difflib
import json
import os
import re
import sys

SLOWDOWN_TOLERANCE = 1.10
PREFIX = "cio/cionet"


def load(path, optional=False):
    """Parse a cio-bench-v1 file into (doc, {micro_name: ns_per_run}).

    A missing *optional* file (the committed baseline on a branch that
    has not generated one yet) returns None so the caller can skip the
    comparison with a warning instead of a traceback. Anything else that
    is wrong — unreadable file, malformed JSON, wrong schema — is still
    a hard error: a corrupt baseline should fail loudly, not silently
    pass the gate.
    """
    if optional and not os.path.exists(path):
        print(f"warning: {path}: baseline file not found; skipping comparison")
        return None
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != "cio-bench-v1":
        sys.exit(f"error: {path}: not a cio-bench-v1 file")
    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list) or not all(
        isinstance(e, dict) and isinstance(e.get("id"), str)
        and isinstance(e.get("output"), str) for e in experiments
    ):
        sys.exit(f"error: {path}: experiments is not a list of {{id, output}} objects")
    micro = doc.get("micro_ns_per_run", {})
    if not isinstance(micro, dict):
        sys.exit(f"error: {path}: micro_ns_per_run is not an object")
    out = {}
    for k, v in micro.items():
        if not k.startswith(PREFIX):
            continue
        try:
            out[k] = float(v)
        except (TypeError, ValueError):
            print(f"warning: {path}: {k}: non-numeric value {v!r}; skipping")
    return doc, out


def check_experiment_text(current_doc, baseline_doc):
    """Fail on any experiment whose output differs from the baseline."""
    if current_doc.get("smoke") != baseline_doc.get("smoke"):
        print("warning: smoke flag differs from the baseline;"
              " experiment text comparison skipped")
        return 0
    current = {e["id"]: e["output"] for e in current_doc.get("experiments", [])}
    errors = 0
    for e in baseline_doc.get("experiments", []):
        eid, base = e["id"], e["output"]
        if eid not in current:
            print(f"error: experiment {eid}: in baseline but missing from this run")
            errors += 1
        elif current[eid] != base:
            print(f"error: experiment {eid}: output differs from the baseline:")
            sys.stdout.writelines(difflib.unified_diff(
                base.splitlines(keepends=True),
                current[eid].splitlines(keepends=True),
                fromfile=f"baseline/{eid}", tofile=f"current/{eid}"))
            errors += 1
        else:
            print(f"ok: experiment {eid}: output matches the baseline")
    baseline_ids = {e["id"] for e in baseline_doc.get("experiments", [])}
    for eid in sorted(set(current) - baseline_ids):
        print(f"note: experiment {eid}: not in baseline; comparison skipped")
    return errors


def check_regressions(current, baseline):
    warnings = 0
    for name in sorted(baseline):
        if name not in current:
            print(f"warning: {name}: in baseline but missing from this run"
                  " (renamed or deleted micro?)")
            warnings += 1
            continue
        base, cur = baseline[name], current[name]
        if base <= 0:
            continue
        ratio = cur / base
        if ratio > SLOWDOWN_TOLERANCE:
            print(
                f"warning: {name}: {cur:.0f} ns/run vs baseline {base:.0f}"
                f" ({(ratio - 1) * 100:.1f}% slower)"
            )
            warnings += 1
        else:
            print(f"ok: {name}: {cur:.0f} ns/run (baseline {base:.0f})")
    for name in sorted(set(current) - set(baseline)):
        # A new micro is not a regression: it gets a baseline entry the
        # next time BENCH_baseline.json is regenerated.
        print(f"note: {name}: {current[name]:.0f} ns/run, new micro"
              " (not in baseline; comparison skipped)")
    return warnings


def check_batching_wins(current):
    """Burst micros should beat single-slot per frame: the whole point
    of the batched datapath. cio/cionet-burst-d16-inline amortizes over
    16 frames of the same roundtrip that cio/cionet-inline does once.
    Reported as warnings like the other timings; the deterministic gate
    is the cycle-count shape test."""
    warnings = 0
    burst_re = re.compile(rf"^{re.escape(PREFIX)}-burst-d(\d+)-(\w+)$")
    for name, ns in sorted(current.items()):
        m = burst_re.match(name)
        if not m:
            continue
        depth, variant = int(m.group(1)), m.group(2)
        single = current.get(f"{PREFIX}-{variant}")
        if single is None or single <= 0:
            continue
        per_frame = ns / depth
        if per_frame >= single:
            print(
                f"warning: {name}: {per_frame:.0f} ns/frame at depth {depth}"
                f" is not below single-slot {single:.0f}"
            )
            warnings += 1
        else:
            print(
                f"ok: {name}: {per_frame:.0f} ns/frame < single-slot {single:.0f}"
            )
    return warnings


def main(argv):
    strict = "--strict" in argv
    args = [a for a in argv if a != "--strict"]
    if len(args) != 2:
        sys.exit(__doc__.strip())
    current_doc, current = load(args[0])
    loaded = load(args[1], optional=True)
    if not current:
        sys.exit(f"error: {args[0]}: no {PREFIX} micros (run bench with micros enabled)")
    if loaded is None:
        # No baseline to compare against: still run the self-contained
        # batching check, which needs only the current run.
        if check_batching_wins(current) and strict:
            sys.exit(1)
        print("bench baseline check passed (no baseline file; comparison skipped)")
        return
    baseline_doc, baseline = loaded
    errors = check_experiment_text(current_doc, baseline_doc)
    warnings = check_regressions(current, baseline)
    warnings += check_batching_wins(current)
    if errors:
        sys.exit(1)
    if warnings:
        print(f"{warnings} timing warning(s)")
        if strict:
            sys.exit(1)
    print("bench baseline check passed")


if __name__ == "__main__":
    main(sys.argv[1:])
