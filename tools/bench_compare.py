#!/usr/bin/env python3
"""Perf-trajectory regression gate.

Compares a fresh bench_runner output against a checked-in baseline
(BENCH_hotpath.json / BENCH_server.json at the repo root) and exits
non-zero on regression. See EXPERIMENTS.md "Perf trajectory" for the
schema and the baseline-update policy.

Two modes:

  absolute (default)
      Every benchmark series (matched on name+simd) must hold
      ops_per_s within --threshold (default 10%) of the baseline.
      Only meaningful when baseline and current ran on comparable
      hardware -- a developer box against its own previous run.

  --ratios-only
      Only the "derived" ratios (SIMD speedup over scalar, durable
      overhead, thread scaling) and the baseline's "floors" are
      enforced. Ratios divide out the host's absolute speed, so this
      is the mode CI uses on anonymous runners.

Each derived ratio has a direction (_DIRECTION below; higher is
better unless listed). A higher-is-better ratio must stay
>= baseline x (1 - threshold); a lower-is-better one must stay
<= baseline x (1 + threshold), so making it smaller never fails.

In both modes the "floors" object in the *baseline* file is enforced
against the *current* derived ratios (e.g. the SIMD challenge
evaluation must stay >= 2x over scalar) -- unless the current run detected
a CPU without the wide instruction set (SIMD speedup floors assume the
baseline's detected_simd is available).

Also in both modes, every pass/fail property in the "gates" object
(JSON bools) must be true in the current run, and no gate of the
baseline may be missing from it.

Both files are validated first; a malformed file exits 2, before any
comparison:
  - the header keys schema (string), quick (bool) and detected_simd
    (string) are present;
  - each "benchmarks" series has a string name and simd and a numeric
    ops_per_s;
  - every "derived" and "floors" value is a number (not a bool);
  - every "gates" value is a bool.

A pair whose "quick" headers differ also exits 2 when the baseline
has "derived" or "floors" values: a ratio measured at one run size
says nothing about a run of the other size. A baseline with gates
only (transport, heartbeat) is still compared, with a note, since
each gate is a property the run must hold at any size.

Usage:
  tools/bench_compare.py BASELINE CURRENT [BASELINE2 CURRENT2 ...]
      [--threshold 0.10] [--ratios-only]
"""

import argparse
import json
import sys

# SIMD speedups (ratios and floors named *_simd_speedup) at or below
# this are treated as "width unavailable on this host" rather than a
# regression (a scalar-only CI runner can't hold a SIMD speedup
# floor). Every other ratio is always gated.
_SAME_WIDTH = 1.001
_SIMD_SUFFIX = "_simd_speedup"

_HEADER = {"schema": str, "quick": bool, "detected_simd": str}

# Derived ratios where smaller is the improvement. Every other ratio
# is higher-is-better.
_DIRECTION = {
    # Plain / durable batch frames/s: 1.0 means journaling is free, so
    # a faster journal lowers it.
    "durable_overhead_ratio": "lower",
}


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def schema_errors(doc):
    """Every way @doc breaks the BENCH_*.json schema (empty if none)."""
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    errors = []
    for key, kind in _HEADER.items():
        if not isinstance(doc.get(key), kind):
            errors.append(f"header {key}: missing or not a "
                          f"{kind.__name__}")
    series = doc.get("benchmarks", [])
    if not isinstance(series, list):
        errors.append("benchmarks: not an array")
        series = []
    for i, s in enumerate(series):
        if not (isinstance(s, dict) and isinstance(s.get("name"), str)
                and isinstance(s.get("simd"), str)
                and is_number(s.get("ops_per_s"))):
            errors.append(f"benchmarks[{i}]: needs string name and "
                          "simd and numeric ops_per_s")
    for section, ok, what in (("derived", is_number, "number"),
                              ("floors", is_number, "number"),
                              ("gates", lambda v: isinstance(v, bool),
                               "bool")):
        values = doc.get(section, {})
        if not isinstance(values, dict):
            errors.append(f"{section}: not an object")
            continue
        for name, v in sorted(values.items()):
            if not ok(v):
                errors.append(f"{section} {name}: {v!r} is not a "
                              f"{what}")
    return errors


def series_map(doc):
    return {(s["name"], s["simd"]): s
            for s in doc.get("benchmarks", [])}


def compare_pair(base, cur, threshold, ratios_only):
    failures = []
    notes = []

    if base.get("schema") != cur.get("schema"):
        failures.append(
            f"schema mismatch: baseline {base.get('schema')} vs "
            f"current {cur.get('schema')}")
        return failures, notes

    if base.get("quick") != cur.get("quick"):
        notes.append(
            f"note: quick={base.get('quick')} baseline vs "
            f"quick={cur.get('quick')} current -- the gates still "
            "apply; absolute numbers are not comparable")

    same_width = (base.get("detected_simd") ==
                  cur.get("detected_simd"))

    # Benchmark-set drift is reported in *both* modes: a silently
    # vanished series is how a gate stops gating. In absolute mode a
    # removal is also a failure; in ratios-only mode it stays a note
    # (CI runners enforce ratios/floors, not series identity).
    bmap, cmap = series_map(base), series_map(cur)
    for key in sorted(set(cmap) - set(bmap)):
        notes.append(
            f"note: benchmark added: {key[0]} [{key[1]}] "
            "(in current, no baseline series)")
    for key in sorted(set(bmap) - set(cmap)):
        notes.append(
            f"note: benchmark removed: {key[0]} [{key[1]}] "
            "(in baseline, missing from current)")

    if not ratios_only:
        for key, bs in sorted(bmap.items()):
            cs = cmap.get(key)
            if cs is None:
                failures.append(
                    f"{key[0]} [{key[1]}]: missing from current run")
                continue
            floor = bs["ops_per_s"] * (1.0 - threshold)
            if cs["ops_per_s"] < floor:
                failures.append(
                    f"{key[0]} [{key[1]}]: {cs['ops_per_s']:.0f} "
                    f"ops/s < {floor:.0f} "
                    f"(baseline {bs['ops_per_s']:.0f}, "
                    f"threshold {threshold:.0%})")

    bder = base.get("derived", {})
    cder = cur.get("derived", {})
    for name, bval in sorted(bder.items()):
        cval = cder.get(name)
        if cval is None:
            failures.append(f"derived {name}: missing from current")
            continue
        if _DIRECTION.get(name, "higher") == "lower":
            bound = bval * (1.0 + threshold)
            if cval > bound:
                failures.append(
                    f"derived {name}: {cval:.3f} > {bound:.3f} "
                    f"(baseline {bval:.3f}, lower is better, "
                    f"threshold {threshold:.0%})")
            continue
        width_bound = name.endswith(_SIMD_SUFFIX)
        if width_bound and bval <= _SAME_WIDTH:
            continue  # Baseline itself saw no SIMD headroom.
        if width_bound and not same_width and cval <= _SAME_WIDTH:
            notes.append(
                f"note: derived {name} skipped (current host lacks "
                f"{base.get('detected_simd')})")
            continue
        floor = bval * (1.0 - threshold)
        if cval < floor:
            failures.append(
                f"derived {name}: {cval:.3f} < {floor:.3f} "
                f"(baseline {bval:.3f}, threshold {threshold:.0%})")

    for name, floor in sorted(base.get("floors", {}).items()):
        cval = cder.get(name)
        if cval is None:
            failures.append(f"floor {name}: missing from current")
            continue
        if (name.endswith(_SIMD_SUFFIX) and not same_width
                and cval <= _SAME_WIDTH):
            notes.append(
                f"note: floor {name} skipped (current host lacks "
                f"{base.get('detected_simd')})")
            continue
        if cval < floor:
            failures.append(
                f"floor {name}: {cval:.3f} < required {floor:.3f}")

    bgates = base.get("gates", {})
    cgates = cur.get("gates", {})
    for name in sorted(set(bgates) - set(cgates)):
        failures.append(f"gate {name}: missing from current")
    for name, ok in sorted(cgates.items()):
        if not ok:
            failures.append(f"gate {name}: false")

    return failures, notes


def main():
    ap = argparse.ArgumentParser(
        description="Perf-trajectory regression gate")
    ap.add_argument("files", nargs="+",
                    help="BASELINE CURRENT file pairs")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed fractional regression "
                         "(default 0.10)")
    ap.add_argument("--ratios-only", action="store_true",
                    help="enforce only derived ratios and floors "
                         "(hardware-independent; CI mode)")
    args = ap.parse_args()

    if len(args.files) % 2 != 0:
        ap.error("files must come in BASELINE CURRENT pairs")

    docs = {}
    malformed = False
    for path in args.files:
        if path in docs:
            continue
        docs[path] = load(path)
        for e in schema_errors(docs[path]):
            print(f"bench_compare: {path}: schema: {e}",
                  file=sys.stderr)
            malformed = True
    for base, cur in zip(args.files[::2], args.files[1::2]):
        b, c = docs[base], docs[cur]
        if (b.get("quick") != c.get("quick")
                and (b.get("derived") or b.get("floors"))):
            print(f"bench_compare: [{base} vs {cur}] quick="
                  f"{b.get('quick')} baseline vs quick={c.get('quick')} "
                  "current: derived ratios and floors only compare runs "
                  "of one size", file=sys.stderr)
            malformed = True
    if malformed:
        return 2

    any_failures = False
    for i in range(0, len(args.files), 2):
        baseline, current = args.files[i], args.files[i + 1]
        failures, notes = compare_pair(
            docs[baseline], docs[current], args.threshold,
            args.ratios_only)
        tag = f"[{baseline} vs {current}]"
        for n in notes:
            print(f"{tag} {n}")
        for f in failures:
            print(f"{tag} FAIL: {f}", file=sys.stderr)
            any_failures = True
        if not failures:
            print(f"{tag} OK"
                  + (" (ratios-only)" if args.ratios_only else ""))

    return 1 if any_failures else 0


if __name__ == "__main__":
    sys.exit(main())
