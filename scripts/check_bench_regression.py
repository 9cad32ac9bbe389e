#!/usr/bin/env python3
"""Compare freshly produced BENCH_*.json files against committed snapshots.

Usage:
    scripts/check_bench_regression.py FRESH_DIR [BASELINE_DIR]
    scripts/check_bench_regression.py --list [BASELINE_DIR]

FRESH_DIR holds the just-produced BENCH_*.json files (e.g. the build
directory); BASELINE_DIR (default: repo root) holds the committed snapshots.
For every benchmark file present in BOTH directories, every seconds-like
numeric leaf (key ending in "seconds" or "_sec") is compared; the check
fails when a fresh value is more than DL2SQL_BENCH_REGRESSION_PCT percent
(default 25) slower than the committed baseline.

A fresh key with no baseline counterpart fails the check with a message
naming the file and key (the committed snapshot is stale — re-run the bench
on a reference machine and commit the refreshed JSON). Keys present only in
the baseline are reported informationally (that bench may simply not have
run). Speedups and counter drift are informational too: committed snapshots
come from a different machine than CI, so absolute-equality checks would be
noise. Set DL2SQL_BENCH_REGRESSION_PCT=0 to disable the regression check
(reports only; missing baseline keys still fail).

Scaling keys (thread keys matching "_<N>t_sec" and shard keys matching
"_<N>shard_sec", with N > 1) are only compared when both the baseline and
the fresh JSON carry a top-level "hardware_concurrency" field, the two
values agree, and both are >= 4: an 8-thread (or 4-shard scatter-gather)
timing from a 1-core container says nothing about an 8-core box (and vice
versa), so those comparisons are skipped with a note instead of silently
lying. Presence is still enforced for registered keys.

`--list` prints every tracked key per baseline file and exits; use it to see
what the check would compare before touching a snapshot.
"""

import json
import os
import re
import sys

# Key metrics that must be present in BOTH the fresh output and the committed
# snapshot whenever the named file is compared. Auto-discovery above catches
# any seconds-like leaf, but these registered keys guard the metrics the
# repo's conclusions rest on (the vectorized-vs-row timings re-derive the
# cost model's SQL calibration factor): if a bench silently stops emitting
# one, the check fails instead of comparing a shrunken key set.
REQUIRED_KEYS = {
    "BENCH_parallel.json": [
        "workloads[filter].row_1t_sec",
        "workloads[filter].vec_1t_sec",
        "workloads[filter].vec_8t_sec",
        "workloads[join].row_1t_sec",
        "workloads[join].vec_1t_sec",
        "workloads[join].vec_8t_sec",
        "workloads[aggregate].row_1t_sec",
        "workloads[aggregate].vec_1t_sec",
        "workloads[aggregate].vec_8t_sec",
        "workloads[nudf_batch].vec_1t_sec",
        "workloads[nudf_batch].vec_8t_sec",
    ],
    "BENCH_profile.json": [
        "mix_on_sec",
        "mix_off_sec",
        "dist_mix_on_sec",
        "dist_mix_off_sec",
    ],
    "BENCH_oocore.json": [
        "mix_paged_sec",
        "mix_inmem_sec",
        "overbudget_paged_sec",
    ],
    "BENCH_shard.json": [
        "mix_1shard_sec",
        "mix_4shard_sec",
    ],
}

# Memory-footprint keys compared like seconds keys (fresh must not exceed
# the baseline by more than the threshold) but gated on a matching
# "hardware_concurrency": allocator slack and result residency differ enough
# across machine shapes that a cross-machine RSS comparison is noise. The
# keys are still REQUIRED to be present in both documents whenever the file
# is compared — the out-of-core bench's bounded-RSS claim must stay
# observable.
GATED_MEM_KEYS = {
    "BENCH_oocore.json": [
        "peak_rss_delta_mb",
    ],
}

# Scaling leaves: thread keys "<workload>_<N>t_sec" and shard keys
# "<mix>_<N>shard_sec". N == 1 is a plain single-thread (or single-shard)
# timing and always comparable; N > 1 depends on the core count of the
# producing machine — a 4-shard scatter-gather on 1 core is pure overhead,
# not scaling.
THREAD_KEY_RE = re.compile(r"_(\d+)t_sec$")
SHARD_KEY_RE = re.compile(r"_(\d+)shard_sec$")


def scaling_count(path):
    """Returns N for a "_<N>t_sec" or "_<N>shard_sec" leaf path, else None."""
    for regex in (THREAD_KEY_RE, SHARD_KEY_RE):
        match = regex.search(path)
        if match:
            return int(match.group(1))
    return None


def seconds_leaves(node, prefix=""):
    """Yields (path, value) for every seconds-like numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (dict, list)):
                yield from seconds_leaves(value, path)
            elif isinstance(value, (int, float)) and (
                key.endswith("seconds") or key.endswith("_sec")
            ):
                yield path, float(value)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            # Label list entries by their "name" field when present, else index.
            label = value.get("name", str(i)) if isinstance(value, dict) else str(i)
            yield from seconds_leaves(value, f"{prefix}[{label}]")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def default_baseline_dir():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def bench_files(directory):
    try:
        names = os.listdir(directory)
    except OSError as err:
        print(f"cannot list {directory}: {err}")
        sys.exit(2)
    return {
        name
        for name in names
        if name.startswith("BENCH_") and name.endswith(".json")
    }


def list_tracked_keys(baseline_dir):
    """Prints every seconds-like key the check tracks, per baseline file."""
    names = sorted(bench_files(baseline_dir))
    if not names:
        print(f"no BENCH_*.json in {baseline_dir}")
        return 2
    for name in names:
        print(name)
        keys = sorted(dict(seconds_leaves(load(os.path.join(baseline_dir, name)))))
        if not keys:
            print("  (no seconds-like keys)")
        for key in keys:
            print(f"  {key}")
    return 0


def main():
    args = sys.argv[1:]
    if args and args[0] == "--list":
        if len(args) > 2:
            print(__doc__)
            return 2
        return list_tracked_keys(args[1] if len(args) == 2 else default_baseline_dir())
    if len(args) < 1 or len(args) > 2:
        print(__doc__)
        return 2
    fresh_dir = args[0]
    baseline_dir = args[1] if len(args) == 2 else default_baseline_dir()
    threshold_pct = float(os.environ.get("DL2SQL_BENCH_REGRESSION_PCT", "25"))

    baselines = bench_files(baseline_dir)
    fresh_files = bench_files(fresh_dir)
    common = sorted(baselines & fresh_files)
    if not common:
        print(f"no BENCH_*.json present in both {fresh_dir} and {baseline_dir}")
        return 2
    for name in sorted(baselines - fresh_files):
        print(f"note: committed {name} has no fresh counterpart (not run?)")

    regressions = []
    missing_baseline_keys = []
    compared = 0
    missing_required = []
    skipped_scaling = 0
    for name in common:
        base_doc = load(os.path.join(baseline_dir, name))
        fresh_doc = load(os.path.join(fresh_dir, name))
        base = dict(seconds_leaves(base_doc))
        fresh = dict(seconds_leaves(fresh_doc))
        base_hw = base_doc.get("hardware_concurrency") if isinstance(
            base_doc, dict) else None
        fresh_hw = fresh_doc.get("hardware_concurrency") if isinstance(
            fresh_doc, dict) else None
        skip_scaling = (
            base_hw is None
            or fresh_hw is None
            or base_hw != fresh_hw
            or min(base_hw, fresh_hw) < 4
        )
        for key in REQUIRED_KEYS.get(name, []):
            for side, leaves in (("fresh", fresh), ("baseline", base)):
                if key not in leaves:
                    print(f"ERROR: {name}:{key} (registered key metric) "
                          f"missing from {side} output")
                    missing_required.append((name, key, side))
        for key in GATED_MEM_KEYS.get(name, []):
            base_v = base_doc.get(key) if isinstance(base_doc, dict) else None
            fresh_v = fresh_doc.get(key) if isinstance(fresh_doc, dict) else None
            for side, value in (("fresh", fresh_v), ("baseline", base_v)):
                if not isinstance(value, (int, float)):
                    print(f"ERROR: {name}:{key} (registered memory metric) "
                          f"missing from {side} output")
                    missing_required.append((name, key, side))
            if not isinstance(base_v, (int, float)) or not isinstance(
                    fresh_v, (int, float)):
                continue
            if base_hw is None or fresh_hw is None or base_hw != fresh_hw:
                print(f"note: {name}:{key} skipped (memory key; "
                      f"cores base={base_hw} fresh={fresh_hw})")
                skipped_scaling += 1
                continue
            compared += 1
            if base_v <= 0:
                continue
            delta_pct = (float(fresh_v) - float(base_v)) / float(base_v) * 100.0
            marker = ""
            if threshold_pct > 0 and delta_pct > threshold_pct:
                marker = "  <-- REGRESSION"
                regressions.append(
                    (name, key, float(base_v), float(fresh_v), delta_pct,
                     "MB"))
            print(f"{name}:{key}: base={base_v:.2f}MB fresh={fresh_v:.2f}MB "
                  f"({delta_pct:+.1f}%){marker}")
        for path in sorted(base.keys() | fresh.keys()):
            if path not in base:
                # A bench now reports a timing the committed snapshot has
                # never seen: without a baseline the regression check is
                # silently blind to it, so fail loudly instead of crashing
                # with a KeyError (or skipping it with a shrug).
                print(f"ERROR: {name}:{path} has no baseline key in "
                      f"{baseline_dir}/{name}")
                missing_baseline_keys.append((name, path))
                continue
            if path not in fresh:
                print(f"note: {name}:{path} only in baseline (bench not run?)")
                continue
            n_scale = scaling_count(path)
            if n_scale is not None and n_scale > 1 and skip_scaling:
                print(f"note: {name}:{path} skipped (scaling key; "
                      f"cores base={base_hw} fresh={fresh_hw})")
                skipped_scaling += 1
                continue
            compared += 1
            b, f = base[path], fresh[path]
            if b <= 0:
                continue  # degenerate baseline; nothing to compare against
            delta_pct = (f - b) / b * 100.0
            marker = ""
            if threshold_pct > 0 and delta_pct > threshold_pct:
                marker = "  <-- REGRESSION"
                regressions.append((name, path, b, f, delta_pct, "s"))
            print(f"{name}:{path}: base={b:.6f}s fresh={f:.6f}s "
                  f"({delta_pct:+.1f}%){marker}")

    print(f"\ncompared {compared} seconds-like leaves across "
          f"{len(common)} file(s), threshold {threshold_pct:.0f}%"
          + (f", skipped {skipped_scaling} thread-scaling leaves"
             if skipped_scaling else ""))
    if missing_required:
        print(f"FAIL: {len(missing_required)} registered key metric(s) "
              "missing:")
        for name, key, side in missing_required:
            print(f"  {name}:{key} ({side})")
        return 1
    if missing_baseline_keys:
        print(f"FAIL: {len(missing_baseline_keys)} fresh key(s) without a "
              "committed baseline; refresh the BENCH_*.json snapshot(s):")
        for name, path in missing_baseline_keys:
            print(f"  {name}:{path}")
        return 1
    if regressions:
        print(f"FAIL: {len(regressions)} regression(s) beyond "
              f"{threshold_pct:.0f}%:")
        for name, path, b, f, delta, unit in regressions:
            print(f"  {name}:{path}: {b:.6f}{unit} -> {f:.6f}{unit} "
                  f"(+{delta:.1f}%)")
        return 1
    print("OK: no wall-clock or memory regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
