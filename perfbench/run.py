#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig8_edge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --shapes --seed 1 --seconds 20

The program's libraries and the benchmark binary are built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) on first use and brought
up to date on every run. The binary's progress goes to stderr; its last stdout
line is the JSON result, whose metric names are checked against
BENCHMARK.json when that file is present.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (until it succeeds once) and builds; returns the binary
    path or None."""
    binary = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        return 1

    # Paged storage and spills create their tablespace files under TMPDIR;
    # keep them inside the checkout.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = subprocess.run([binary, "--out-dir", build_dir] + argv, env=env,
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0 or "--shapes" in argv:
        sys.stdout.write(proc.stdout)
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    want = expected_metrics(trace)
    got = set(result.get("metrics", {}))
    if want is not None and got != want:
        sys.stderr.write(proc.stdout)
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(want - got), sorted(got - want)),
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
