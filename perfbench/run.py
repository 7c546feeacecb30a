#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the demotx
library from src/) into .bench_build/perfbench under the checkout root, runs
one workload and prints its result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics with --trace 0, per-layer metrics with --trace 1.  Build
output goes to standard error.  Refuses to run when any DEMOTX_* variable
is set, since the runtime folds those into its configuration.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("collection-real", "list-mixed-sim64", "kv-durable-sim")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no demotx sources under {root / 'src'}")
    src = root / "perfbench"
    out = root / ".bench_build" / "perfbench"
    # Compiler temporaries stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(src), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", "2"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        fail("build failed")
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("DEMOTX_"))
    if knobs:
        fail(f"refusing to run with {', '.join(knobs)} set", code=2)

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")  # run() killed and reaped it
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)  # the effective runtime configuration
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
