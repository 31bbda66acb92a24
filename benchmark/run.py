#!/usr/bin/env python3
"""Builds the benchmark from source (Release) and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build lives in $CARGO_TARGET_DIR when
it is set (relative paths resolve against the checkout root), else in
.bench_build/. Build output goes to stderr; the benchmark's own output,
ending with one JSON result line, goes to stdout. The exit code is the
benchmark's: 0 only when every output check passed.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-nocache", "paper-warm", "import-windowed", "farm")
# Host settings the library would otherwise honour; the benchmark is
# hermetic, so none of them may reach it.
HOST_KNOBS = ("PARALLAX_CACHE_DIR", "PARALLAX_CACHE", "PARALLAX_SERVE",
              "PARALLAX_SHARDS")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> pathlib.Path:
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = pathlib.Path(configured) if configured else pathlib.Path(
        ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out: pathlib.Path) -> pathlib.Path:
    cmake_dir = out / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target",
                    "parallax_benchmark", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return cmake_dir / "parallax_benchmark"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "parallax").is_dir():
        print(f"run.py: no library sources under {ROOT}; run from a full "
              "checkout", file=sys.stderr)
        return 2

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k not in HOST_KNOBS}
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", str(ROOT),
               "--build-dir", str(out)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print(f"run.py: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
