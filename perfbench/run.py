#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one measuring
process, check its result line against BENCHMARK.json, and print it.

    python3 perfbench/run.py --workload batch_fit --seed 1 --seconds 25 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); scratch files go to a per-run directory inside it
and are removed afterwards, except the Chrome trace-event file of a
--trace 1 run, which is kept under <build dir>/traces/ (open it in
Perfetto). The last stdout line is the JSON result; a run that cannot
build, set up or validate exits non-zero without printing one.

Test-only flags: --scale tiny (smoke-test sizes) and --corrupt-oracle 1
(flips one oracle digest, so the run must report failed operations).
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds perfbench and iuad_main (the latter in
    <build dir>/iuad/, by the repository's own CMakeLists.txt)."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            die("cmake configure failed")
    step = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "perfbench", "iuad_main"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        die("build failed")


def die_with_parent():
    # The measuring process (and the server it spawns) must not outlive us.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def validate(result, spec, per_layer):
    """Raises ValueError unless `result` matches the BENCHMARK.json spec."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} is not an integer")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if per_layer else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if (set(entry) != {"value", "unit"} or entry["unit"] != wanted[name]
                or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ValueError(f"bad metric {name}: {entry}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-oracle", type=int, choices=(0, 1),
                        default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload}")

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"), args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--iuad-main", os.path.join(build_dir, "iuad", "iuad_main"),
               "--scale", args.scale,
               "--corrupt-oracle", str(args.corrupt_oracle)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        for name in os.listdir(work_dir):
            if name.startswith("trace-"):
                os.replace(os.path.join(work_dir, name),
                           os.path.join(traces, name))
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        die(f"measuring process exited with {proc.returncode}")

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        validate(result, spec, args.trace == 1)
    except (IndexError, ValueError) as e:
        die(f"invalid result line: {e}")
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
