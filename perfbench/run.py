#!/usr/bin/env python3
"""End-to-end benchmark of the secure scan: build, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan_tall --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the
repository's libraries plus the dash_perfbench binary) into the directory
named by $CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally. The run's study files go to a per-run directory under
.bench_work/ that is removed afterwards; a traced run leaves its span file
(Chrome trace-event JSON) at .bench_out/spans-<workload>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when the
build succeeded and every output of the run was correct.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("scan_tall", "scan_wide", "service_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(repo, build_dir):
    """Configures (once) and builds dash_perfbench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(repo, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "dash_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "dash_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        log(f"no repository sources under {repo}/src; nothing to build")
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(repo, ".bench_build"))
    binary = build(repo, build_dir)
    if binary is None:
        log("build failed")
        return 2

    work_dir = os.path.join(repo, ".bench_work",
                            f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(repo, ".bench_out")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(out_dir, f"spans-{args.workload}.json")]
    try:
        # subprocess.run kills and reaps dash_perfbench on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
