#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pcap_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

`--workload all` runs the three workloads in turn, each printing its own
block and result line, and fails if any of them fails.

The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset,
relative to the working directory; checkpoints, spools and traced-run span
files go under that directory too. Build output goes to stderr, so the last
line of standard output is the benchmark's JSON result.
"""
import argparse
import multiprocessing
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pcap_batch", "service_stream", "fleet_merge")


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are not next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, multiprocessing.cpu_count()))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's own statistics")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_stats_test")]).returncode

    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", tmp]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(traces, workload + ".json")]
        sys.stdout.flush()
        returncode = subprocess.run(cmd).returncode
        status = status or returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
