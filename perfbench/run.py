#!/usr/bin/env python3
"""Build the pedsim benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
the repository's library, pedsim_server and the perfbench program (Release)
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is perfbench's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corridor_sparse_serial", "corridor_dense_serial", "server_mix")


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (os.path.exists(os.path.join(build_dir, "build.ninja")) or
            os.path.exists(os.path.join(build_dir, "Makefile"))):
        subprocess.check_call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.check_call(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    exe = os.path.join(build_dir, "perfbench")
    server = os.path.join(build_dir, "pedsim", "pedsim_server")
    sys.stdout.flush()
    sys.stderr.flush()
    # The socket path must stay short (sun_path), so pass it relative.
    os.execv(exe, [exe, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--work-dir", os.path.relpath(work),
                   "--server-bin", os.path.abspath(server)])
    return 1


if __name__ == "__main__":
    sys.exit(main())
