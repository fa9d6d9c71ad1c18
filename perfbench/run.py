#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

    python3 perfbench/run.py --workload cube-factor --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The library and the benchmark program
are built with CMake under .bench_build/ (incrementally after the first
run); spans, result records and the out-of-core workload's spill files go
under .bench_build/perfbench-out/. The program's stdout is passed through,
so the last line is the result object; the exit code is the program's
(nonzero when any answer was wrong), or 3 when the build fails. README.md
describes the workloads and metrics.
"""

import argparse
import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")


def source_digest():
    """sha256 over the sources the program is built from (the checkout may
    not be a git repository, so this stands in for the commit id)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "src-sha256-" + h.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no library sources beside perfbench/ "
              "(expected CMakeLists.txt and src/ at the checkout root)",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result object.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 3
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT, "--source", source_digest()]
    sys.stdout.flush()

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # The program removes its spill directory itself; this covers a kill.
        for d in glob.glob(os.path.join(OUT, "spill-*")):
            shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
