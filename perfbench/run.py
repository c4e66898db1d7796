#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig5b-sweep|serve-warm|serve-cold \
        --seed N --seconds S --trace 0|1

Run from the root of an h2h checkout. The first run configures and builds
the library, the `h2h` CLI and the benchmark program into .bench_build/
(Release); later runs only check that build. The program (perfbench/main.cpp,
whose header records the workloads, mixes and measurement rules) prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics of a
traced in-process replay under --trace 1. Build output goes to stderr. A
failed build exits 1 without printing a result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    # Write nothing outside the checkout: the root CMakeLists uses ccache
    # when present, whose cache lives elsewhere, and the compiler writes
    # temporary files to TMPDIR.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", BUILD, "--target", "h2h_perfbench", "-j", jobs],
        stdout=sys.stderr, env=env).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "h2h_perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
