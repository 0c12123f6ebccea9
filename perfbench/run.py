#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is a dune project of its own (perfbench/dune-project)
inside the repository's dune workspace.  Its executable is built in the
release profile, in the repository's own build tree, then run with the
same arguments.  Its last
line of standard output is the result JSON.  If the repository's
libraries are not there, the build fails and this script exits 1
without printing a result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("perfbench", "bench.exe")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 175


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 1
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; nothing to build" % ROOT, file=sys.stderr)
        return 1
    try:
        build = subprocess.run(
            # No shared dune cache: the benchmark stays inside its checkout.
            [dune, "build", "--root", ROOT, "--profile", "release", "--cache=disabled",
             "./" + TARGET],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build exceeded %d s" % BUILD_TIMEOUT_S, file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
