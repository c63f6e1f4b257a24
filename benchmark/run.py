#!/usr/bin/env python3
"""Build ARDE and the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload paper-tables --seed 1 --seconds 15 --trace 0

Builds `bin/arde_cli.exe` and `benchmark/arde_benchmark.exe` with dune
(shared dune cache off, so the build reads and writes only inside the
checkout), then replaces itself with the benchmark executable.  The last
line of standard output is the benchmark's JSON result.  Exits non-zero
without printing a result when the build fails.
"""

import os
import subprocess
import sys

ARDE = os.path.join("_build", "default", "bin", "arde_cli.exe")
BENCH = os.path.join("_build", "default", "benchmark", "arde_benchmark.exe")
WORKDIR = ".arde_bench"


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/arde_cli.exe", "./benchmark/arde_benchmark.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not (os.path.exists(ARDE) and os.path.exists(BENCH)):
        print("benchmark: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    os.execv(BENCH, [BENCH, "--arde", ARDE, "--workdir", WORKDIR] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
