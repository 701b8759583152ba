#!/usr/bin/env python3
"""Build and run the yasim regeneration benchmark (see README.md).

    python3 perfbench/run.py --workload svat_cold --seed 1 --seconds 35 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (and the yasim libraries from src/) into .bench_build/; later
calls rebuild only what changed. All scratch files stay under
.bench_build/. The benchmark's last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), *sys.argv[1:],
           "--work", str(WORK), "--digests", str(HERE / "digests.txt")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
