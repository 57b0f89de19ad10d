#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 bench_e2e/run.py --workload paper_tables|fabric_scale|dse_service \
        --seed N --seconds S --trace 0|1

The benchmark and the iced library it links are compiled (Release) into
.bench_build/ under the repository root; a build that is already up to
date costs about a second. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Per-run reports and Perfetto
traces land in .bench_build/e2e/. The arguments are passed to the
benchmark binary unchanged.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "bench_e2e")
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
OUT = os.path.join(ROOT, ".bench_build", "e2e")


def build(env):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs],
                   stdout=sys.stderr, check=True, env=env)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("bench_e2e: no library sources at src/; run from a "
                 "checkout of the repository")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("bench_e2e: build failed: %s" % err)
    binary = os.path.join(BUILD, "bench_e2e")
    result = subprocess.run([binary, "--out-dir", OUT] + sys.argv[1:],
                            cwd=ROOT, env=env)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
