#!/usr/bin/env python3
"""Build and run the umicro end-to-end benchmark for one workload.

Usage (from the root of the repository):

    python3 e2ebench/run.py --workload syndrift_seq --seed 1 --seconds 20 --trace 0

The first call configures and builds e2ebench/CMakeLists.txt (the
library modules under src/ plus the e2ebench binary, Release) into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench; later calls
rebuild incrementally. Build output goes to stderr. The binary's stdout
is passed through unchanged: its last line is the JSON result. A detail
file with provenance (and, for --trace 1, the span log) is written to
.bench_build/e2ebench-results/. The exit code is the binary's: 1 when
the correctness gate fails, 2 on bad arguments or a failed build.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("syndrift_seq", "forest_distance", "syndrift_sharded",
             "forest_fleet")


def source_sha256():
    """Digest of every file the benchmark builds from (src/ and e2ebench/)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "CMakeLists.txt")):
        print("e2ebench: the umicro sources (src/) are not next to "
              "e2ebench/; nothing to build", file=sys.stderr)
        return 2

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "e2ebench")
    results_dir = os.path.join(build_root, "e2ebench-results")
    os.makedirs(results_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "e2ebench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, check=False).returncode:
            print("e2ebench: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    command = [os.path.join(build_dir, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", results_dir, "--git-sha", git_sha(),
               "--source-sha", source_sha256()]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
