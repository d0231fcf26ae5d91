#!/usr/bin/env python3
"""Builds the KGLink benchmark from this source tree and runs it.

    python3 perfbench/run.py --workload semtab_cold --seed 1 --seconds 10 \
        --trace 0 --rate 820 --slo-ms 25
    python3 perfbench/run.py --test      # the benchmark's own unit tests

The build goes to .bench_build/ at the root of the tree (configured once,
then incremental). Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Every argument except --test is passed to
the kgbench binary unchanged; see perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(BUILD)  # configured for another tree
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main(argv):
    target = "kgbench_test" if argv == ["--test"] else "kgbench"
    try:
        binary = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    args = [binary] if target == "kgbench_test" else [binary] + argv
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
