#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the hammer libraries, hammer_cli and the perfbench program from
the source tree this script sits in (Release, into $CARGO_TARGET_DIR,
default .bench_build), then runs one workload.  The program's standard
output is passed through; its last line is the JSON result.  Build
output goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-mitigate", "replay-heavy", "serve-repeat")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


# What the program under test is built from.
SOURCE_PARTS = ("CMakeLists.txt", "src", "tools", "perfbench")


def tree_digest():
    """A digest of the files the benchmark builds from."""
    digest = hashlib.sha256()
    for part in SOURCE_PARTS:
        top = os.path.join(ROOT, part)
        paths = [top] if os.path.isfile(top) else []
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(base, name) for name in sorted(files)]
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def source_id():
    """The commit of a clean git checkout; else the tree digest, after
    the commit when the working tree has uncommitted changes."""
    git = ["git", "-C", ROOT]
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                git + ["rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
            dirty = subprocess.run(
                git + ["status", "--porcelain"],
                capture_output=True, text=True, check=True).stdout.strip()
            if commit and not dirty:
                return commit
            if commit:
                return commit + "-dirty+" + tree_digest()
        except (OSError, subprocess.CalledProcessError):
            pass
    return tree_digest()


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "hammer_cli"],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no hammer source tree here (missing %s)" % needed)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    work_dir = os.path.join(target, "run")
    os.makedirs(work_dir, exist_ok=True)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    # The worker counts are the benchmark's choice, not the caller's.
    env = dict(os.environ)
    env.pop("HAMMER_THREADS", None)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(build_dir, "hammer", "hammer_cli"),
        # Relative, so unix socket paths stay short wherever the
        # checkout lives.
        "--work-dir", os.path.relpath(work_dir, ROOT),
        "--source", source_id(),
    ]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
