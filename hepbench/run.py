#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 hepbench/run.py --workload scan_cold --seed 1 --seconds 15 --trace 0
    python3 hepbench/run.py --self-test

The program and the benchmark are compiled from source into
.bench_build/hepbench (Release); generated datasets and span files go to
.bench_build/data. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. See hepbench/README.md.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "hepbench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources next to the benchmark (expected ../src)")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            log("configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", BUILD, "-j", jobs]):
        log("build failed")
        return False
    return True


def source_digest():
    """SHA-256 over the program's build inputs, standing in for a commit id
    where the checkout has no git metadata."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src",):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main(argv):
    if not build():
        return 1
    if "--self-test" in argv:
        return subprocess.run(["ctest", "--test-dir", BUILD, "-R", "hepbench",
                               "--output-on-failure"]).returncode
    binary = os.path.join(BUILD, "hepbench")
    cmd = [binary] + argv + [
        "--data-dir", os.path.join(OUT, "data"),
        "--digests", os.path.join(HERE, "digests.txt"),
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
