#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. Every run first brings the
Release build of pipebench/ (the engine library from src/ plus the
benchmark program) up to date under .bench_build/, then runs it with the
given arguments; any extra arguments (such as --smoke) pass through.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Work files and the Chrome trace of a
--trace 1 run land in .bench_build/pipebench-work/.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
WORK = os.path.join(ROOT, ".bench_build", "pipebench-work")
BINARY = os.path.join(BUILD, "pipebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout is a repository, plus a digest
    of the sources the benchmark builds (a checkout need not be one)."""
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return "git=%s sources=%s" % (commit, digest.hexdigest()[:16])


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources under %s/src; run from the root of a "
             "source checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    build()
    command = [BINARY] + sys.argv[1:] + ["--work-dir", WORK,
                                         "--source", source_id()]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run took longer than %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
