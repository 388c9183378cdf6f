#!/usr/bin/env python3
"""Builds and runs the governed end-to-end benchmark.

    python3 e2ebench/run.py --workload analytics|export|interactive \
        --seed N --seconds S --trace 0|1 [extra e2e_bench flags]

Run from the repository root. The first call configures and builds the
library sources and the harness (Release) under $CARGO_TARGET_DIR
(default .bench_build)/e2ebench, and every call runs the harness self-test
before measuring. The last line of standard output is the result object;
the line before it is the report with the machine fingerprint. Extra flags
(--fuse-policies, --admission-slots) pass through to e2e_bench.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("e2ebench: " + message, file=sys.stderr)
    return code


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out_dir):
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def source_digest():
    """SHA-256 over the library and benchmark sources: the provenance of a
    run when the checkout carries no version-control metadata."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                           "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analytics", "export", "interactive"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("library sources not found under " +
                    os.path.join(ROOT, "src"), 2)
    out_dir = build_dir()
    if not build(out_dir):
        return fail("build failed", 3)
    selftest = subprocess.run([os.path.join(out_dir, "e2e_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        return fail("harness self-test failed", 4)

    provenance = source_digest()
    sha = git_sha()
    if sha:
        provenance = "git:" + sha + "+src:" + provenance
    command = [os.path.join(out_dir, "e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-digest", provenance] + extra
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S, 5)
    if proc.returncode != 0:
        return fail("e2e_bench exited with %d" % proc.returncode, 6)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
