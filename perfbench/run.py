#!/usr/bin/env python3
"""Builds the lilsm benchmark from source and runs one workload.

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0

Run from the repository root. Workloads: point_lookup, mixed_ingest,
server_rpc. The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); scratch databases in $CARGO_TARGET_DIR/run and
traced runs' span files in $CARGO_TARGET_DIR/traces. The last line of
standard output is the run's JSON result. `--selftest` builds and runs the
harness's unit tests instead.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_lookup", "mixed_ingest", "server_rpc")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build(targets):
    build_dir = os.path.join(target_dir(), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, timeout=840).returncode != 0:
        fail("build failed")
    return build_dir


def source_id():
    """git sha when run from a git checkout, plus a digest of the sources."""
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return sha, digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "lsm", "db.h"))):
        fail("lilsm sources not found next to perfbench/ (run from a full checkout)")

    if args.selftest:
        build_dir = build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    build_dir = build(["perfbench"])
    sha, digest = source_id()
    work = os.path.join(target_dir(), "run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # A relative work dir keeps the server's unix socket path short.
    rel_work = os.path.relpath(work, ROOT)
    print("# source digest=%s (src/ and CMakeLists.txt)" % digest, flush=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", rel_work, "--git-sha", sha, "--build-type", BUILD_TYPE]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    spans = os.path.join(work, "spans.tsv")
    if os.path.exists(spans):
        traces = os.path.join(target_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(
            traces, "%s-seed%d.tsv" % (args.workload, args.seed)))
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
