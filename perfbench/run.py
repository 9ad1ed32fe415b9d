#!/usr/bin/env python3
"""Builds the benchmark and the `sd_serve` binary from source, then runs one
benchmark workload.

    python3 perfbench/run.py --workload sim-w3-sd --seed 42 --seconds 20 --trace 0

Run from the repository root. Arguments are passed to the `perfbench`
binary (see perfbench/README.md). Build output goes to standard error, so the
last line of standard output is the run's JSON result. Builds land in
$CARGO_TARGET_DIR (default: .bench_build); scratch files in perfbench/out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(target_dir, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    serve_manifest = os.path.join(ROOT, "crates", "serve", "Cargo.toml")
    if not os.path.isfile(serve_manifest):
        print("perfbench: run from a full checkout (crates/serve is missing)", file=sys.stderr)
        return 2
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(target_dir, os.path.join(HERE, "Cargo.toml")):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 2
    if not build(target_dir, os.path.join(ROOT, "Cargo.toml"), "-p", "sd-serve", "--bin", "sd_serve"):
        print("perfbench: building sd_serve failed", file=sys.stderr)
        return 2
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "sd_serve"),
           "--out", os.path.join(HERE, "out")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
