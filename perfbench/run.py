#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the repository's `campaign` binary and the benchmark binary from
source (release profile, default features), runs one workload, and prints
the benchmark's output. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload paper-grid --seed 7 --seconds 25 --trace 0

Workloads: paper-grid, long-tuning, sharded-grid (see BENCHMARK.json).
With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics.

Build outputs go to $CARGO_TARGET_DIR (default `.bench_build` at the
repository root); scratch files go to `perfbench-work` inside it.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
TIMEOUT_S = 170

# Everything the two builds read, relative to the repository root.
BUILD_INPUTS = [".cargo", "Cargo.toml", "Cargo.lock", "crates",
                "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src"]


def source_stamp():
    """Digest of the build's inputs: sources, manifests, cargo config, the
    commit stamped into the binaries, the toolchain and its flags.

    Outside a git checkout the telemetry crate's build script reruns on
    every cargo invocation (its rerun paths under .git do not exist), which
    recompiles most of the workspace; the stamp lets unchanged sources skip
    cargo altogether.
    """
    digest = hashlib.sha256()

    def add_file(path):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())

    for entry in BUILD_INPUTS:
        top = os.path.join(ROOT, entry)
        if os.path.isfile(top):
            add_file(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                add_file(os.path.join(dirpath, name))
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        add_file(head)
        with open(head) as f:
            ref = f.read().strip().removeprefix("ref: ")
        if os.path.isfile(os.path.join(ROOT, ".git", ref)):
            add_file(os.path.join(ROOT, ".git", ref))
    for var in ("RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS", "RUSTC"):
        digest.update(f"{var}={os.environ.get(var, '')}\0".encode())
    digest.update(subprocess.run(["rustc", "-vV"], capture_output=True).stdout)
    return digest.hexdigest()


def build(target_dir):
    """Builds both binaries unless the stamp shows they are current; cargo's
    own output goes to stderr."""
    release = os.path.join(target_dir, "release")
    stamp_path = os.path.join(target_dir, "perfbench.stamp")
    stamp = source_stamp()
    binaries = [os.path.join(release, b) for b in ("campaign", "perfbench")]
    if all(os.path.isfile(b) for b in binaries) and os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "qismet-bench", "--bin", "campaign"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for cmd in commands:
        # Run from the repository root so its .cargo/config.toml applies.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    with open(stamp_path, "w") as f:
        f.write(stamp)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-grid", "long-tuning", "sharded-grid"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("Cargo.toml", os.path.join("crates", "bench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found; run from a full checkout")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    build(target_dir)

    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--campaign-bin", os.path.join(release, "campaign"),
        "--work-dir", os.path.join(target_dir, "perfbench-work"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
