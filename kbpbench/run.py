#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 kbpbench/run.py --workload witness --seed 1 --seconds 30 --trace 0

Builds `kbpd` (root workspace) and the `kbpbench` package in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark binary with the given arguments. Build output goes to stderr;
the benchmark's last stdout line is its JSON result. The exit code is
the build's on a failed build, else the benchmark's.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "kbp-service", "--bin", "kbpd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("kbpbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "kbpbench"), *sys.argv[1:],
             "--kbpd", os.path.join(release, "kbpd")]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
