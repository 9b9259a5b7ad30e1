#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the shipped `rsmr-server` binary
(the repository's workspace) and the benchmark package (`perfbench/`)
in release mode into one target directory -- `$CARGO_TARGET_DIR`, or
`.bench_build` when unset -- and hands every argument to the
`perfbench` binary. Exits non-zero, printing no result, when either
build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, env["CARGO_TARGET_DIR"])
    builds = [
        ["cargo", "build", "--release", "--quiet", "--offline", "-p", "rsmr-server"],
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
