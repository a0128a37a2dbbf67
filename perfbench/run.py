#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 10 --trace 0

Builds `airchitect` (the repository's release binary) and `perfbench` (the
benchmark package in this directory) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs `perfbench` with the same arguments. Its last
line of standard output is the result object. Exits non-zero, without a
result, when the repository's sources are not there to build.
"""

import os
import subprocess
import sys

WORKLOADS = ("serve_unique", "serve_mixed", "pipeline", "fleet")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(opts) - {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    if opts.get("--workload") not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for need in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"no {need} here: run from the root of a checkout of the repository")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target = os.path.join(root, target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "airchitect-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    )
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *argv, "--bin", os.path.join(release, "airchitect")]
    sys.exit(subprocess.run(cmd, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
