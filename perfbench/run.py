#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload core-64pe --seed 1 --seconds 20 --trace 0

The Go build cache, module cache and binary go under .bench_build/ in the
checkout, and the harness keeps its scratch stores and trace files under
.bench_out/, so nothing is written outside the checkout. Arguments are
passed to the harness unchanged; its exit code is returned.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        print("perfbench: run from the root of a full source checkout", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOWORK"] = "off"
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
