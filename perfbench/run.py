#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-serve --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into .bench_build/ (the Go
build cache and temporary files go there too, so nothing is written
outside the checkout) and then run with the same arguments. Its exit code is passed through; a
failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": tmp,
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
    })
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
