#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-design --seed 1 --seconds 10 --trace 0

Every argument is passed through to the Go program (see perfbench/README.md).
The Go build cache, the binary, shard sockets and trace files all live under
`.bench_build/` in the current directory, so nothing is written outside the
checkout. The build needs the repository's own Go sources next to this
directory (the module replaces `afs` with `..`); without them it fails and
this script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A run must finish within 180 s; the child gets slightly less so this
# wrapper can still report and exit cleanly.
RUN_TIMEOUT_S = 170
# The first build in a fresh checkout compiles the standard library too.
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    os.makedirs(home, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOENV": "off",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def main():
    env = go_env()
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
