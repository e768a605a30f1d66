#!/usr/bin/env python3
"""Build and run one workload of the repository's benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload matrix-paper --seed 42 --seconds 20 --trace 0

Builds the Go benchmark program in perfbench/ (a module of its own that uses the
repository's packages through a replace directive) into .bench_build/,
with the Go build cache kept there too, then runs it with the same
arguments. Its last line of standard output is the result JSON;
with --trace 1 the Chrome trace and the per-layer metrics are also written
to .bench_build/out/. Exits non-zero, without a result, if the build or the
run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    """Keep every file the toolchain writes inside the checkout, offline."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    env.pop("GOMAXPROCS", None)  # the Go runtime default: one per CPU
    return env


def source_digest():
    """sha256 over the Go sources and module files the benchmark builds."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    # Turn SIGTERM into SystemExit so the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s; run from a checkout of the repository" % ROOT)
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"], env["XDG_CACHE_HOME"]):
        os.makedirs(d, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, timeout=700)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [
        BINARY,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-out", os.path.join(BUILD, "out"),
        "-source", source_digest(),
    ]
    # The program starts one process per pass; run it in its own process
    # group so that a timeout or a termination stops all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded 170 s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with exit code %d" % proc.returncode)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
