#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload read-spill --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a Go module that imports the repository through a
replace directive) with every Go cache and temporary file kept under
.bench_build/ in the checkout, then runs it with the given arguments. The
benchmark's last line of standard output is its JSON result. A traced
run (--trace 1) also writes its spans to .bench_build/spans/<workload>.csv.gz.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT = 850  # seconds; the first build compiles the standard library
RUN_TIMEOUT = 175


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "bin", "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=os.path.join(root, "perfbench"),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(out, f"work-{os.getpid()}")
    extra = ["--workdir", workdir, "--spans", os.path.join(out, "spans")]
    try:
        run = subprocess.run([binary] + sys.argv[1:] + extra, cwd=root, env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
