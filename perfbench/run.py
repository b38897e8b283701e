#!/usr/bin/env python3
"""Build and run the Deep Validation benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `dv-perfbench` package (perfbench/Cargo.toml, a workspace of
its own over the repository's crates) offline in release mode, with
default features, into $CARGO_TARGET_DIR (default: .bench_build at the
repository root), then runs it with the same arguments. Build output
goes to standard error; the benchmark's result is the last line of
standard output. Exits non-zero, without a result, if the build or the
run fails.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; the build gets its own, longer budget.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Variables that would change what the program does: thread count,
# model cache, trace sampling, experiment size profile, output paths.
SCRUBBED = ("DV_THREADS", "DV_CACHE", "DV_TRACE_SAMPLE", "DV_FAST", "DV_OUT")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, env, timeout, capture):
    try:
        return subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            timeout=timeout,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr,
            text=True,
            check=False,
        )
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except OSError as e:
        fail(f"cannot start {cmd[0]}: {e}")


def main():
    # When this script is terminated, the benchmark must stop with it:
    # subprocess.run kills its child when the wait is interrupted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    args = sys.argv[1:]
    for need in ("Cargo.toml", "crates", "compat"):
        if not (ROOT / need).exists():
            fail(f"{ROOT / need} is missing: run from a checkout of the repository")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    target = Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env, BUILD_TIMEOUT_S, capture=False,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = target / "release" / "dv-perfbench"
    extra = []
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        extra = ["--out", str(HERE / "out")]
    bench = run([str(binary), *args, *extra], env, RUN_TIMEOUT_S, capture=True)
    lines = bench.stdout.splitlines()
    sys.stdout.write(bench.stdout)
    sys.stdout.flush()
    if bench.returncode != 0:
        fail(f"benchmark exited with code {bench.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")


if __name__ == "__main__":
    main()
