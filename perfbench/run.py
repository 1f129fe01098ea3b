#!/usr/bin/env python3
"""Builds the perfbench worker from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed N --seconds N --trace 0|1

The worker (src/main.rs) does the measuring; this script builds it with
cargo (into $CARGO_TARGET_DIR, default .bench_build), runs it, passes its
`# ` report lines through, and prints its JSON result as the last line of
standard output. It exits non-zero, without a result, if the build or the
worker fails or the worker prints no valid result.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1

    worker = os.path.join(target, "release", "perfbench")
    # The worker runs each measured run in a child process of its own; a
    # process group of its own lets a timeout stop the children too.
    proc = subprocess.Popen([worker, *sys.argv[1:]], env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"perfbench: last worker line is not JSON: {e}", file=sys.stderr)
        return 1
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"perfbench: result is not an object with keys {sorted(RESULT_KEYS)}",
              file=sys.stderr)
        return 1
    # The suite prints its tables while it runs; only the worker's own
    # report lines are passed on.
    for line in lines[:-1]:
        if line.startswith("# "):
            print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
