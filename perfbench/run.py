#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload compile|sim|sim-checked|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe and the crush CLI (the serve workload's
daemon) with dune, then runs the benchmark with the same arguments.  The
last line of standard output is the JSON result.  Exits nonzero, without
a result, when the sources are missing or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def run_group(argv, timeout, stdout=None):
    """Run argv in its own process group; kill the whole group on timeout
    so no daemon or worker outlives the benchmark."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {argv[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} missing: not a source checkout", file=sys.stderr)
            return 2
    cmd = dune()
    if cmd is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    build = cmd + [
        "build", "--root", ROOT, "./perfbench/bench.exe", "./bin/crush_cli.exe",
    ]
    # Build output goes to stderr: stdout ends with the result line.
    code = run_group(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return 2
    bench = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    return run_group([bench] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
