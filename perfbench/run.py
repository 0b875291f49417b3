#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark executable and
the choreographerd daemon with dune, then runs the benchmark, whose last
line of standard output is the JSON result.  Build output goes to
standard error.  Exits non-zero, without a result, when the build or the
run fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 175
TARGETS = ["./perfbench/perfbench.exe", "./bin/choreographerd_main.exe"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
DAEMON_EXE = os.path.join("_build", "default", "bin", "choreographerd_main.exe")


def run_group(argv, timeout, stdout):
    """Run argv in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, stdout=stdout, start_new_session=True)
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
    if not os.path.isfile("dune-project"):
        print("run.py: run from the root of a choreographer checkout", file=sys.stderr)
        return 2
    try:
        code = run_group(["dune", "build", "--root", ".", *TARGETS], BUILD_TIMEOUT_S, sys.stderr)
    except FileNotFoundError:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    if code != 0:
        print(f"run.py: build failed (exit {code})", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return run_group(
        [BENCH_EXE, "--daemon-exe", DAEMON_EXE, *sys.argv[1:]], RUN_TIMEOUT_S, None
    )


if __name__ == "__main__":
    sys.exit(main())
