#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload host-mix --seed 1 --seconds 10 --trace 0

The OCaml benchmark (perfbench/main.exe) is built with dune, then run
with the same arguments; its standard output is relayed, and its last
line is the JSON result. Build output goes to standard error. The exit
code is the benchmark's own: 0 when every check passed.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    return code


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        return fail("run from the root of a source checkout "
                    "(dune-project, lib/ and perfbench/dune not found)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_bounded(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code is None:
        return fail("build timed out", 3)
    if code != 0:
        return fail("build failed", 3)

    code, out = run_bounded(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE)
    if code is None:
        return fail("benchmark timed out", 4)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
