#!/usr/bin/env python3
"""Build the repository and run one workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The servers, the router and the
benchmark program are built from source with dune (output to stderr),
then perfbench/main.exe runs the workload; its last stdout line is the
result object.  Every process the run starts is in one process group,
which is killed when the run ends, however it ends.

The run is pinned to one CPU (the highest the process may use): the
client, the servers and the router then hand each request over on one
core instead of waking an idle virtual CPU, which on a 2-vCPU guest
made single-connection throughput swing between runs by nearly 2x.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["bin/tlp_serve.exe", "bin/tlp_route.exe", "perfbench/main.exe"]


def main():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; nothing to build" % ROOT, file=sys.stderr)
        return 1
    build = subprocess.run(
        # no shared cache: the run writes nothing outside the checkout
        ["dune", "build", "--root", ROOT, "--cache=disabled"] + TARGETS,
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default")
    cmd = [
        os.path.join(exe, "perfbench", "main.exe"),
        "--serve", os.path.join(exe, "bin", "tlp_serve.exe"),
        "--route", os.path.join(exe, "bin", "tlp_route.exe"),
    ] + sys.argv[1:]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
