#!/usr/bin/env python3
"""Build the stack and its benchmark from source, then run one workload.

Run from the root of a source checkout:

    python3 stackbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

dune builds qxd and the benchmark executable (the first build compiles the
whole stack); the remaining arguments go to the benchmark unchanged. Its
last line of output is the JSON result. Outside a checkout this exits 2
without running anything.
"""

import os
import subprocess
import sys

BENCH = "_build/default/stackbench/stackbench.exe"
QXD = "_build/default/bin/qxd.exe"


def main():
    missing = [p for p in ("dune-project", "bin/qxd.ml", "lib", "stackbench/dune")
               if not os.path.exists(p)]
    if missing:
        print("stackbench: run from the root of a source checkout "
              f"(missing: {', '.join(missing)})", file=sys.stderr)
        return 2
    # dune's shared cache lives in the home directory; keep the build
    # inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./stackbench/stackbench.exe", "./bin/qxd.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("stackbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(BENCH, [BENCH, "--qxd", QXD] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
