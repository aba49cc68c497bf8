#!/usr/bin/env python3
"""Build and run the HighLight benchmark.

    python3 perfbench/run.py --workload recall|ingest|hot_read --seed N \
        --seconds S --trace 0|1

Run it from the root of the repository. It builds perfbench/main.exe
with dune, runs it with the same arguments and passes its output and
exit code through; the last line of output is the JSON result. It exits
non-zero without a result when the build fails (for instance in a
directory that holds the benchmark but not the program) or the run
does not finish in time.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: run from the root of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
