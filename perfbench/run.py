#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload kv-embed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds `perfbench.exe` and the `onll` executable from source into
`.bench_build/` (release profile, dune cache off so nothing is written
outside the checkout), runs one workload in a fresh directory under
`.bench_work/`, and passes its output through: the last line of standard
output is the JSON result. Span files of traced runs are kept in
`.bench_work/`; stores and sockets are removed. See perfbench/README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD = ".bench_build"
WORK = ".bench_work"
RUN_TIMEOUT_S = 170


def main():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the root of a checkout of the repository "
              "(missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./perfbench/perfbench.exe", "./bin/onll_cli.exe"]
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD,
             "--profile", "release"] + targets,
            env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
    onll = os.path.join(BUILD, "default", "bin", "onll_cli.exe")
    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    proc = subprocess.Popen([exe] + sys.argv[1:] + ["--onll", onll, "--work", run_dir],
                            env=env, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 124
    finally:
        # the run's servers share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
    for name in os.listdir(run_dir):
        if name.startswith("spans-"):
            os.replace(os.path.join(run_dir, name), os.path.join(WORK, name))
    shutil.rmtree(run_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
