"""Print the peak RSS and wall time of each CLI stage the ``train`` bench workload runs.

Run as ``python3 tests/stage_peaks.py [--seed N] [--workers N]`` from a
checkout. In a temporary directory it runs ``gen-data``, ``train-vae``,
``train-mae`` and ``train-diffusion`` at ``perfbench/run.py``'s pinned
``TRAIN_CONFIG``, each in a fresh process with the environment the bench
gives its stages: this checkout's ``src/`` on the path, BLAS and allocator
variables dropped. INFO logging is off. One line per stage gives the
process's ``ru_maxrss`` in MB and its wall time, which includes interpreter
start-up and imports.
``--workers`` is passed on only when given, so by default the stages use
the CLI's default, as the bench's do. The largest peak is the workload's
``peak_rss_mb``.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402

STAGES = ("gen-data", "train-vae", "train-mae", "train-diffusion")


def run_stage(argv):
    """(exit code, peak RSS in MB, wall seconds) of one ``nimbus`` process."""
    cmd = [sys.executable, "-m", "nimbus.cli", *argv]
    t0 = time.perf_counter()
    env = {**bench.child_env(), "NIMBUS_LOG": "WARNING"}
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as root:
        cfg = bench.write_config(bench.Path(root), bench.TRAIN_CONFIG)
        print(f"{'stage':<16} {'peak_rss_mb':>11} {'wall_s':>7}")
        for stage in STAGES:
            argv = [stage, "--config", str(cfg), "--out", root, "--seed", str(args.seed)]
            if args.workers is not None:
                argv += ["--workers", str(args.workers)]
            code, peak, wall = run_stage(argv)
            if code != 0:
                raise SystemExit(f"nimbus {' '.join(argv)} exited {code}")
            print(f"{stage:<16} {peak:>11.1f} {wall:>7.2f}", flush=True)


if __name__ == "__main__":
    main()
