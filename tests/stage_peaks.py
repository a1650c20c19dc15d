"""Print the peak RSS and wall time of each CLI stage the ``train`` and ``forecast`` bench workloads run.

Run as ``python3 tests/stage_peaks.py [--seed N] [--workers N] [--grid HxW]``
from a checkout. In a temporary directory it runs ``gen-data``,
``train-vae``, ``train-mae`` and ``train-diffusion`` at ``perfbench/run.py``'s
pinned ``TRAIN_CONFIG``, then ``forecast`` from those checkpoints at its
``FORECAST_CONFIG``. Each stage runs in a fresh process with the environment
the bench gives its stages: this checkout's ``src/`` on the path, BLAS and
allocator variables dropped. INFO logging is off. One line per stage gives
the process's ``ru_maxrss`` in MB, the peak of its largest worker process
(the run manifest's ``peak_rss_mb.children``: a forecast member process or
a training or precompute process; 0 for a stage that forks none, as at
``--workers 1``), and its wall time, which includes interpreter start-up
and imports.
``--workers`` is passed on only when given, so by default the stages use
the CLI's default, as the bench's do. ``--grid`` sets ``data.h`` and
``data.w`` in both configs, for a resolution ladder; without it the grid is
the bench's. The largest peak of the four training stages is the ``train``
workload's ``peak_rss_mb``, and the ``forecast`` line is the ``forecast``
workload's: the bench reads the stage process alone, not its workers. A
last line gives the ``train`` figure and the stage it comes from.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402

# Each stage with the bench config it runs at.
STAGES = (
    ("gen-data", "TRAIN_CONFIG"),
    ("train-vae", "TRAIN_CONFIG"),
    ("train-mae", "TRAIN_CONFIG"),
    ("train-diffusion", "TRAIN_CONFIG"),
    ("forecast", "FORECAST_CONFIG"),
)


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


def grid_size(text):
    """(H, W) from ``HxW``."""
    try:
        h, w = (int(n) for n in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, such as 256x512, got {text!r}") from None
    return h, w


def write_configs(root, grid):
    """The path of each bench config in ``root``, with ``data.h`` and ``data.w`` from ``grid``."""
    paths = {}
    for name in ("TRAIN_CONFIG", "FORECAST_CONFIG"):
        cfg = dict(getattr(bench, name))
        if grid is not None:
            cfg["data"] = {**cfg.get("data", {}), "h": grid[0], "w": grid[1]}
        paths[name] = os.path.join(root, f"{name.lower()}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--grid", type=grid_size, default=None, metavar="HxW")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as root:
        configs = write_configs(root, args.grid)
        print(f"{'stage':<16} {'peak_rss_mb':>11} {'workers_peak_mb':>15} {'wall_s':>7}")
        train = []
        for stage, config in STAGES:
            argv = [stage, "--config", configs[config], "--out", root, "--seed", str(args.seed)]
            if args.workers is not None:
                argv += ["--workers", str(args.workers)]
            code, peak, wall = run_stage(argv)
            if code != 0:
                raise SystemExit(f"nimbus {' '.join(argv)} exited {code}")
            with open(os.path.join(root, "manifest.json")) as fh:
                workers = json.load(fh)["peak_rss_mb"]["children"]
            print(f"{stage:<16} {peak:>11.1f} {workers:>15.1f} {wall:>7.2f}", flush=True)
            if config == "TRAIN_CONFIG":
                train.append((peak, stage))
        peak, stage = max(train)
        print(f"train workload peak_rss_mb {peak:.1f} ({stage})")


if __name__ == "__main__":
    main()
