"""Print how far one run's outputs drifted from another's: checkpoints, members and scores.

Run as ``python3 tests/drift.py PARENT_OUT CHANGE_OUT`` from a checkout; it
imports the ``nimbus`` package from that checkout's ``src/``. Both
directories are ``--out`` directories of the same pipeline, run by two
commits at the same seeds. For what PARENT_OUT holds, it prints:

- per tensor of each ``*.pypt`` checkpoint, the largest relative
  difference, max |change - parent| / max |parent|;
- per member file of ``forecast/``, max |change - parent| over the parent
  ensemble's mean member spread (the standard deviation over members,
  averaged over every point, lead and variable). Same-seed members share
  their noise, so a change that only moves rounding reads far below 1;
- per score of ``metrics.json``, the mean over variables and leads of the
  change's table less the parent's, and the same for the rank histogram's
  chi-squared over its count (``rank_chi2_per_n``).

A directory against itself prints zeros. It is the comparison half of a
drift check for changes that move numerics: run the pipeline on both
commits first (default config, ``gen-data --seed 0``, each side training
its own checkpoints), then compare each seed's directories.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from nimbus import autodiff as ad  # noqa: E402
from nimbus import forecast  # noqa: E402


def checkpoint_drift(parent, change):
    """(checkpoint, tensor, relative difference) for every tensor of PARENT_OUT's checkpoints."""
    rows = []
    for path in sorted(glob.glob(os.path.join(parent, "*.pypt"))):
        name = os.path.basename(path)
        a, b = ad.load_params(path), ad.load_params(os.path.join(change, name))
        for key, arr in a.items():
            scale = float(np.abs(arr).max()) or 1.0
            rows.append((name, key, float(np.abs(b[key] - arr).max()) / scale))
    return rows


def member_drift(parent, change):
    """(member file, max |difference| over the parent's mean member spread) per member."""
    if not os.path.exists(os.path.join(parent, "forecast", "manifest.json")):
        return []
    a = forecast.read_forecast(os.path.join(parent, "forecast")).fields
    b = forecast.read_forecast(os.path.join(change, "forecast")).fields
    spread = float(a.std(axis=0, ddof=1, dtype=np.float64).mean()) if len(a) > 1 else 1.0
    diff = np.abs(b.astype(np.float64) - a)
    return [(f"forecast/member_{m:03d}.pyld", float(diff[m].max()) / spread) for m in range(len(a))]


def chi2_per_n(counts):
    """The rank histogram's chi-squared against a flat one, over its count."""
    counts = np.asarray(counts, np.float64)
    n = counts.sum()
    expected = n / len(counts)
    return float(np.sum((counts - expected) ** 2) / expected / n)


def score_drift(parent, change):
    """(score, mean of the change's table less the parent's) per score of metrics.json."""
    path = os.path.join(parent, "metrics.json")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        a = json.load(fh)
    with open(os.path.join(change, "metrics.json")) as fh:
        b = json.load(fh)
    rows = [(k, float(np.nanmean(b["scores"][k]) - np.nanmean(v))) for k, v in sorted(a["scores"].items())]
    rows.append(("rank_chi2_per_n", chi2_per_n(b["rank_counts"]) - chi2_per_n(a["rank_counts"])))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_OUT")
    parser.add_argument("change", metavar="CHANGE_OUT")
    args = parser.parse_args()
    print("checkpoint tensor: max |change - parent| / max |parent|")
    for name, key, rel in checkpoint_drift(args.parent, args.change):
        print(f"  {name} {key} {rel:.3g}")
    print("member: max |change - parent| / parent mean member spread")
    for name, ratio in member_drift(args.parent, args.change):
        print(f"  {name} {ratio:.3g}")
    print("score: mean(change) - mean(parent)")
    for name, delta in score_drift(args.parent, args.change):
        print(f"  {name} {delta:+.3g}")


if __name__ == "__main__":
    main()
