"""Print the sha256 of every file a TINY run of each CLI stage writes, and of the bench's run.

Run as ``python3 tests/artifact_hashes.py [--workers N]`` from a checkout;
it imports the ``nimbus`` package from that checkout's ``src/``. In a
temporary directory it runs ``gen-data``, ``train-vae``, ``train-mae``,
``train-diffusion``, ``forecast``, ``evaluate`` and ``diagnose`` at
``--seed 3 --workers N`` (default 2) once per ``vae.regularizer``, then
``ablate``, then every stage again with ``sampler.s_churn`` 2.5, again
at ``sampler.steps`` 6, whose later steps are the sampler's third-order
ones (at 3 steps it takes none), and again at ``mae.spatial_strides``
[1, 4], whose 3-wide kernel at stride 4 leaves one input phase with no
taps and the last padded rows read by no window. Then it runs ``gen-data``
once without ``--seed``, the default seed 0. Last, it runs ``gen-data`` and
the three ``train-*`` stages at ``perfbench/run.py``'s pinned
``TRAIN_CONFIG`` and ``forecast`` at its ``FORECAST_CONFIG``, on the default
64x128 grid. TINY's GEMMs sit near the size at which OpenBLAS switches to a
small-matrix kernel that rounds otherwise, so a change in how many rows a
GEMM computes can move TINY's bytes and not the bench's, or the reverse;
the bench-config lines show which. It prints one ``sha256  path`` line per
file. The run manifests hold the wall-clock time and are left out. Two
checkouts whose tables match wrote the same bytes, so a refactor that
claims byte-identical outputs diffs the two tables, and tables at several
``--workers`` show that no output depends on the worker count.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from nimbus import cli  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

import run as bench  # noqa: E402

# The test suite's TINY config, with the frame AE that `ablate` conditions on
# and six VAE iterations: within six, SE draws a box factor other than 1, so
# each regularizer trains its own VAE.
TINY = {
    "data": {"h": 16, "w": 32, "v": 3, "t": 40},
    "vae": {"iters": 6, "batch": 2, "base_channels": 4, "latent_channels": 4},
    "mae": {"iters": 2, "batch": 1, "channels": [4, 6], "latent_channels": 4, "decoder_channels": 4},
    "frame_ae": {"iters": 2, "batch": 1, "base_channels": 4, "latent_channels": 4},
    "diffusion": {"iters": 2, "batch": 2, "hidden": 6, "blocks": 1, "emb_dim": 4},
    "sampler": {"steps": 3},
    "forecast": {"members": 2, "t_lead": 2, "train_frames": 24},
    "ablate": {"replicates": 2, "members": 2},
}
STAGES = ("gen-data", "train-vae", "train-mae", "train-diffusion", "forecast", "evaluate", "diagnose")
REGULARIZERS = ("none", "se", "ffm", "vamfm")


def run(root, name, config, stages, workers, seed=("--seed", "3")):
    out = os.path.join(root, name)
    path = os.path.join(root, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    for stage in stages:
        argv = [stage, "--config", path, "--out", out, *seed, "--workers", str(workers)]
        if cli.main(argv) != 0:
            raise SystemExit(f"nimbus {' '.join(argv)} failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    workers = parser.parse_args().workers
    with tempfile.TemporaryDirectory() as root:
        for reg in REGULARIZERS:
            run(root, reg, {**TINY, "vae": {**TINY["vae"], "regularizer": reg}}, STAGES, workers)
        run(root, "ablate", TINY, ("gen-data", "ablate"), workers)
        run(root, "churn", {**TINY, "sampler": {**TINY["sampler"], "s_churn": 2.5}}, STAGES, workers)
        run(root, "steps6", {**TINY, "sampler": {"steps": 6}}, STAGES, workers)
        run(root, "stride4", {**TINY, "mae": {**TINY["mae"], "spatial_strides": [1, 4]}}, STAGES, workers)
        run(root, "default_seed", TINY, ("gen-data",), workers, seed=())
        run(root, "bench", bench.TRAIN_CONFIG, STAGES[:4], workers)
        run(root, "bench", bench.FORECAST_CONFIG, ("forecast",), workers)
        for name in (*REGULARIZERS, "ablate", "churn", "steps6", "stride4", "default_seed", "bench"):
            for dirpath, dirnames, filenames in os.walk(os.path.join(root, name)):
                dirnames.sort()
                for fname in sorted(filenames):
                    path = os.path.join(dirpath, fname)
                    rel = os.path.relpath(path, root)
                    if rel == os.path.join(name, "manifest.json"):
                        continue
                    with open(path, "rb") as fh:
                        print(f"{hashlib.sha256(fh.read()).hexdigest()}  {rel}")


if __name__ == "__main__":
    main()
