"""Print the sha256 of every file a TINY run of each CLI stage writes.

Run as ``python3 tests/artifact_hashes.py`` from a checkout; it imports the
``nimbus`` package from that checkout's ``src/``. In a temporary directory it
runs ``gen-data``, ``train-vae``, ``train-mae``, ``train-diffusion``,
``forecast``, ``evaluate`` and ``diagnose`` at ``--seed 3 --workers 2`` once
per ``vae.regularizer``, then ``ablate``, then every stage again with
``sampler.s_churn`` 2.5, and prints one ``sha256  path`` line per file. The run manifests hold the wall-clock time and are left out. Two
checkouts whose tables match wrote the same bytes, so a refactor that claims
byte-identical outputs diffs the two tables.

pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from nimbus import cli  # noqa: E402

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


def run(root, name, config, stages):
    out = os.path.join(root, name)
    path = os.path.join(root, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    for stage in stages:
        argv = [stage, "--config", path, "--out", out, "--seed", "3", "--workers", "2"]
        if cli.main(argv) != 0:
            raise SystemExit(f"nimbus {' '.join(argv)} failed")


def main():
    with tempfile.TemporaryDirectory() as root:
        for reg in REGULARIZERS:
            run(root, reg, {**TINY, "vae": {**TINY["vae"], "regularizer": reg}}, STAGES)
        run(root, "ablate", TINY, ("gen-data", "ablate"))
        run(root, "churn", {**TINY, "sampler": {**TINY["sampler"], "s_churn": 2.5}}, STAGES)
        for name in (*REGULARIZERS, "ablate", "churn"):
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
