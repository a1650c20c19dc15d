"""Print the sampler's analytic-oracle error at each step count.

Run as ``python3 tests/sampler_sweep.py [--steps 8 18] [--seeds 40]`` from a
checkout; it imports the ``nimbus`` package from that checkout's ``src/``.
Each row samples ``test_cli_default_schedule``'s oracle draw with
``edm.sample_deterministic`` at the default config's ``sigma_min``,
``sigma_max`` and ``rho``: for each seed, ``rng([seed, 23])`` draws a
4-dimensional N(mu, diag(cov)) target with mu ~ N(0, 1) and cov ~ U(0.05, 1),
then 20,000 samples. A row gives the worst variance-ratio error over the seeds
(that test's bound is 0.11), the seed it occurs at, and how many seeds fail
that test's mean check. ``--seeds 400`` is the draw that ``perfbench``'s
oracle check takes at seeds 0-399.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from nimbus import cli, edm  # noqa: E402

SAMPLES = 20000


def oracle_errors(cfg: edm.EdmConfig, seed: int):
    """(variance-ratio error, mean check passed) of one seed's draw."""
    rng = np.random.default_rng([seed, 23])
    mu = rng.normal(0.0, 1.0, size=4)
    cov = rng.uniform(0.05, 1.0, size=4)
    x = edm.sample_deterministic(edm.analytic_gaussian_denoiser(mu, cov), (SAMPLES, 4), rng, cfg)
    var_err = float(np.abs(x.var(axis=0, ddof=1) / cov - 1).max())
    mean_tol = 5 * np.sqrt(cov / SAMPLES) + (np.abs(mu) / cfg.sigma_max + 0.01) * np.sqrt(cov)
    return var_err, bool(np.all(np.abs(x.mean(axis=0) - mu) <= mean_tol))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, nargs=2, default=(8, 18), metavar=("FIRST", "LAST"))
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args()
    s = cli.DEFAULT_CONFIG["sampler"]
    print(f"{'steps':>5} {'worst_var_err':>13} {'at_seed':>7} {'mean_fails':>10}")
    for steps in range(args.steps[0], args.steps[1] + 1):
        cfg = edm.EdmConfig(
            sigma_data=1.0, sigma_min=s["sigma_min"], sigma_max=s["sigma_max"], rho=s["rho"], steps=steps
        )
        errs = [oracle_errors(cfg, seed) for seed in range(args.seeds)]
        worst = max(range(args.seeds), key=lambda seed: errs[seed][0])
        fails = sum(not ok for _, ok in errs)
        print(f"{steps:>5} {errs[worst][0]:>13.3f} {worst:>7} {fails:>10}", flush=True)


if __name__ == "__main__":
    main()
