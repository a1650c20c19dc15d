"""Spectral-regularization strategies of the autoencoder and their schedule.

Each VAE training iteration draws one (gamma, se_factor) pair with
:func:`draw`. ``models.build_targets`` then changes the reconstruction
target (input side) and ``models.mask_latent`` the sampled latent before
decoding (latent side):

* VAMFM: each (sample, variable) target plane keeps the fraction gamma of
  its own |F| energy, cut at the first shell edge that reaches it
  (``spectral.energy_cutoff``); the latent is low-passed at radius gamma.
* FFM: every target plane is low-passed at the fixed radius
  ``FFM_INPUT_CUTOFFS[gamma]``; the latent as in VAMFM.
* SE: target and latent are box-averaged by ``se_factor``, drawn from
  ``SE_FACTORS``; gamma stays 1.
* NONE: target and latent pass unchanged.

gamma = 1.0 always reduces to the unmasked (NONE) behavior exactly.
"""

from __future__ import annotations

import enum

import numpy as np

GAMMA_CHOICES = (0.25, 0.5, 0.75, 1.0)
SE_FACTORS = (1, 2, 4)

# Input-side cutoffs quoted for the fixed-mask baseline, paired with the
# latent ratios in order: 0.25->0.05, 0.5->0.10, 0.75->0.20, 1.0->none.
FFM_INPUT_CUTOFFS = {0.25: 0.05, 0.5: 0.10, 0.75: 0.20, 1.0: 1.0}


class Strategy(str, enum.Enum):
    VAMFM = "vamfm"
    FFM = "ffm"
    SE = "se"
    NONE = "none"


def draw(strategy: Strategy, rng: np.random.Generator) -> tuple[float, int]:
    """One iteration's (gamma, se_factor), each drawn uniformly from its schedule.

    SE draws a factor and VAMFM and FFM a gamma, one ``rng`` call each; NONE
    draws nothing.
    """
    if strategy == Strategy.SE:
        return 1.0, int(rng.choice(SE_FACTORS))
    if strategy == Strategy.NONE:
        return 1.0, 1
    return float(GAMMA_CHOICES[rng.integers(len(GAMMA_CHOICES))]), 1
