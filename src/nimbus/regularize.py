"""Spectral-regularization schedule for the autoencoder.

The strategies themselves are applied by ``models.build_targets`` (input
side) and ``models.mask_latent`` (latent side); this module holds what they
share:

* ``Strategy``: VAMFM (per-variable input cutoffs, each plane keeping the
  fraction gamma of its spectral energy; latent low-passed at radius gamma),
  FFM (one fixed input cutoff per gamma, ``FFM_INPUT_CUTOFFS``, with the same
  latent cutoff), SE (input and latent box-downsampled by an integer factor)
  and NONE.
* ``GAMMA_CHOICES`` and ``sample_gamma``: the masking schedule.
* ``box_downsample``: the SE projection.

gamma = 1.0 always reduces to the unmasked (NONE) behavior exactly.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainError

GAMMA_CHOICES = (0.25, 0.5, 0.75, 1.0)

# Input-side cutoffs quoted for the fixed-mask baseline, paired with the
# latent ratios in order: 0.25->0.05, 0.5->0.10, 0.75->0.20, 1.0->none.
FFM_INPUT_CUTOFFS = {0.25: 0.05, 0.5: 0.10, 0.75: 0.20, 1.0: 1.0}


class Strategy(str, enum.Enum):
    VAMFM = "vamfm"
    FFM = "ffm"
    SE = "se"
    NONE = "none"


def sample_gamma(rng: np.random.Generator) -> float:
    """Draw gamma uniformly from the 4-element masking schedule."""
    return float(GAMMA_CHOICES[rng.integers(len(GAMMA_CHOICES))])


def box_downsample(a, factor: int) -> np.ndarray:
    """Area-average downsampling of the trailing two axes."""
    a = np.asarray(a, dtype=np.float64)
    if factor == 1:
        return a.copy()
    h, w = a.shape[-2], a.shape[-1]
    if h % factor or w % factor:
        raise DomainError(f"factor {factor} does not divide spatial dims ({h},{w})")
    shape = a.shape[:-2] + (h // factor, factor, w // factor, factor)
    return a.reshape(shape).mean(axis=(-3, -1))
