"""Per-plane shell profile: the reference that ``spectral.energy_cutoff`` is pinned against.

A plane's max(H, W) // 2 shells are equal-width rings of normalized radius
reaching the corner; a coefficient lies in shell j when
edge_j <= r < edge_{j+1}, and the corner in the last shell. Energy is |F|.
Each shell is summed with its own boolean mask, one plane at a time, so the
reference shares no binning code with ``spectral``.
"""

import numpy as np

from nimbus import spectral


def radial_profile(plane):
    """(edges, amplitude, cumulative) of one real (H, W) plane.

    ``edges`` are the shells' upper edges, ``amplitude`` the shell-mean |F|
    and ``cumulative`` the fraction of total |F| up to each shell; an
    all-zero plane's cumulative is 1 in every shell.
    """
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    r = spectral.normalized_radius(h, w)
    b = max(h, w) // 2
    width = r.max() / b
    shell = np.minimum((r / width).astype(int), b - 1)
    mag = np.abs(np.fft.fft2(plane))
    totals = np.array([mag[shell == j].sum() for j in range(b)])
    counts = np.array([np.count_nonzero(shell == j) for j in range(b)])
    amplitude = np.divide(totals, counts, out=np.zeros(b), where=counts > 0)
    grand = totals.sum()
    cumulative = np.cumsum(totals) / grand if grand > 0 else np.ones(b)
    return width * np.arange(1, b + 1), amplitude, cumulative


def scan_cutoff(plane, gamma):
    """The first shell edge whose cumulative energy reaches gamma, by a linear scan."""
    edges, _, cumulative = radial_profile(plane)
    for edge, e in zip(edges, cumulative):
        if e >= gamma:
            return edge
    return edges[-1]


def shell_mass_at(plane, r_cut):
    """The energy fraction of the shell whose upper edge is ``r_cut``."""
    edges, _, cumulative = radial_profile(plane)
    idx = int(np.searchsorted(edges, r_cut - 1e-12))
    return cumulative[idx] - (cumulative[idx - 1] if idx else 0.0)
