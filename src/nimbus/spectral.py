"""2D Fourier masks and spectral energy of real fields.

Frequency radii are normalized per axis by the axis Nyquist index, so r = 1
is the Nyquist frequency of each axis and grid corners reach sqrt(2). This
keeps rectangular grids consistent. Energy is the magnitude |F|
(amplitude), not power, summed over circular frequency shells: equal-width
shells for the VA-MFM cutoff (:func:`energy_cutoff`), caller-given bands
for the diagnostics (:func:`band_energy`). Spectra are the unshifted
``np.fft.fft2`` coefficients of (..., H, W) planes; leading axes index
planes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

R_CORNER = float(np.sqrt(2.0))


def normalized_radius(h: int, w: int) -> np.ndarray:
    """Radius r = sqrt((u'/(H/2))^2 + (v'/(W/2))^2) in unshifted FFT layout."""
    fy = np.fft.fftfreq(h) * h / (h / 2.0)
    fx = np.fft.fftfreq(w) * w / (w / 2.0)
    return np.hypot(fy[:, None], fx[None, :])


def _bin_sums(mag: np.ndarray, idx: np.ndarray, nbins: int) -> np.ndarray:
    """(planes, nbins) sums of each row of ``mag`` (planes, H*W) over the bins ``idx`` assigns."""
    planes = mag.shape[0]
    # Plane p's coefficients fall in bins p*nbins ... p*nbins + nbins - 1, in
    # the same order as a bincount of that plane alone.
    bins = (idx[None, :] + nbins * np.arange(planes)[:, None]).ravel()
    return np.bincount(bins, weights=mag.ravel(), minlength=planes * nbins).reshape(planes, nbins)


def energy_cutoff(coeffs: np.ndarray, gamma: float):
    """Smallest shell edge whose cumulative |F| reaches the fraction gamma, per plane.

    ``coeffs`` is ``np.fft.fft2`` of real (..., H, W) planes. The max(H, W) // 2
    shells have equal width and reach the corner radius; a coefficient
    belongs to shell j when edge_j <= r < edge_{j+1}, and the corner to the
    last shell. The cumulative energy E of an all-zero plane is 1 in every
    shell, so it reads the first edge. Returns a float for one plane, else
    an array shaped like the leading plane axes.
    """
    if not (0.0 < gamma <= 1.0):
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    r = normalized_radius(*coeffs.shape[-2:])
    b = max(coeffs.shape[-2:]) // 2  # one shell per integer radius of the finer axis
    width = float(r.max()) / b
    idx = np.minimum((r / width).astype(np.intp), b - 1).ravel()
    totals = _bin_sums(np.abs(coeffs).reshape(-1, idx.size), idx, b)
    grand = totals.sum(axis=1, keepdims=True)
    energy = np.divide(np.cumsum(totals, axis=1), grand, out=np.ones_like(totals), where=grand > 0.0)
    # E is non-decreasing, so the shells below gamma precede the first that reaches it.
    shell = np.minimum(np.count_nonzero(energy < gamma, axis=1), b - 1)
    return (width * (shell + 1)).reshape(coeffs.shape[:-2])[()]


def lowpass(x, r_cut) -> np.ndarray:
    """Zero every coefficient with radius >= r_cut in each (H, W) plane of x.

    ``r_cut`` is one radius for every plane or one per plane, shaped
    ``x.shape[:-2]``. The transform runs in float32 for float32 input and in
    float64 otherwise, and the result has that dtype.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    r = np.asarray(r_cut, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 2 or x.shape[-1] < 2:
        raise DomainError(f"lowpass expects (..., H, W) planes of size >= 2x2, got {x.shape}")
    if r.shape not in ((), x.shape[:-2]):
        raise DomainError(f"r_cut shape {r.shape} is neither scalar nor {x.shape[:-2]}")
    if np.any(r < 0.0):
        raise DomainError(f"r_cut must be non-negative, got {r_cut}")
    return lowpass_coeffs(np.fft.fft2(x), r)


def lowpass_coeffs(coeffs: np.ndarray, r_cut) -> np.ndarray:
    """The real planes of the spectra ``coeffs`` with every coefficient of radius >= r_cut zeroed.

    ``r_cut`` is a radius, or one per plane, as in :func:`lowpass`, which
    transforms its input and calls this.
    """
    mask = normalized_radius(*coeffs.shape[-2:]) < np.asarray(r_cut, dtype=np.float64)[..., None, None]
    return np.fft.ifft2(coeffs * mask).real


def band_energy(x, band_edges) -> np.ndarray:
    """Per-band fraction of total |F| of each (H, W) plane of x (..., H, W).

    Bands partition [0, max radius]; the result is (..., bands). An all-zero
    plane reads 1 in the first band and 0 in the others.
    """
    edges = np.asarray(band_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("band_edges must be an ascending list of at least 2 edges")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 2 or x.shape[-1] < 2:
        raise DomainError(f"band_energy expects (..., H, W) planes of size >= 2x2, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("band_energy input contains non-finite values")
    r = normalized_radius(*x.shape[-2:])
    if edges[0] > 0.0 or edges[-1] < r.max() - 1e-12:
        raise DomainError("band_edges must start at 0 and cover the maximum radius")
    nb = edges.size - 1
    # Last band is closed above so the corner coefficient is counted.
    idx = np.minimum(np.searchsorted(edges, r.ravel(), side="right") - 1, nb - 1)
    mag = np.abs(np.fft.fft2(x)).reshape(-1, idx.size)
    total = mag.sum(axis=1)
    out = np.zeros((mag.shape[0], nb))
    out[:, 0] = 1.0
    live = total > 0
    out[live] = _bin_sums(mag[live], idx, nb) / total[live, None]
    return out.reshape(x.shape[:-2] + (nb,))
