"""2D Fourier analysis: radial amplitude spectra, cumulative energy, masks.

Frequency radii are normalized per axis by the axis Nyquist index, so r = 1
is the Nyquist frequency of each axis and grid corners reach sqrt(2). This
keeps rectangular grids consistent. Shell statistics use the magnitude |F|
(amplitude), not power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

R_CORNER = float(np.sqrt(2.0))


def normalized_radius(h: int, w: int) -> np.ndarray:
    """Radius r = sqrt((u'/(H/2))^2 + (v'/(W/2))^2) in unshifted FFT layout."""
    fy = np.fft.fftfreq(h) * h / (h / 2.0)
    fx = np.fft.fftfreq(w) * w / (w / 2.0)
    return np.hypot(fy[:, None], fx[None, :])


@dataclass(frozen=True)
class Spectrum2D:
    """Full (unshifted) complex 2D spectra of real fields, one per (H, W) plane.

    ``coeffs`` is (..., H, W): any leading axes index planes.
    """

    coeffs: np.ndarray
    h: int
    w: int


@dataclass(frozen=True)
class SpectralProfile:
    """Shell-averaged amplitude A(r) and cumulative energy E(r) of each plane.

    ``radii`` are the upper edges of the equal-width shells; a coefficient
    belongs to shell j when edge_j <= r < edge_{j+1}. ``amplitude`` and
    ``cumulative`` are (..., shells), one row per plane. ``degenerate``
    (shaped like the leading plane axes) marks an all-zero spectrum, for
    which E is defined as identically 1.
    """

    radii: np.ndarray
    amplitude: np.ndarray
    cumulative: np.ndarray
    degenerate: np.ndarray


def fft2(x) -> Spectrum2D:
    """Spectrum of each (H, W) plane of a real field (..., H, W)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 2 or x.shape[-1] < 2:
        raise DomainError(f"fft2 expects (..., H, W) planes of size >= 2x2, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("fft2 input contains non-finite values")
    return Spectrum2D(coeffs=np.fft.fft2(x, axes=(-2, -1)), h=x.shape[-2], w=x.shape[-1])


def _bin_sums(mag: np.ndarray, idx: np.ndarray, nbins: int) -> np.ndarray:
    """(planes, nbins) sums of each row of ``mag`` (planes, H*W) over the bins ``idx`` assigns."""
    planes = mag.shape[0]
    # Plane p's coefficients fall in bins p*nbins ... p*nbins + nbins - 1, in
    # the same order as a bincount of that plane alone.
    bins = (idx[None, :] + nbins * np.arange(planes)[:, None]).ravel()
    return np.bincount(bins, weights=mag.ravel(), minlength=planes * nbins).reshape(planes, nbins)


def radial_profile(s: Spectrum2D) -> SpectralProfile:
    """Shell-average |F| over circular frequency shells and accumulate energy, per plane."""
    r = normalized_radius(s.h, s.w)
    b = max(s.h, s.w) // 2  # one shell per integer radius of the finer axis
    r_max = float(r.max())
    width = r_max / b
    idx = np.minimum((r / width).astype(np.intp), b - 1).ravel()
    lead = s.coeffs.shape[:-2]
    mag = np.abs(s.coeffs).reshape(-1, idx.size)
    planes = mag.shape[0]
    totals = _bin_sums(mag, idx, b)
    counts = np.bincount(idx, minlength=b)
    amplitude = np.divide(totals, counts, out=np.zeros((planes, b)), where=counts > 0)

    grand = totals.sum(axis=1)
    degenerate = grand <= 0.0
    cumulative = np.ones((planes, b))
    live = ~degenerate
    cumulative[live] = np.cumsum(totals[live], axis=1) / grand[live, None]
    return SpectralProfile(
        radii=width * np.arange(1, b + 1),
        amplitude=amplitude.reshape(lead + (b,)),
        cumulative=cumulative.reshape(lead + (b,)),
        degenerate=degenerate.reshape(lead),
    )


def cutoff_for_ratio(p: SpectralProfile, gamma: float):
    """Smallest shell radius whose cumulative energy reaches gamma, per plane.

    A float for one plane, else an array shaped like the leading plane axes.
    """
    if not (0.0 < gamma <= 1.0):
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    # E is non-decreasing, so the shells below gamma precede the first that reaches it.
    idx = np.minimum(np.count_nonzero(p.cumulative < gamma, axis=-1), len(p.radii) - 1)
    return p.radii[idx]


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
    return lowpass_spectrum(Spectrum2D(np.fft.fft2(x, axes=(-2, -1)), *x.shape[-2:]), r)


def lowpass_spectrum(s: Spectrum2D, r_cut) -> np.ndarray:
    """The real planes of ``s`` with every coefficient of radius >= r_cut zeroed.

    ``r_cut`` is a radius, or one per plane, as in :func:`lowpass`, which
    transforms its input and calls this.
    """
    mask = normalized_radius(s.h, s.w) < np.asarray(r_cut, dtype=np.float64)[..., None, None]
    return np.fft.ifft2(s.coeffs * mask, axes=(-2, -1)).real


def band_energy(x, band_edges) -> np.ndarray:
    """Per-band fraction of total |F| of each (H, W) plane of x (..., H, W).

    Bands partition [0, max radius]; the result is (..., bands). An all-zero
    plane reads 1 in the first band and 0 in the others.
    """
    edges = np.asarray(band_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("band_edges must be an ascending list of at least 2 edges")
    s = fft2(x)
    r = normalized_radius(s.h, s.w)
    if edges[0] > 0.0 or edges[-1] < r.max() - 1e-12:
        raise DomainError("band_edges must start at 0 and cover the maximum radius")
    nb = edges.size - 1
    # Last band is closed above so the corner coefficient is counted.
    idx = np.minimum(np.searchsorted(edges, r.ravel(), side="right") - 1, nb - 1)
    mag = np.abs(s.coeffs).reshape(-1, idx.size)
    total = mag.sum(axis=1)
    out = np.zeros((mag.shape[0], nb))
    out[:, 0] = 1.0
    live = total > 0
    out[live] = _bin_sums(mag[live], idx, nb) / total[live, None]
    return out.reshape(s.coeffs.shape[:-2] + (nb,))
