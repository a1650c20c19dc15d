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
    """Full (unshifted) complex 2D spectrum of a real field."""

    coeffs: np.ndarray
    h: int
    w: int


@dataclass(frozen=True)
class SpectralProfile:
    """Shell-averaged amplitude A(r) and cumulative energy E(r).

    ``radii`` are the upper edges of the equal-width shells; a coefficient
    belongs to shell j when edge_j <= r < edge_{j+1}. ``degenerate`` marks an
    all-zero spectrum, for which E is defined as identically 1.
    """

    radii: np.ndarray
    amplitude: np.ndarray
    cumulative: np.ndarray
    degenerate: bool = False


def fft2(x) -> Spectrum2D:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise DomainError(f"fft2 expects a 2D field of size >= 2x2, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("fft2 input contains non-finite values")
    return Spectrum2D(coeffs=np.fft.fft2(x), h=x.shape[0], w=x.shape[1])


def shell_count(h: int, w: int) -> int:
    """One shell per integer radius of the finer axis."""
    return max(h, w) // 2


def radial_profile(s: Spectrum2D, bins: int | None = None) -> SpectralProfile:
    """Shell-average |F| over circular frequency shells and accumulate energy."""
    r = normalized_radius(s.h, s.w)
    b = bins if bins is not None else shell_count(s.h, s.w)
    r_max = float(r.max())
    width = r_max / b
    idx = np.minimum((r / width).astype(np.intp), b - 1)
    mag = np.abs(s.coeffs)

    flat_idx = idx.ravel()
    totals = np.bincount(flat_idx, weights=mag.ravel(), minlength=b)
    counts = np.bincount(flat_idx, minlength=b)
    amplitude = np.divide(totals, counts, out=np.zeros(b), where=counts > 0)

    grand = totals.sum()
    radii = width * np.arange(1, b + 1)
    if grand <= 0.0:
        return SpectralProfile(
            radii=radii, amplitude=amplitude, cumulative=np.ones(b), degenerate=True
        )
    cumulative = np.cumsum(totals) / grand
    return SpectralProfile(radii=radii, amplitude=amplitude, cumulative=cumulative)


def cutoff_for_ratio(p: SpectralProfile, gamma: float) -> float:
    """Smallest shell radius whose cumulative energy reaches gamma."""
    if not (0.0 < gamma <= 1.0):
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    idx = int(np.searchsorted(p.cumulative, gamma, side="left"))
    idx = min(idx, len(p.radii) - 1)
    return float(p.radii[idx])


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
    mask = normalized_radius(x.shape[-2], x.shape[-1]) < r[..., None, None]
    coeffs = np.fft.fft2(x, axes=(-2, -1)) * mask
    return np.fft.ifft2(coeffs, axes=(-2, -1)).real


def band_energy(x, band_edges) -> np.ndarray:
    """Per-band fraction of total |F|; bands partition [0, max radius]."""
    edges = np.asarray(band_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("band_edges must be an ascending list of at least 2 edges")
    s = fft2(x)
    r = normalized_radius(s.h, s.w)
    if edges[0] > 0.0 or edges[-1] < r.max() - 1e-12:
        raise DomainError("band_edges must start at 0 and cover the maximum radius")
    mag = np.abs(s.coeffs)
    total = mag.sum()
    # Last band is closed above so the corner coefficient is counted.
    idx = np.minimum(np.searchsorted(edges, r.ravel(), side="right") - 1, edges.size - 2)
    sums = np.bincount(idx, weights=mag.ravel(), minlength=edges.size - 1)
    if total <= 0:
        out = np.zeros(edges.size - 1)
        out[0] = 1.0
        return out
    return sums / total
