"""Reference computations the benchmark checks the program against.

Everything here is plain numpy and written apart from ``nimbus``: a reader
for the PYLD field container, direct-formula ensemble scores, and the
analytic expectations of those scores for an exchangeable Gaussian
ensemble. The harness imports this module without importing the program.
"""

from __future__ import annotations

import math
import struct

import numpy as np

PYLD_MAGIC = b"PYLD0001"


def read_pyld(path):
    """Return (data (T, V, H, W) float32, lat, lon, names) from a PYLD file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:8] != PYLD_MAGIC:
        raise ValueError(f"{path}: not a PYLD file")
    t, v, h, w = struct.unpack_from("<4I", buf, 8)
    pos = 24
    names = []
    for _ in range(v):
        (n,) = struct.unpack_from("<H", buf, pos)
        names.append(buf[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n + 32
    lat = np.frombuffer(buf, "<f8", h, pos)
    pos += 8 * h
    lon = np.frombuffer(buf, "<f8", w, pos)
    pos += 8 * w
    if len(buf) - pos != 4 * t * v * h * w:
        raise ValueError(f"{path}: payload size does not match header")
    data = np.frombuffer(buf, "<f4", t * v * h * w, pos).reshape(t, v, h, w)
    return data, lat, lon, names


def cos_lat(lat):
    """Area weights proportional to cos(latitude)."""
    return np.cos(np.deg2rad(np.asarray(lat, dtype=np.float64)))


def _weighted_mean(values, lat_w):
    """Mean over trailing (H, W) axes with weights lat_w along H."""
    w = np.asarray(lat_w, dtype=np.float64)[:, None]
    return (values * w).sum(axis=(-2, -1)) / (w.sum() * values.shape[-1])


def rmse_direct(members, truth, lat_w):
    """RMSE of the ensemble mean: members (M, ..., H, W), truth (..., H, W)."""
    f = np.asarray(members, dtype=np.float64)
    y = np.asarray(truth, dtype=np.float64)
    return np.sqrt(_weighted_mean(np.square(f.mean(axis=0) - y), lat_w))


def crps_fair_direct(members, truth, lat_w):
    """Fair CRPS by the pairwise formula, weighted mean over (H, W).

    (1/M) sum_i |x_i - y| - 1/(2 M (M-1)) sum_{i != j} |x_i - x_j|
    """
    f = np.asarray(members, dtype=np.float64)
    y = np.asarray(truth, dtype=np.float64)
    m = f.shape[0]
    skill = np.abs(f - y).mean(axis=0)
    pairs = np.zeros_like(y)
    for i in range(m):
        for j in range(m):
            if i != j:
                pairs += np.abs(f[i] - f[j])
    return _weighted_mean(skill - pairs / (2.0 * m * (m - 1)), lat_w)


def ssr_direct(members, truth, lat_w):
    """sqrt((M+1)/M * weighted mean member variance) / RMSE of the mean."""
    f = np.asarray(members, dtype=np.float64)
    m = f.shape[0]
    spread = np.sqrt((m + 1) / m * _weighted_mean(f.var(axis=0, ddof=1), lat_w))
    return spread / rmse_direct(f, truth, lat_w)


# Expectations for truth and M members drawn independently from N(c, sigma^2).


def expected_crps_fair(sigma):
    """E[fair CRPS] = E|X - Y| - E|X - X'| / 2 = 2s/sqrt(pi) - s/sqrt(pi)."""
    return sigma / math.sqrt(math.pi)


def expected_mean_mse(sigma, m):
    """E[(mean of M members - truth)^2] = sigma^2 / M + sigma^2."""
    return sigma**2 * (1.0 + 1.0 / m)


def relative_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
