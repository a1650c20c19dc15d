"""Probabilistic forecast verification and latent-diffusability diagnostics.

All metrics are computed grid-pointwise and aggregated with latitude weights;
accumulations run in float64. CRPS defaults to the fair (unbiased) estimator;
the empirical estimator is kept for oracle tests and the M = 1 edge case.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from . import spectral
from .errors import DomainError


def _wmean(values: np.ndarray, weights) -> float:
    v = np.asarray(values, dtype=np.float64)
    if weights is None:
        return float(v.mean())
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), v.shape)
    return float((w * v).sum() / w.sum())


def rmse_ensemble_mean(forecast: np.ndarray, truth: np.ndarray, weights=None) -> float:
    """Latitude-weighted RMSE of the ensemble mean.

    forecast: (M, ...) members; truth: (...); weights broadcastable to truth.
    The ensemble-mean error is the mean of the member errors, equal to
    mean(forecast) - truth in exact arithmetic, so members that all equal the
    truth score exactly 0 (the float mean of equal values need not equal them).
    """
    forecast = np.asarray(forecast, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if forecast.shape[1:] != truth.shape:
        raise DomainError(f"forecast {forecast.shape} does not align with truth {truth.shape}")
    err2 = np.square((forecast - truth).mean(axis=0))
    return float(np.sqrt(_wmean(err2, weights)))


def _abs_gini(members: np.ndarray) -> np.ndarray:
    """sum_{i != j} |x_i - x_j| along axis 0, via the sorted-order identity."""
    m = members.shape[0]
    xs = np.sort(members, axis=0)
    coef = (2.0 * np.arange(m) - (m - 1)).reshape((m,) + (1,) * (members.ndim - 1))
    return 2.0 * np.sum(coef * xs, axis=0)


def crps_fair(members: np.ndarray, y) -> np.ndarray | float:
    """Fair (unbiased) ensemble CRPS, elementwise over trailing axes."""
    members = np.asarray(members, dtype=np.float64)
    m = members.shape[0]
    if m < 2:
        raise DomainError("fair CRPS requires at least 2 members")
    y = np.asarray(y, dtype=np.float64)
    term1 = np.mean(np.abs(members - y), axis=0)
    term2 = _abs_gini(members) / (2.0 * m * (m - 1))
    out = term1 - term2
    return float(out) if out.ndim == 0 else out


def crps_empirical(members: np.ndarray, y) -> np.ndarray | float:
    """Empirical-CDF CRPS (the 1/(2 M^2) estimator)."""
    members = np.asarray(members, dtype=np.float64)
    m = members.shape[0]
    if m < 1:
        raise DomainError("empirical CRPS requires at least 1 member")
    y = np.asarray(y, dtype=np.float64)
    term1 = np.mean(np.abs(members - y), axis=0)
    term2 = _abs_gini(members) / (2.0 * m * m)
    out = term1 - term2
    return float(out) if out.ndim == 0 else out


def crps_field(forecast: np.ndarray, truth: np.ndarray, weights=None, fair=True) -> float:
    """Weighted-average CRPS over a grid; forecast (M, ...), truth (...)."""
    fn = crps_fair if fair else crps_empirical
    return _wmean(fn(forecast, truth), weights)


def spread_skill_ratio(
    forecast: np.ndarray, truth: np.ndarray, weights=None, small_ensemble_correction=True
) -> float:
    """sqrt((M+1)/M * mean ensemble variance) / RMSE of the ensemble mean.

    The variance is taken over the member deviations from member 0, which
    leaves it unchanged in exact arithmetic but makes the spread of identical
    members exactly 0. An ensemble with zero spread thus scores exactly 0.0,
    whether or not it hits the truth (0/0 is reported as 0.0; a nonzero
    spread with zero RMSE as inf).
    """
    forecast = np.asarray(forecast, dtype=np.float64)
    m = forecast.shape[0]
    if m < 2:
        raise DomainError("SSR requires at least 2 members")
    var = (forecast - forecast[0]).var(axis=0, ddof=1)
    factor = (m + 1) / m if small_ensemble_correction else 1.0
    spread = np.sqrt(factor * _wmean(var, weights))
    rmse = rmse_ensemble_mean(forecast, truth, weights)
    if rmse == 0.0:
        return 0.0 if spread == 0.0 else float("inf")
    return float(spread / rmse)


def rank_histogram(forecasts: np.ndarray, truths: np.ndarray, rng=None):
    """Rank of each truth among its sorted members, ties randomized.

    forecasts: (N, M) member values per case; truths: (N,).
    Returns (counts[M+1], chi_square, p_value) with M degrees of freedom.
    """
    forecasts = np.asarray(forecasts, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if forecasts.ndim != 2 or truths.shape != (forecasts.shape[0],):
        raise DomainError("rank_histogram expects forecasts (N, M) and truths (N,)")
    if rng is None:
        rng = np.random.default_rng(0)
    n, m = forecasts.shape
    below = (forecasts < truths[:, None]).sum(axis=1)
    ties = (forecasts == truths[:, None]).sum(axis=1)
    ranks = below + rng.integers(0, ties + 1)
    counts = np.bincount(ranks, minlength=m + 1)
    expected = n / (m + 1)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chdtrc is what scipy.stats.chi2.sf calls; scipy.stats takes ~1 s to import.
    p = float(chdtrc(m, chi2))
    return counts, chi2, p


# ---------------------------------------------------------------------------
# Metric report
# ---------------------------------------------------------------------------


@dataclass
class MetricReport:
    """Per-(variable, lead) scores plus histogram and band-energy tables."""

    variables: list
    lead_hours: list
    scores: dict = field(default_factory=dict)  # metric -> (V, L) array
    rank_counts: np.ndarray | None = None
    band_tables: dict = field(default_factory=dict)

    def to_rows(self):
        rows = []
        for metric, table in self.scores.items():
            for vi, var in enumerate(self.variables):
                for li, lead in enumerate(self.lead_hours):
                    rows.append((var, lead, metric, float(table[vi, li])))
        return rows

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variable", "lead_hours", "metric", "value"])
            for var, lead, metric, value in self.to_rows():
                writer.writerow([var, lead, metric, f"{value:.8g}"])

    def to_json(self, path) -> None:
        doc = {
            "variables": list(self.variables),
            "lead_hours": list(self.lead_hours),
            "scores": {k: np.asarray(v).tolist() for k, v in self.scores.items()},
        }
        if self.rank_counts is not None:
            doc["rank_counts"] = np.asarray(self.rank_counts).tolist()
        if self.band_tables:
            doc["band_tables"] = {
                k: np.asarray(v).tolist() for k, v in self.band_tables.items()
            }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


def evaluate_ensemble(
    forecast_fields: np.ndarray,
    truth_fields: np.ndarray,
    variables,
    lead_hours,
    lat_weights=None,
    rank_seed: int = 0,
) -> MetricReport:
    """Score an (M, T, V, H, W) ensemble against (T, V, H, W) truth."""
    mm, tt, vv, hh, ww = forecast_fields.shape
    if truth_fields.shape != (tt, vv, hh, ww):
        raise DomainError(
            f"truth shape {truth_fields.shape} does not match forecast {forecast_fields.shape}"
        )
    w = None if lat_weights is None else np.asarray(lat_weights)[:, None]
    rmse = np.empty((vv, tt))
    crps = np.empty((vv, tt))
    crps_emp = np.empty((vv, tt))
    ssr = np.empty((vv, tt))
    for v in range(vv):
        for t in range(tt):
            f = forecast_fields[:, t, v]
            y = truth_fields[t, v]
            rmse[v, t] = rmse_ensemble_mean(f, y, w)
            crps[v, t] = crps_field(f, y, w, fair=mm >= 2)
            crps_emp[v, t] = crps_field(f, y, w, fair=False)
            ssr[v, t] = spread_skill_ratio(f, y, w) if mm >= 2 else np.nan
    rng = np.random.default_rng(rank_seed)
    flat_f = forecast_fields.transpose(1, 2, 3, 4, 0).reshape(-1, mm)
    flat_y = truth_fields.reshape(-1)
    counts, _, _ = rank_histogram(flat_f, flat_y, rng)
    return MetricReport(
        variables=list(variables),
        lead_hours=list(lead_hours),
        scores={
            "rmse_mean": rmse,
            "crps_fair": crps,
            "crps_empirical": crps_emp,
            "ssr": ssr,
        },
        rank_counts=counts,
    )


# ---------------------------------------------------------------------------
# Diffusability diagnostics
# ---------------------------------------------------------------------------

DEFAULT_BANDS = (0.0, 0.2, 0.5, 0.8, spectral.R_CORNER)


def latent_band_energy(latents: np.ndarray, bands=DEFAULT_BANDS) -> np.ndarray:
    """Mean per-band normalized energy over samples and channels.

    latents: (N, C, h, w). Returns (num_bands,).
    """
    latents = np.asarray(latents, dtype=np.float64)
    acc = np.zeros(len(bands) - 1)
    count = 0
    for n in range(latents.shape[0]):
        for c in range(latents.shape[1]):
            acc += spectral.band_energy(latents[n, c], bands)
            count += 1
    return acc / max(count, 1)


def diffusability_report(
    encoder_latents: np.ndarray,
    generated_latents: np.ndarray,
    bands=DEFAULT_BANDS,
    mask_radii=(0.4, 0.8, 1.2, spectral.R_CORNER + 1e-9),
    decoder=None,
    reference=None,
    weights=None,
) -> dict:
    """Band-energy tables for both latent families, plus an RMSE-vs-mask probe.

    The probe decodes each family after low-passing at every mask radius and
    scores the decoded fields against ``reference`` (same sample order).
    """
    enc = np.asarray(encoder_latents, dtype=np.float64)
    gen = np.asarray(generated_latents, dtype=np.float64)
    if enc.shape != gen.shape:
        raise DomainError("latent families must have matching shapes")
    report = {
        "bands": list(bands),
        "encoder_band_energy": latent_band_energy(enc, bands),
        "generated_band_energy": latent_band_energy(gen, bands),
    }
    if decoder is not None and reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        radii = list(mask_radii)
        rmse = {"encoder": [], "generated": []}
        for name, fam in (("encoder", enc), ("generated", gen)):
            for r in radii:
                decoded = decoder(spectral.lowpass(fam, r).astype(np.float32))
                err2 = np.square(decoded.astype(np.float64) - reference)
                rmse[name].append(float(np.sqrt(_wmean(err2, weights))))
        report["mask_radii"] = radii
        report["rmse_encoder"] = rmse["encoder"]
        report["rmse_generated"] = rmse["generated"]
    return report


def report_tables_to_csv(report: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["table", "index", "value"])
        for key in ("encoder_band_energy", "generated_band_energy"):
            for i, val in enumerate(report[key]):
                writer.writerow([key, i, f"{val:.8g}"])
        if "rmse_encoder" in report:
            for key in ("rmse_encoder", "rmse_generated"):
                for i, val in enumerate(report[key]):
                    writer.writerow([key, i, f"{val:.8g}"])
