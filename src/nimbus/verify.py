"""Probabilistic forecast verification and latent-diffusability diagnostics.

``evaluate_ensemble`` scores an (M, T, V, H, W) ensemble against its truth
one lead at a time, all variables at once, in float64. Each score is a
latitude-weighted mean over a variable's (H, W) grid, so every metric is a
(V, T) table:

- ``rmse_mean``: RMSE of the ensemble mean. Its error is the mean of the
  member errors, so members that all equal the truth score exactly 0.
- ``crps_fair``: the fair (unbiased) CRPS, mean|x_i - y| minus
  sum_{i,j}|x_i - x_j| / (2M(M-1)).
- ``crps_empirical``: the empirical-CDF CRPS, the same with 2M^2 as divisor.
  Both estimators share one sort along the member axis.
- ``ssr``: spread over skill, sqrt((M+1)/M * mean member variance) over
  ``rmse_mean``. The variance is taken over the deviations from member 0,
  so identical members have exactly zero spread; zero spread scores 0.0,
  and a nonzero spread with zero RMSE scores inf.

With a single member the fair CRPS and SSR are undefined: ``crps_fair`` then
holds the empirical CRPS (the absolute error) and ``ssr`` is NaN. The rank
histogram counts where each grid point's truth falls among its members.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import DomainError


def _wmean(values: np.ndarray, weights) -> np.ndarray:
    """Weighted mean of each values[i] over all its axes; weights broadcast to values[i]."""
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), values.shape[1:])
    return (w * values).reshape(len(values), -1).sum(axis=1) / w.sum()


def crps_field(members: np.ndarray, errors: np.ndarray, weights) -> tuple:
    """Weighted-mean fair and empirical CRPS of each variable of one lead.

    members: (M, V, H, W) in float64; errors: members minus the (V, H, W)
    truth; weights broadcast to (H, W). Returns (fair, empirical), each (V,).
    With M = 1 the fair estimator is undefined and ``fair`` is the empirical one.
    """
    m = members.shape[0]
    skill = np.abs(errors).mean(axis=0)
    # sum_{i != j} |x_i - x_j| by the sorted-order identity.
    coef = (2.0 * np.arange(m) - (m - 1)).reshape((m,) + (1,) * (members.ndim - 1))
    gini = 2.0 * np.sum(coef * np.sort(members, axis=0), axis=0)
    empirical = _wmean(skill - gini / (2.0 * m * m), weights)
    if m == 1:
        return empirical, empirical
    return _wmean(skill - gini / (2.0 * m * (m - 1)), weights), empirical


def rank_histogram(members: np.ndarray, truth: np.ndarray, rng) -> np.ndarray:
    """Counts (M + 1,) of each truth's rank among its M members, ties randomized.

    members: (M, ...); truth: (...). A truth equal to k members takes one of
    its k + 1 ranks at random, drawn from ``rng`` in the truth's C order.
    """
    if members.shape[1:] != truth.shape:
        raise DomainError(f"members {members.shape} do not align with truth {truth.shape}")
    below = (members < truth).sum(axis=0)
    ties = (members == truth).sum(axis=0)
    ranks = below + rng.integers(0, ties + 1)
    return np.bincount(ranks.ravel(), minlength=members.shape[0] + 1)


# ---------------------------------------------------------------------------
# Metric report
# ---------------------------------------------------------------------------


@dataclass
class MetricReport:
    """Per-(variable, lead) scores plus the rank histogram's counts."""

    variables: list
    lead_hours: list
    scores: dict  # metric -> (V, L) array
    rank_counts: np.ndarray

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
            "rank_counts": np.asarray(self.rank_counts).tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


def evaluate_ensemble(
    forecast_fields: np.ndarray,
    truth_fields: np.ndarray,
    variables,
    lead_hours,
    lat_weights,
    rank_seed: int,
) -> MetricReport:
    """Score an (M, T, V, H, W) ensemble against (T, V, H, W) truth."""
    mm, tt, vv, hh, ww = forecast_fields.shape
    if truth_fields.shape != (tt, vv, hh, ww):
        raise DomainError(
            f"truth shape {truth_fields.shape} does not match forecast {forecast_fields.shape}"
        )
    w = np.asarray(lat_weights)[:, None]
    scores = {k: np.empty((vv, tt)) for k in ("rmse_mean", "crps_fair", "crps_empirical", "ssr")}
    for t in range(tt):
        f = forecast_fields[:, t].astype(np.float64)
        err = f - truth_fields[t].astype(np.float64)
        rmse = np.sqrt(_wmean(np.square(err.mean(axis=0)), w))
        scores["rmse_mean"][:, t] = rmse
        scores["crps_fair"][:, t], scores["crps_empirical"][:, t] = crps_field(f, err, w)
        if mm == 1:
            scores["ssr"][:, t] = np.nan
            continue
        spread = np.sqrt((mm + 1) / mm * _wmean((f - f[0]).var(axis=0, ddof=1), w))
        with np.errstate(divide="ignore", invalid="ignore"):
            scores["ssr"][:, t] = np.where(spread == 0.0, 0.0, spread / rmse)
    counts = rank_histogram(forecast_fields, truth_fields, np.random.default_rng(rank_seed))
    return MetricReport(
        variables=list(variables), lead_hours=list(lead_hours), scores=scores, rank_counts=counts
    )


# ---------------------------------------------------------------------------
# Diffusability diagnostics
# ---------------------------------------------------------------------------


def diffusability_report(
    encoder_latents: np.ndarray,
    generated_latents: np.ndarray,
    bands,
    decoder,
    reference: np.ndarray,
    weights,
    mask_radii=(0.4, 0.8, 1.2, spectral.R_CORNER + 1e-9),
) -> dict:
    """Band-energy tables for both latent families, plus an RMSE-vs-mask probe.

    A family's band energy is the mean over its (N, C) latent planes. The
    probe decodes each family after low-passing at every mask radius and
    scores the decoded fields against ``reference`` (same sample order).
    """
    enc = np.asarray(encoder_latents, dtype=np.float64)
    gen = np.asarray(generated_latents, dtype=np.float64)
    if enc.shape != gen.shape:
        raise DomainError("latent families must have matching shapes")
    reference = np.asarray(reference, dtype=np.float64)
    radii = list(mask_radii)
    rmse = {"encoder": [], "generated": []}
    for name, fam in (("encoder", enc), ("generated", gen)):
        coeffs = np.fft.fft2(fam)
        for r in radii:
            decoded = decoder(spectral.lowpass_coeffs(coeffs, r).astype(np.float32))
            err2 = np.square(decoded.astype(np.float64) - reference)
            # One weighted mean over every sample and channel.
            rmse[name].append(float(np.sqrt(_wmean(err2[None], weights)[0])))
    nb = len(bands) - 1
    return {
        "bands": list(bands),
        "encoder_band_energy": spectral.band_energy(enc, bands).reshape(-1, nb).mean(axis=0),
        "generated_band_energy": spectral.band_energy(gen, bands).reshape(-1, nb).mean(axis=0),
        "mask_radii": radii,
        "rmse_encoder": rmse["encoder"],
        "rmse_generated": rmse["generated"],
    }


def report_tables_to_csv(report: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["table", "index", "value"])
        for key in ("encoder_band_energy", "generated_band_energy", "rmse_encoder", "rmse_generated"):
            for i, val in enumerate(report[key]):
                writer.writerow([key, i, f"{val:.8g}"])
