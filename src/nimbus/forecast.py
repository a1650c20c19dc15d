"""Autoregressive ensemble rollout.

A member's loop (``_run_member``) holds its last k+1 raw states, the
previous residual latent and the lead index, and draws from an RNG stream
derived from (base_seed, member index), so results are independent of
scheduling. ``init_member_state`` encodes the last residual of the init
window as the first previous latent. Each ``step`` encodes the conditioning
window (the encoder never reads its final frame), samples a residual latent
with ``edm.sample_stochastic``, which churns where the models' EdmConfig has
``s_churn`` > 0, decodes it, and integrates the next state with
``grid.next_state``.

Rollouts standardize with the statistics of the training slice that the
models learned on, which ``ForecastModels`` carries (``nimbus forecast``
reads them from edm_config.json), never with statistics of the dataset the
init window comes from. The member files hold those training state
statistics in their headers. So a rollout needs only the k+1 frames of its
init window, and ``nimbus forecast`` holds no other frame of the dataset:
it reads and checks every frame, but keeps just the window
(``grid.read_fields``).

Members run in ``autodiff.Workers`` processes, n = min(workers, members):
this one and n - 1 children forked once per rollout, which share the models
copy-on-write and write their frames into one shared anonymous mapping that
backs the returned fields, so nothing is pickled but a member's failure.
Process w runs members w, w + n, ..., on its share of the BLAS threads. A
failure raises the exception of the lowest failing member, as the serial
loop does. With one worker, or where ``os.fork`` does not exist, the
members run in order in this process, which keeps every BLAS thread.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import edm, grid
from .errors import DomainError, FormatError, RolloutError
from .models import FrameAe, Mae, Vae

@dataclass
class ForecastModels:
    """Frozen model bundle plus the normalization statistics it was trained with.

    ``state_specs`` and ``resid_specs`` hold the per-variable mean and std of
    the training slice's states and residuals: ``pipeline.train_denoiser``
    takes them from the dataset it trains on, and ``nimbus forecast`` from
    the edm_config.json that ``train-diffusion`` wrote. ``encoder`` encodes
    the conditioning window: a 3D-MAE, a frame AE, or None for zero
    conditioning.
    """

    vae: Vae
    denoiser: edm.Denoiser
    edm_config: edm.EdmConfig
    state_specs: tuple
    resid_specs: tuple
    k: int
    encoder: Mae | FrameAe | None


def init_member_state(models: ForecastModels, init_window: np.ndarray) -> np.ndarray:
    """A member's first z_prev (C, h, w): the latent of the last residual of its k+1 init states."""
    resid_std = grid.standardized_residuals(init_window[-2:], models.resid_specs)
    return models.vae.encode_mean(resid_std)[0]


def conditioning_latents(
    encoder: Mae | FrameAe | None, recent: np.ndarray, z_prev: np.ndarray
) -> np.ndarray:
    """z_bar for the step after ``recent``, (B, k, V, H, W) standardized states.

    A 3D-MAE encodes the (B, V, k+1, H, W) window of the k states and a
    zero last slot, which its encoder never reads; the states are copied
    into that one buffer once, transposed. A frame AE encodes the last
    1 + k//2 states one by one, and no encoder gives zeros shaped like the
    residual latents ``z_prev`` (B, C, h, w).
    """
    b, k = recent.shape[:2]
    n = 1 + k // 2
    if encoder is None:
        return np.zeros((b, z_prev.shape[1], n) + z_prev.shape[2:], dtype=np.float32)
    if isinstance(encoder, FrameAe):
        z = encoder.encode_array(recent[:, -n:].reshape((b * n,) + recent.shape[2:]))
        return np.ascontiguousarray(z.reshape((b, n) + z.shape[1:]).swapaxes(1, 2))
    window = np.empty((b, recent.shape[2], k + 1) + recent.shape[3:], recent.dtype)
    window[:, :, :k] = recent.swapaxes(1, 2)
    window[:, :, k] = 0
    return encoder.encode_array(window)


def step(models: ForecastModels, window, z_prev, lead, rng):
    """One lead from the raw states ``window`` (k+1, V, H, W) and the previous latent ``z_prev``.

    Returns the next state x_{t+1} (V, H, W) and its sampled latent, the next
    step's ``z_prev``. A RolloutError names ``lead`` as its forecast step.
    """
    recent = grid.standardize_array(window[1:], models.state_specs)[None]
    z_bar = conditioning_latents(models.encoder, recent, z_prev[None])
    del recent  # not held through the sampler's denoiser calls
    denoise = edm.make_denoise_fn(models.denoiser, z_bar, z_prev[None], models.edm_config)
    z_hat = edm.sample_stochastic(denoise, (1,) + z_prev.shape, rng, models.edm_config)
    if not np.all(np.isfinite(z_hat)):
        raise RolloutError("non-finite values in sampled latent", lead)
    x_next = grid.next_state(window[-1], models.vae.decode_array(z_hat)[0], models.resid_specs)
    if not np.all(np.isfinite(x_next)):
        raise RolloutError("non-finite values in decoded field", lead)
    return x_next, z_hat[0]


@dataclass
class EnsembleForecast:
    """M members x T_lead steps of forecast fields plus member provenance."""

    fields: np.ndarray  # (M, T_lead, V, H, W)
    member_seeds: list
    lat: np.ndarray
    lon: np.ndarray
    specs: tuple

    @property
    def members(self) -> int:
        return self.fields.shape[0]

    @property
    def lead_times(self) -> int:
        return self.fields.shape[1]


def _run_member(models, init_window, t_lead, base_seed, m):
    rng = np.random.default_rng([int(base_seed), int(m)])
    window = init_window
    z_prev = init_member_state(models, init_window)
    frames = np.empty((t_lead,) + init_window.shape[1:], dtype=np.float32)
    try:
        for t in range(t_lead):
            x_next, z_prev = step(models, window, z_prev, t, rng)
            frames[t] = x_next
            window = np.concatenate([window[1:], x_next[None]])
    except RolloutError as exc:
        raise RolloutError(exc.message, exc.step, member=m) from exc
    return frames


def rollout(
    models: ForecastModels,
    init_window: grid.FieldBatch,
    members: int,
    t_lead: int,
    base_seed: int = 0,
    workers: int = 1,
) -> EnsembleForecast:
    """M-member forecast; member m is reproducible from (base_seed, m) alone.

    The members take ``models.state_specs``, the training statistics, as their specs.
    """
    if init_window.data.shape[0] != models.k + 1:
        raise DomainError(
            f"init window needs {models.k + 1} states, got {init_window.data.shape[0]}"
        )
    if members < 1 or t_lead < 1:
        raise DomainError("members and t_lead must be >= 1")
    init = np.asarray(init_window.data, dtype=np.float32)
    out = ad.shared_empty((members, t_lead) + init.shape[1:], np.float32)

    def member(m):
        out[m] = _run_member(models, init, t_lead, base_seed, m)

    with ad.Workers(workers, members, "member") as procs:
        procs.map(member, members)
    return EnsembleForecast(
        fields=out,
        member_seeds=[[int(base_seed), m] for m in range(members)],
        lat=init_window.lat,
        lon=init_window.lon,
        specs=models.state_specs,
    )


def write_forecast(ens: EnsembleForecast, out_dir, manifest_extra=None) -> None:
    """One PYLD1 file per member plus a manifest with seeds."""
    grid.make_dir(out_dir)
    for m in range(ens.members):
        batch = grid.FieldBatch(
            data=ens.fields[m], lat=ens.lat, lon=ens.lon, specs=ens.specs
        )
        grid.write_fields(batch, os.path.join(out_dir, f"member_{m:03d}.pyld"))
    manifest = {
        "members": ens.members,
        "lead_times": ens.lead_times,
        "member_seeds": ens.member_seeds,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with grid.write_file(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def grid_mismatch(a, b) -> str | None:
    """Which of variable names, latitudes, longitudes differ between ``a`` and ``b``, or None.

    ``a`` and ``b`` are field batches or ensembles: anything with specs, lat and lon.
    """
    if [s.name for s in a.specs] != [s.name for s in b.specs]:
        return "variable names"
    if not np.array_equal(a.lat, b.lat):
        return "latitudes"
    if not np.array_equal(a.lon, b.lon):
        return "longitudes"
    return None


def read_forecast(out_dir) -> EnsembleForecast:
    """The ensemble ``write_forecast`` wrote; a malformed one is a FormatError.

    Every member must share member 0's shape, variable names, lat and lon.
    Members 1 ... M - 1 are read straight into the one (M, T, V, H, W) array
    that member 0's shape sizes, so the fields are held once.
    """

    def read(name, read_as):
        path = os.path.join(out_dir, name)
        missing = f"missing forecast file {path}; run `nimbus forecast` again"
        return path, grid.read_file(path, read_as, missing)

    path, manifest = read("manifest.json", grid.read_json)
    members = manifest.get("members") if isinstance(manifest, dict) else None
    if isinstance(members, bool) or not isinstance(members, int) or members < 1:
        raise FormatError(f"{path}: members must be an integer >= 1, got {members!r}")
    seeds = manifest.get("member_seeds")
    if not isinstance(seeds, list) or len(seeds) != members:
        raise FormatError(
            f"{path}: member_seeds must be a list of {members} entries, got {seeds!r}"
        )
    _, first = read("member_000.pyld", grid.read_fields)
    fields = np.empty((members,) + first.data.shape, np.float32)
    fields[0] = first.data
    for m in range(1, members):
        member_path, batch = read(
            f"member_{m:03d}.pyld", functools.partial(grid.read_fields, out=fields[m])
        )
        if batch.data.shape != first.data.shape:
            raise FormatError(
                f"{member_path} has shape {batch.data.shape}, "
                f"member_000.pyld {first.data.shape}"
            )
        what = grid_mismatch(batch, first)
        if what:
            raise FormatError(f"{member_path}: {what} differ from member_000.pyld's")
    return EnsembleForecast(
        fields=fields,
        member_seeds=seeds,
        lat=first.lat,
        lon=first.lon,
        specs=first.specs,
    )
