"""Autoregressive ensemble rollout.

Each member owns its last k+1 raw states, the previous residual latent, and
an RNG stream derived from (base_seed, member index), so results are
independent of scheduling. One step encodes the conditioning window (final
frame masked), samples a residual latent with the EDM sampler, decodes it,
and integrates X_{t+1} = X_t + dX.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import edm, grid
from .errors import DomainError, RolloutError
from .models import FrameAe, Mae, Vae

COND_MODES = ("3dmae", "2d", "none")


@dataclass
class ForecastModels:
    """Frozen model bundle plus the normalization statistics it was trained with."""

    vae: Vae
    denoiser: edm.Denoiser
    edm_config: edm.EdmConfig
    state_specs: tuple
    resid_specs: tuple
    k: int
    cond_mode: str = "3dmae"
    mae: Mae | None = None
    frame_ae: FrameAe | None = None

    def __post_init__(self):
        if self.cond_mode not in COND_MODES:
            raise DomainError(f"cond_mode must be one of {COND_MODES}")
        if self.cond_mode == "3dmae" and self.mae is None:
            raise DomainError("cond_mode '3dmae' requires a trained Mae")
        if self.cond_mode == "2d" and self.frame_ae is None:
            raise DomainError("cond_mode '2d' requires a trained FrameAe")


@dataclass
class MemberState:
    states: np.ndarray  # (k+1, V, H, W), raw units
    z_prev: np.ndarray  # (C, h, w)
    step_index: int = 0


def init_member_state(models: ForecastModels, init_window: np.ndarray) -> MemberState:
    """Build the member state from k+1 initial raw states."""
    k = models.k
    if init_window.ndim != 4 or init_window.shape[0] != k + 1:
        raise DomainError(f"init window must be ({k + 1}, V, H, W), got {init_window.shape}")
    resid = init_window[-1] - init_window[-2]
    resid_std = grid.standardize_array(resid, models.resid_specs)
    z_prev = models.vae.encode_mean(resid_std[None].astype(np.float32))[0]
    return MemberState(states=init_window.astype(np.float32), z_prev=z_prev)


def conditioning_latent(models: ForecastModels, state: MemberState, streaming: bool = False):
    """z_bar for the target time: masked window ending one step ahead."""
    k = models.k
    states_std = grid.standardize_array(state.states, models.state_specs)
    if models.cond_mode == "none":
        dummy = models.vae.latent_channels
        h, w = state.z_prev.shape[-2:]
        return np.zeros((1, dummy, 1 + k // 2, h, w), dtype=np.float32)
    if models.cond_mode == "2d":
        n = 1 + k // 2
        frames = states_std[-n:]
        z = models.frame_ae.encode_array(frames)
        return np.ascontiguousarray(z.swapaxes(0, 1))[None]
    # 3D-MAE: window (X_{t-k+1..t}, masked future frame).
    future = np.zeros_like(states_std[:1])
    window = np.concatenate([states_std[1:], future], axis=0)
    window = np.ascontiguousarray(window.transpose(1, 0, 2, 3))[None]
    return models.mae.encode_array(window, mask_last=True, streaming=streaming)


def step(
    models: ForecastModels,
    state: MemberState,
    rng: np.random.Generator,
    stochastic: bool = False,
    streaming: bool = False,
) -> MemberState:
    """Advance one lead time; returns the new member state."""
    z_bar = conditioning_latent(models, state, streaming=streaming)
    denoise = edm.make_denoise_fn(
        models.denoiser, z_bar, state.z_prev[None], models.edm_config
    )
    shape = (1,) + state.z_prev.shape
    if stochastic:
        z_hat = edm.sample_stochastic(denoise, shape, rng, models.edm_config)
    else:
        z_hat = edm.sample_deterministic(denoise, shape, rng, models.edm_config)
    if not np.all(np.isfinite(z_hat)):
        raise RolloutError("non-finite values in sampled latent", state.step_index)
    dx_std = models.vae.decode_array(z_hat)[0]
    dx = grid.destandardize_array(dx_std, models.resid_specs)
    x_next = state.states[-1] + dx
    if not np.all(np.isfinite(x_next)):
        raise RolloutError("non-finite values in decoded field", state.step_index)
    new_states = np.concatenate([state.states[1:], x_next[None]], axis=0)
    return MemberState(states=new_states, z_prev=z_hat[0], step_index=state.step_index + 1)


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


def _run_member(models, init_window, t_lead, base_seed, m, stochastic, streaming):
    rng = np.random.default_rng([int(base_seed), int(m)])
    state = init_member_state(models, init_window)
    frames = np.empty((t_lead,) + init_window.shape[1:], dtype=np.float32)
    try:
        for t in range(t_lead):
            state = step(models, state, rng, stochastic=stochastic, streaming=streaming)
            frames[t] = state.states[-1]
    except RolloutError as exc:
        raise RolloutError(exc.message, exc.step, member=m) from exc
    return frames


def rollout(
    models: ForecastModels,
    init_window: grid.FieldBatch,
    members: int,
    t_lead: int,
    base_seed: int = 0,
    stochastic: bool = False,
    streaming: bool = False,
    workers: int = 1,
) -> EnsembleForecast:
    """M-member forecast; member m is reproducible from (base_seed, m) alone."""
    if init_window.data.shape[0] != models.k + 1:
        raise DomainError(
            f"init window needs {models.k + 1} states, got {init_window.data.shape[0]}"
        )
    if members < 1 or t_lead < 1:
        raise DomainError("members and t_lead must be >= 1")
    init = np.asarray(init_window.data, dtype=np.float32)
    out = np.empty((members, t_lead) + init.shape[1:], dtype=np.float32)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                m: pool.submit(
                    _run_member, models, init, t_lead, base_seed, m, stochastic, streaming
                )
                for m in range(members)
            }
            for m, fut in futures.items():
                out[m] = fut.result()
    else:
        for m in range(members):
            out[m] = _run_member(models, init, t_lead, base_seed, m, stochastic, streaming)
    return EnsembleForecast(
        fields=out,
        member_seeds=[[int(base_seed), m] for m in range(members)],
        lat=init_window.lat,
        lon=init_window.lon,
        specs=init_window.specs,
    )


def write_forecast(ens: EnsembleForecast, out_dir, manifest_extra=None) -> None:
    """One PYLD1 file per member plus a manifest with seeds."""
    import os

    os.makedirs(out_dir, exist_ok=True)
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
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def read_forecast(out_dir) -> EnsembleForecast:
    import os

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    members = manifest["members"]
    batches = [
        grid.read_fields(os.path.join(out_dir, f"member_{m:03d}.pyld"))
        for m in range(members)
    ]
    fields = np.stack([b.data for b in batches])
    first = batches[0]
    return EnsembleForecast(
        fields=fields,
        member_seeds=manifest["member_seeds"],
        lat=first.lat,
        lon=first.lon,
        specs=first.specs,
    )
