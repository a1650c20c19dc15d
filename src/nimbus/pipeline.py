"""End-to-end glue: dataset prep, model training from config, ablation grid.

The CLI subcommands and the acceptance suite both drive these entry points,
so every artifact is reproducible from (config, seed) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import edm, forecast, grid, models, verify
from .errors import ConfigError
from .regularize import Strategy


@dataclass
class DatasetBundle:
    """Train slice, forecast init window, and verification truth."""

    full: grid.FieldBatch
    train: grid.FieldBatch
    init_window: grid.FieldBatch
    truth: np.ndarray  # (T_eval, V, H, W)
    state_specs: tuple
    resid_specs: tuple
    lat_w: np.ndarray
    var_w: np.ndarray


def split_dataset(batch: grid.FieldBatch, train_frames: int, k: int) -> DatasetBundle:
    """Leading frames train; the next k+1 initialize; the rest verify."""
    t = batch.data.shape[0]
    need = train_frames + (k + 1) + 1
    if t < need:
        raise ConfigError(f"dataset has {t} frames; need at least {need}")
    train = grid.FieldBatch(
        data=batch.data[:train_frames], lat=batch.lat, lon=batch.lon, specs=batch.specs
    )
    state_specs = tuple(
        grid.VariableSpec(
            name=s.name,
            mean=float(train.data[:, i].mean(dtype=np.float64)),
            std=max(float(train.data[:, i].std(dtype=np.float64)), 1e-12),
            loss_weight=s.loss_weight,
            level=s.level,
        )
        for i, s in enumerate(batch.specs)
    )
    resid_specs = grid.residual_specs(train)
    init = grid.FieldBatch(
        data=batch.data[train_frames : train_frames + k + 1],
        lat=batch.lat,
        lon=batch.lon,
        specs=state_specs,
    )
    truth = batch.data[train_frames + k + 1 :]
    lat_w = grid.lat_weights(batch.lat).w
    var_w = np.array([s.loss_weight for s in batch.specs])
    return DatasetBundle(
        full=batch,
        train=train,
        init_window=init,
        truth=truth,
        state_specs=state_specs,
        resid_specs=resid_specs,
        lat_w=lat_w,
        var_w=var_w,
    )


def standardized_residual_frames(bundle: DatasetBundle) -> np.ndarray:
    resid = grid.residuals(bundle.train, specs=bundle.resid_specs)
    return grid.standardize_array(resid.data, bundle.resid_specs).astype(np.float32)


def standardized_state_frames(bundle: DatasetBundle) -> np.ndarray:
    return grid.standardize_array(bundle.train.data, bundle.state_specs).astype(np.float32)


# ---------------------------------------------------------------------------
# Model training from config dictionaries
# ---------------------------------------------------------------------------


def build_vae(bundle: DatasetBundle, cfg: dict, seed: int) -> models.Vae:
    """The untrained VAE that ``train_vae`` starts from, for the same seed."""
    return models.Vae(
        v=bundle.train.data.shape[1],
        cfg=models.VaeConfig(
            latent_channels=cfg["latent_channels"],
            base_channels=cfg["base_channels"],
            beta=cfg["beta"],
        ),
        rng=np.random.default_rng([seed, 101]),
    )


def build_mae(bundle: DatasetBundle, cfg: dict, seed: int) -> models.Mae:
    """The untrained 3D-MAE that ``train_mae`` starts from, for the same seed."""
    return models.Mae(
        v=bundle.train.data.shape[1],
        cfg=models.MaeConfig(
            latent_channels=cfg["latent_channels"],
            channels=tuple(cfg["channels"]),
            spatial_strides=tuple(cfg["spatial_strides"]),
            decoder_channels=cfg["decoder_channels"],
            k=cfg["k"],
        ),
        rng=np.random.default_rng([seed, 202]),
    )


def build_frame_ae(bundle: DatasetBundle, cfg: dict, seed: int) -> models.FrameAe:
    """The untrained frame AE that ``train_frame_ae`` starts from, for the same seed."""
    return models.FrameAe(
        v=bundle.train.data.shape[1],
        latent_channels=cfg["latent_channels"],
        rng=np.random.default_rng([seed, 303]),
        base=cfg["base_channels"],
    )


def train_vae(bundle: DatasetBundle, cfg: dict, strategy: Strategy, seed: int) -> models.Vae:
    vae = build_vae(bundle, cfg, seed)
    tc = models.TrainConfig(
        iters=cfg["iters"], batch=cfg["batch"], lr=cfg["lr"], seed=seed * 7919 + 11
    )
    resid_std = standardized_residual_frames(bundle)
    models.train_vae(vae, resid_std, tc, strategy, bundle.lat_w, bundle.var_w)
    return vae


def train_mae(bundle: DatasetBundle, cfg: dict, seed: int) -> models.Mae:
    mae = build_mae(bundle, cfg, seed)
    tc = models.TrainConfig(
        iters=cfg["iters"], batch=cfg["batch"], lr=cfg["lr"], seed=seed * 7919 + 22
    )
    states_std = standardized_state_frames(bundle)
    models.train_mae(mae, states_std, tc, bundle.lat_w, bundle.var_w, cfg["warmup_frac"])
    return mae


def train_frame_ae(bundle: DatasetBundle, cfg: dict, seed: int) -> models.FrameAe:
    ae = build_frame_ae(bundle, cfg, seed)
    tc = models.TrainConfig(
        iters=cfg["iters"], batch=cfg["batch"], lr=cfg["lr"], seed=seed * 7919 + 33
    )
    states_std = standardized_state_frames(bundle)
    models.train_frame_ae(ae, states_std, tc, bundle.lat_w, bundle.var_w)
    return ae


def _chunked(fn, data, chunk=8):
    outs = [fn(data[i : i + chunk]) for i in range(0, data.shape[0], chunk)]
    return np.concatenate(outs, axis=0)


def residual_latents(vae: models.Vae, bundle: DatasetBundle) -> np.ndarray:
    """Posterior-mean latents of every standardized training residual."""
    resid_std = standardized_residual_frames(bundle)
    return _chunked(vae.encode_mean, resid_std)


def conditioning_latents(
    cond_mode: str, encoder, bundle: DatasetBundle, k: int
) -> np.ndarray | None:
    """z_bar for every trainable target step t in [k, T-2].

    Index i of the output conditions the step t = k + i (predicting frame
    t+1 of the training sequence).
    """
    states_std = standardized_state_frames(bundle)
    t_total = states_std.shape[0]
    targets = range(k, t_total - 1)
    if cond_mode == "none":
        return None
    if cond_mode == "2d":
        n = 1 + k // 2
        frames = np.stack([states_std[t - n + 1 : t + 1] for t in targets])
        b, nf, v, h, w = frames.shape
        flat = frames.reshape(b * nf, v, h, w)
        z = _chunked(encoder.encode_array, flat, chunk=16)
        z = z.reshape(b, nf, z.shape[1], z.shape[2], z.shape[3])
        return np.ascontiguousarray(z.transpose(0, 2, 1, 3, 4))
    windows = []
    for t in targets:
        win = states_std[t - k + 1 : t + 1]
        win = np.concatenate([win, np.zeros_like(win[:1])], axis=0)
        windows.append(win.transpose(1, 0, 2, 3))
    windows = np.ascontiguousarray(np.stack(windows))
    return _chunked(lambda b: encoder.encode_array(b, mask_last=True), windows, chunk=4)


def train_denoiser(
    bundle: DatasetBundle,
    cfg: dict,
    sampler_cfg: dict,
    vae: models.Vae,
    cond_mode: str,
    cond_encoder,
    seed: int,
):
    """Train the conditional denoiser on residual latents; returns (net, edm_cfg)."""
    k = cfg["k"]
    z_all = residual_latents(vae, bundle)  # index t: residual of step t -> t+1
    z_bar_all = conditioning_latents(cond_mode, cond_encoder, bundle, k)
    targets = np.arange(k, bundle.train.data.shape[0] - 1)

    cz = vae.latent_channels
    hh, ww = z_all.shape[-2:]
    t_frames = 3 + k // 2
    if cfg["sigma_data"] == "auto":
        sigma_data = max(edm.estimate_sigma_data(z_all), 1e-3)
    else:
        sigma_data = float(cfg["sigma_data"])
    edm_cfg = edm.EdmConfig(
        sigma_data=sigma_data,
        sigma_min=sampler_cfg["sigma_min"],
        sigma_max=sampler_cfg["sigma_max"],
        rho=sampler_cfg["rho"],
        steps=sampler_cfg["steps"],
        churn=edm.ChurnConfig(
            s_churn=sampler_cfg["s_churn"],
            s_min=sampler_cfg["s_min"],
            s_max=sampler_cfg["s_max"],
            s_noise=sampler_cfg["s_noise"],
        ),
    )
    rng = np.random.default_rng([seed, 404])
    net = edm.Denoiser(
        edm.DenoiserConfig(
            latent_channels=cz,
            hidden=cfg["hidden"],
            blocks=cfg["blocks"],
            t_frames=t_frames,
            emb_dim=cfg["emb_dim"],
        ),
        rng,
    )
    from . import autodiff as ad

    opt = ad.AdamW(net.params, lr=cfg["lr"], betas=(0.9, 0.95))
    train_rng = np.random.default_rng([seed, 505])
    batch = cfg["batch"]
    for _ in range(cfg["iters"]):
        pick = train_rng.integers(0, len(targets), size=batch)
        ts = targets[pick]
        z_clean = z_all[ts]
        z_prev = z_all[ts - 1]
        if z_bar_all is None:
            z_bar = np.zeros((batch, cz, 1 + k // 2, hh, ww), dtype=np.float32)
        else:
            z_bar = z_bar_all[pick]
        sigma = edm.sample_sigma(train_rng, edm_cfg, size=batch)
        loss = edm.diffusion_loss(net, z_clean, z_bar, z_prev, sigma, train_rng, edm_cfg)
        opt.zero_grad()
        loss.backward()
        opt.step()
    return net, edm_cfg


def build_models(
    vae: models.Vae,
    net: edm.Denoiser,
    edm_cfg: edm.EdmConfig,
    bundle: DatasetBundle,
    k: int,
    cond_mode: str,
    cond_encoder=None,
) -> forecast.ForecastModels:
    return forecast.ForecastModels(
        vae=vae,
        denoiser=net,
        edm_config=edm_cfg,
        state_specs=bundle.state_specs,
        resid_specs=bundle.resid_specs,
        k=k,
        cond_mode=cond_mode,
        mae=cond_encoder if cond_mode == "3dmae" else None,
        frame_ae=cond_encoder if cond_mode == "2d" else None,
    )


# ---------------------------------------------------------------------------
# Ablation harness
# ---------------------------------------------------------------------------


def run_cell(
    bundle: DatasetBundle,
    config: dict,
    cond_mode: str,
    strategy: Strategy,
    seed: int,
    members: int,
    t_lead: int,
    stochastic: bool = False,
    cache: dict | None = None,
    workers: int = 1,
):
    """Train one (conditioning, regularizer) cell and score its forecast.

    ``cache`` shares trained VAEs/encoders across cells of the same seed.
    """
    cache = cache if cache is not None else {}
    k = config["mae"]["k"]

    vae_key = ("vae", strategy.value, seed)
    if vae_key not in cache:
        cache[vae_key] = train_vae(bundle, config["vae"], strategy, seed)
    vae = cache[vae_key]

    enc = None
    if cond_mode == "3dmae":
        key = ("mae", seed)
        if key not in cache:
            cache[key] = train_mae(bundle, config["mae"], seed)
        enc = cache[key]
    elif cond_mode == "2d":
        key = ("frame_ae", seed)
        if key not in cache:
            cache[key] = train_frame_ae(bundle, config["frame_ae"], seed)
        enc = cache[key]

    dcfg = dict(config["diffusion"])
    dcfg["k"] = k
    net, edm_cfg = train_denoiser(
        bundle, dcfg, config["sampler"], vae, cond_mode, enc, seed
    )
    fmodels = build_models(vae, net, edm_cfg, bundle, k, cond_mode, enc)
    ens = forecast.rollout(
        fmodels,
        bundle.init_window,
        members=members,
        t_lead=t_lead,
        base_seed=seed,
        stochastic=stochastic,
        workers=workers,
    )
    truth = bundle.truth[:t_lead]
    # Score in standardized units so variables aggregate comparably.
    f_std = np.stack(
        [grid.standardize_array(ens.fields[m], bundle.state_specs) for m in range(members)]
    )
    y_std = grid.standardize_array(truth, bundle.state_specs)
    w = bundle.lat_w[:, None]
    vv = truth.shape[1]
    rmse_first = float(
        np.mean(
            [verify.rmse_ensemble_mean(f_std[:, 0, v], y_std[0, v], w) for v in range(vv)]
        )
    )
    ssr_first = float(
        np.mean(
            [verify.spread_skill_ratio(f_std[:, 0, v], y_std[0, v], w) for v in range(vv)]
        )
    )
    crps_first = float(
        np.mean([verify.crps_field(f_std[:, 0, v], y_std[0, v], w) for v in range(vv)])
    )
    return {
        "cond": cond_mode,
        "strategy": strategy.value,
        "seed": seed,
        "rmse_first": rmse_first,
        "ssr_first": ssr_first,
        "crps_first": crps_first,
        "ensemble": ens,
        "models": fmodels,
    }


def ablate(
    bundle: DatasetBundle,
    config: dict,
    conds,
    strategies,
    seeds,
    members: int,
    t_lead: int,
    workers: int = 1,
):
    """Grid of (conditioning, regularizer) cells over replicate seeds."""
    rows = []
    for seed in seeds:
        cache: dict = {}
        for cond in conds:
            for strat in strategies:
                res = run_cell(
                    bundle,
                    config,
                    cond,
                    Strategy(strat),
                    seed,
                    members,
                    t_lead,
                    cache=cache,
                    workers=workers,
                )
                rows.append(
                    {k: res[k] for k in ("cond", "strategy", "seed", "rmse_first", "ssr_first", "crps_first")}
                )
    return rows
