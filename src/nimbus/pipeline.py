"""End-to-end glue: dataset prep, model training from config, scoring, ablation grid.

The CLI subcommands drive these entry points, so every artifact is
reproducible from (config, seed) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import edm, forecast, grid, models, verify
from .errors import ConfigError
from .regularize import Strategy

# Conditioning encoders the ablation compares: 3D-MAE, frame AE, none.
COND_MODES = ("3dmae", "2d", "none")
# The config section of each conditioning encoder. The denoiser stacks its
# latents with the VAE's, so both must have the same channel count.
ENCODER_SECTIONS = {"3dmae": "mae", "2d": "frame_ae"}


@dataclass
class DatasetBundle:
    """Train slice, forecast init window, and verification truth.

    The statistics of the train slice are fitted on first read, so a stage
    fits only those it uses: ``train-vae`` the residual ones, ``train-mae``
    the state ones, ``train-diffusion`` both and ``evaluate`` neither.
    ``train-diffusion`` stores both in edm_config.json, and ``forecast`` and
    ``diagnose`` read them from there.
    """

    full: grid.FieldBatch
    train: np.ndarray  # (T_train, V, H, W), a read-only view of full.data
    init_window: grid.FieldBatch
    truth: np.ndarray  # (T_eval, V, H, W)
    lat_w: np.ndarray
    var_w: np.ndarray

    @cached_property
    def state_specs(self) -> tuple:
        """The dataset's specs with the float64 state mean and std of the train slice."""
        return grid.fit_specs(self.full.specs, self.train.swapaxes(0, 1))

    @cached_property
    def resid_specs(self) -> tuple:
        """The dataset's specs with the mean and std of the train slice's residuals."""
        return grid.residual_specs(self.train, self.full.specs)


def check_train_frames(train_frames: int, k: int) -> None:
    """The first training target follows a window of k+1 frames: a ConfigError unless one fits."""
    if train_frames < k + 2:
        raise ConfigError(
            f"forecast.train_frames must be at least k + 2 = {k + 2} for one training "
            f"target, got {train_frames}"
        )


def frames_needed(train_frames: int, k: int) -> int:
    """Frames a dataset must hold: the training frames, a k+1 init window and one truth frame."""
    return train_frames + (k + 1) + 1


def init_frames(t: int, train_frames: int, k: int) -> slice:
    """The k+1 init frames of a t-frame dataset; a ConfigError unless its split fits."""
    check_train_frames(train_frames, k)
    need = frames_needed(train_frames, k)
    if t < need:
        raise ConfigError(f"dataset has {t} frames; need at least {need}")
    return slice(train_frames, train_frames + k + 1)


def split_dataset(batch: grid.FieldBatch, train_frames: int, k: int) -> DatasetBundle:
    """Leading frames train; the next k+1 initialize; the rest verify. Nothing is fitted."""
    init = init_frames(batch.data.shape[0], train_frames, k)
    window = grid.FieldBatch(data=batch.data[init], lat=batch.lat, lon=batch.lon, specs=batch.specs)
    return DatasetBundle(
        full=batch,
        train=batch.data[: init.start],
        init_window=window,
        truth=batch.data[init.stop :],
        lat_w=grid.lat_weights(batch.lat),
        var_w=np.array([s.loss_weight for s in batch.specs]),
    )


# ---------------------------------------------------------------------------
# Model training from config dictionaries
# ---------------------------------------------------------------------------


def build_vae(v: int, cfg: dict, seed: int) -> models.Vae:
    """The untrained VAE of ``v`` variables that ``train_vae`` starts from, for the same seed."""
    return models.Vae(
        v=v,
        cfg=models.VaeConfig(
            latent_channels=cfg["latent_channels"],
            base_channels=cfg["base_channels"],
            beta=cfg["beta"],
        ),
        rng=np.random.default_rng([seed, 101]),
    )


def build_mae(v: int, cfg: dict, seed: int) -> models.Mae:
    """The untrained 3D-MAE of ``v`` variables that ``train_mae`` starts from, for the same seed."""
    return models.Mae(
        v=v,
        cfg=models.MaeConfig(
            latent_channels=cfg["latent_channels"],
            channels=tuple(cfg["channels"]),
            spatial_strides=tuple(cfg["spatial_strides"]),
            decoder_channels=cfg["decoder_channels"],
            k=cfg["k"],
        ),
        rng=np.random.default_rng([seed, 202]),
    )


def build_frame_ae(v: int, cfg: dict, seed: int) -> models.FrameAe:
    """The untrained frame AE of ``v`` variables that ``train_frame_ae`` starts from, for the same seed."""
    return models.FrameAe(
        v=v,
        latent_channels=cfg["latent_channels"],
        rng=np.random.default_rng([seed, 303]),
        base=cfg["base_channels"],
    )


def build_denoiser(config: dict, seed: int) -> edm.Denoiser:
    """The untrained denoiser that ``train_denoiser`` starts from, for the same seed."""
    d = config["diffusion"]
    return edm.Denoiser(
        edm.DenoiserConfig(
            latent_channels=config["vae"]["latent_channels"],
            hidden=d["hidden"],
            blocks=d["blocks"],
            t_frames=3 + config["mae"]["k"] // 2,
            emb_dim=d["emb_dim"],
        ),
        np.random.default_rng([seed, 404]),
    )


def train_vae(
    bundle: DatasetBundle, cfg: dict, strategy: Strategy, seed: int, workers: int = 1
) -> models.Vae:
    """``build_vae``'s VAE trained by the ``vae`` section ``cfg`` on the train residuals.

    The bundle is dropped once its residuals are standardized: where the
    caller holds no reference to it, the raw dataset is freed before the
    fit. The bundle itself is left as it was.
    """
    vae = build_vae(bundle.train.shape[1], cfg, seed)
    resid_std = grid.standardized_residuals(bundle.train, bundle.resid_specs)
    weights = bundle.lat_w, bundle.var_w
    del bundle
    models.train_vae(vae, resid_std, cfg, seed * 7919 + 11, strategy, *weights, workers)
    return vae


def train_mae(bundle: DatasetBundle, cfg: dict, seed: int, workers: int = 1) -> models.Mae:
    """``build_mae``'s 3D-MAE trained by the ``mae`` section ``cfg`` on the train states.

    The bundle is dropped once its states are standardized, as in ``train_vae``.
    """
    mae = build_mae(bundle.train.shape[1], cfg, seed)
    states_std = grid.standardize_array(bundle.train, bundle.state_specs)
    weights = bundle.lat_w, bundle.var_w
    del bundle
    models.train_mae(mae, states_std, cfg, seed * 7919 + 22, *weights, workers)
    return mae


def train_frame_ae(bundle: DatasetBundle, cfg: dict, seed: int, workers: int = 1) -> models.FrameAe:
    """``build_frame_ae``'s AE trained by the ``frame_ae`` section ``cfg`` on the train states.

    The bundle is dropped once its states are standardized, as in ``train_vae``.
    """
    ae = build_frame_ae(bundle.train.shape[1], cfg, seed)
    states_std = grid.standardize_array(bundle.train, bundle.state_specs)
    weights = bundle.lat_w, bundle.var_w
    del bundle
    models.train_frame_ae(ae, states_std, cfg, seed * 7919 + 33, *weights, workers)
    return ae


def train_encoder(bundle: DatasetBundle, config: dict, cond: str, seed: int, workers: int = 1):
    """The conditioning encoder of ``cond`` trained by its config section; None for "none"."""
    if cond == "none":
        return None
    train = train_mae if cond == "3dmae" else train_frame_ae
    return train(bundle, config[ENCODER_SECTIONS[cond]], seed, workers=workers)


def _stack(encode, count: int, workers: int) -> np.ndarray:
    """``np.concatenate([encode(i) for i in range(count)])``, items 1 ... count - 1 in workers.

    Item 0 runs here first and fixes the shape and dtype of the shared
    array that the ``ad.Workers`` processes write the others into.
    """
    first = encode(0)
    out = ad.shared_empty((count,) + first.shape, first.dtype)
    out[0] = first

    def put(i):
        out[i + 1] = encode(i + 1)

    with ad.Workers(workers, count - 1, "precompute") as procs:
        procs.map(put, count - 1)
    return out.reshape((-1,) + first.shape[1:])


def residual_latents(vae: models.Vae, resid_std: np.ndarray, workers: int = 1) -> np.ndarray:
    """Posterior-mean latents of standardized residual frames (N, V, H, W), one frame per item.

    The frames are encoded in up to ``workers`` processes (``_stack``).
    """

    def encode(i):
        return vae.encode_mean(resid_std[i : i + 1])

    return _stack(encode, resid_std.shape[0], workers)


def conditioning_latents(
    encoder, states_std: np.ndarray, z_all: np.ndarray, k: int, workers: int = 1
) -> np.ndarray:
    """z_bar for every trainable target step t in [k, T-2] of the standardized states.

    Row i conditions the step t = k + i (predicting frame t+1 of the
    training sequence) with the call ``forecast.step`` makes for a member
    whose last k+1 states are frames t-k..t; ``z_all`` are the residual
    latents. Each step is one item of ``_stack``, in up to ``workers``
    processes.
    """

    def encode(i):
        t = k + i
        recent = states_std[None, t - k + 1 : t + 1]
        return forecast.conditioning_latents(encoder, recent, z_all[t - 1 : t])

    return _stack(encode, states_std.shape[0] - 1 - k, workers)


def train_denoiser(
    bundle: DatasetBundle, config: dict, vae: models.Vae, encoder, seed: int, workers: int = 1
) -> forecast.ForecastModels:
    """Train the conditional denoiser on residual latents; returns the models ``rollout`` takes.

    The latent precompute and the training (``ad.fit``) run in up to ``workers`` processes.
    Each array is dropped once the next step no longer reads it: the
    standardized residuals once they are encoded, the bundle once its states
    are standardized (as in ``train_vae``), the standardized states once they
    are encoded. The fit holds the latents alone.
    """
    cfg = config["diffusion"]
    k = config["mae"]["k"]
    state_specs, resid_specs = bundle.state_specs, bundle.resid_specs
    targets = np.arange(k, bundle.train.shape[0] - 1)
    # index t: residual of step t -> t+1
    resid_std = grid.standardized_residuals(bundle.train, resid_specs)
    z_all = residual_latents(vae, resid_std, workers)
    del resid_std
    states_std = grid.standardize_array(bundle.train, state_specs)
    del bundle
    z_bar_all = conditioning_latents(encoder, states_std, z_all, k, workers)
    del states_std
    sigma_data = max(edm.estimate_sigma_data(z_all), 1e-3)
    edm_cfg = edm.EdmConfig(sigma_data=sigma_data, **config["sampler"])
    net = build_denoiser(config, seed)
    train_rng = np.random.default_rng([seed, 505])
    batch = cfg["batch"]

    def draw():
        pick = train_rng.integers(0, len(targets), size=batch)
        ts = targets[pick]
        sigma = edm.sample_sigma(train_rng, edm_cfg, size=batch)
        eps = models.normal_streams(train_rng, batch, (1,) + z_all.shape[1:])

        def loss_of(b):
            i, t = pick[b : b + 1], ts[b : b + 1]
            return edm.diffusion_loss(
                net, z_all[t], z_bar_all[i], z_all[t - 1], sigma[b : b + 1], eps[b], edm_cfg
            )

        return loss_of

    ad.fit(net.params, cfg, draw, workers)
    return forecast.ForecastModels(vae, net, edm_cfg, state_specs, resid_specs, k, encoder)


# ---------------------------------------------------------------------------
# Scoring and the ablation harness
# ---------------------------------------------------------------------------


def score_ensemble(
    bundle: DatasetBundle, fields: np.ndarray, workers: int = 1
) -> verify.MetricReport:
    """Score (M, T, V, H, W) forecast fields against the first T truth frames.

    Scores are per variable and per lead (6 h apart) in the dataset's raw
    units; ``nimbus evaluate`` and every ``nimbus ablate`` cell score here,
    in up to ``workers`` processes. Rank-histogram ties are broken by one
    fixed random stream (seed 0), so the same fields always score the same.
    """
    t_lead = fields.shape[1]
    return verify.evaluate_ensemble(
        fields,
        bundle.truth[:t_lead],
        variables=[s.name for s in bundle.full.specs],
        lead_hours=[6 * (i + 1) for i in range(t_lead)],
        lat_weights=bundle.lat_w,
        rank_seed=0,
        workers=workers,
    )


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
    """Grid of (conditioning, regularizer) cells over replicate seeds.

    Each seed trains one VAE per regularizer and one encoder per
    conditioning; each cell trains a denoiser on its pair, then rolls out and
    scores its ensemble. Returns (seed, cond, strategy, variable, lead_hours,
    metric, value) rows: each cell's ``score_ensemble`` rows, which ``nimbus
    evaluate`` writes to metrics.csv, in the dataset's raw units.
    """
    rows = []
    for seed in seeds:
        vaes = {
            s: train_vae(bundle, config["vae"], Strategy(s), seed, workers=workers)
            for s in dict.fromkeys(strategies)
        }
        encoders = {c: train_encoder(bundle, config, c, seed, workers) for c in dict.fromkeys(conds)}
        for cond in conds:
            for strat in strategies:
                fmodels = train_denoiser(bundle, config, vaes[strat], encoders[cond], seed, workers)
                ens = forecast.rollout(fmodels, bundle.init_window, members, t_lead, seed, workers)
                report = score_ensemble(bundle, ens.fields, workers)
                rows.extend((seed, cond, Strategy(strat).value, *row) for row in report.to_rows())
    return rows
