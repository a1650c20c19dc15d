"""Miniature autoencoders and their training objectives.

The VAE works on standardized residual fields (one frame at a time) and
carries the spectral-regularization hooks. The 3D-MAE works on standardized
raw states: its causal encoder must predict evolution, so the final frame of
every training window is masked and the decoder reconstructs all k+1 frames.
A frame-wise 2D autoencoder provides the conditioning baseline for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import causal3d, regularize, spectral
from .errors import ConfigError
from .regularize import Strategy

SE_FACTORS = (1, 2, 4)


def _conv_w(rng, o, c, kh, kw=None):
    kw = kh if kw is None else kw
    fan_in = c * kh * kw
    return ad.param(rng.standard_normal((o, c, kh, kw)) * np.sqrt(2.0 / fan_in))


def _zeros(o):
    return ad.param(np.zeros(o))


@dataclass
class VaeConfig:
    latent_channels: int = 16
    base_channels: int = 16
    beta: float = 1e-5

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError("KL weight beta must be >= 0")


class Vae:
    """Two-stage (4x downsampling) convolutional VAE with residual shortcuts."""

    def __init__(self, v: int, cfg: VaeConfig, rng: np.random.Generator):
        self.v = v
        self.cfg = cfg
        c1, c2, cz = cfg.base_channels, 2 * cfg.base_channels, cfg.latent_channels
        self.latent_channels = cz
        p = {}
        p["enc0.w"], p["enc0.b"] = _conv_w(rng, c1, v, 3), _zeros(c1)
        p["enc1.w"], p["enc1.b"] = _conv_w(rng, c2, c1, 3), _zeros(c2)
        p["encr0.w"], p["encr0.b"] = _conv_w(rng, c2, c2, 3), _zeros(c2)
        p["encr1.w"], p["encr1.b"] = _conv_w(rng, c2, c2, 3), _zeros(c2)
        p["ench.w"], p["ench.b"] = _conv_w(rng, 2 * cz, c2, 1), _zeros(2 * cz)
        p["dec0.w"], p["dec0.b"] = _conv_w(rng, c2, cz, 1), _zeros(c2)
        p["decr0.w"], p["decr0.b"] = _conv_w(rng, c2, c2, 3), _zeros(c2)
        p["decr1.w"], p["decr1.b"] = _conv_w(rng, c2, c2, 3), _zeros(c2)
        p["dec1.w"], p["dec1.b"] = _conv_w(rng, c1, c2, 3), _zeros(c1)
        p["dec2.w"], p["dec2.b"] = _conv_w(rng, c1, c1, 3), _zeros(c1)
        p["dech.w"], p["dech.b"] = _conv_w(rng, v, c1, 3), _zeros(v)
        self.params = p

    def _res(self, h, a, b):
        p = self.params
        t = ad.conv2d(ad.silu(h), p[f"{a}.w"], p[f"{a}.b"])
        t = ad.conv2d(ad.silu(t), p[f"{b}.w"], p[f"{b}.b"])
        return ad.add(h, t)

    def encode(self, x: ad.Tensor):
        p = self.params
        h = ad.silu(ad.conv2d(x, p["enc0.w"], p["enc0.b"], stride=2))
        h = ad.conv2d(h, p["enc1.w"], p["enc1.b"], stride=2)
        h = self._res(h, "encr0", "encr1")
        out = ad.conv2d(ad.silu(h), p["ench.w"], p["ench.b"])
        cz = self.latent_channels
        return ad.narrow(out, 1, 0, cz), ad.narrow(out, 1, cz, cz)

    def decode(self, z: ad.Tensor) -> ad.Tensor:
        p = self.params
        h = ad.conv2d(z, p["dec0.w"], p["dec0.b"])
        h = self._res(h, "decr0", "decr1")
        h = ad.upsample2d(ad.silu(h))
        h = ad.silu(ad.conv2d(h, p["dec1.w"], p["dec1.b"]))
        h = ad.upsample2d(h)
        h = ad.silu(ad.conv2d(h, p["dec2.w"], p["dec2.b"]))
        return ad.conv2d(h, p["dech.w"], p["dech.b"])

    @ad.no_grad()
    def encode_mean(self, x: np.ndarray) -> np.ndarray:
        """Posterior mean for (B, V, H, W) data."""
        mu, _ = self.encode(ad.constant(x))
        return mu.data

    @ad.no_grad()
    def decode_array(self, z: np.ndarray) -> np.ndarray:
        return self.decode(ad.constant(z)).data


def reparameterize(mu: ad.Tensor, logvar: ad.Tensor, rng: np.random.Generator) -> ad.Tensor:
    eps = rng.standard_normal(mu.data.shape).astype(mu.data.dtype)
    return ad.add(mu, ad.mul(ad.exp(ad.scale(logvar, 0.5)), ad.constant(eps)))


def kl_standard_normal(mu: ad.Tensor, logvar: ad.Tensor) -> ad.Tensor:
    """Mean per-element KL(q(z) || N(0, I)) in closed form."""
    term = ad.sub(ad.sub(ad.add_scalar(logvar, 1.0), ad.square(mu)), ad.exp(logvar))
    return ad.scale(ad.mean_all(term), -0.5)


def combined_weights(lat_w, var_w, v: int, h: int) -> np.ndarray:
    """Broadcastable (V, H, 1) loss weights from latitude and variable parts."""
    lw = np.ones(h) if lat_w is None else np.asarray(lat_w, dtype=np.float64)
    vw = np.ones(v) if var_w is None else np.asarray(var_w, dtype=np.float64)
    return vw[:, None, None] * lw[None, :, None]


def _pool_lat(lat_w, factor: int):
    if lat_w is None or factor == 1:
        return lat_w
    return np.asarray(lat_w, dtype=np.float64).reshape(-1, factor).mean(axis=1)


def build_targets(batch: np.ndarray, strategy: Strategy, gamma: float, se_factor: int = 1):
    """Reconstruction targets for a (B, V, H, W) batch under a strategy."""
    if strategy == Strategy.SE:
        return regularize.box_downsample(batch, se_factor).astype(batch.dtype)
    if strategy == Strategy.NONE or gamma == 1.0:
        return batch
    if strategy == Strategy.VAMFM:
        # Each plane keeps the fraction gamma of its own spectral energy.
        planes = batch.astype(np.float64)
        radii = [
            [spectral.cutoff_for_ratio(spectral.radial_profile(spectral.fft2(p)), gamma) for p in s]
            for s in planes
        ]
        return spectral.lowpass(planes, np.array(radii)).astype(batch.dtype)
    if strategy == Strategy.FFM:
        return spectral.lowpass(batch, regularize.FFM_INPUT_CUTOFFS[gamma]).astype(batch.dtype)
    raise ConfigError(f"unknown strategy {strategy}")


def mask_latent(z: ad.Tensor, strategy: Strategy, gamma: float, se_factor: int = 1) -> ad.Tensor:
    """Latent-side masking matching :func:`build_targets` (differentiable)."""
    if strategy == Strategy.SE:
        return ad.avgpool2d(z, se_factor) if se_factor > 1 else z
    if strategy == Strategy.NONE or gamma == 1.0:
        return z
    if strategy in (Strategy.VAMFM, Strategy.FFM):
        return ad.lowpass2d(z, gamma)
    raise ConfigError(f"unknown strategy {strategy}")


def vae_loss(
    vae: Vae,
    batch: np.ndarray,
    strategy: Strategy,
    gamma: float,
    rng: np.random.Generator,
    lat_w=None,
    var_w=None,
    se_factor: int = 1,
):
    """Regularized VAE objective on a (B, V, H, W) standardized batch.

    gamma = 1 (or strategy NONE) reduces exactly to the unmasked objective.
    Returns (loss tensor, scalar parts for logging).
    """
    b, v, h, w = batch.shape
    x = ad.constant(batch)
    mu, logvar = vae.encode(x)
    z = reparameterize(mu, logvar, rng)

    target = build_targets(batch, strategy, gamma, se_factor)
    z_masked = mask_latent(z, strategy, gamma, se_factor)
    recon = vae.decode(z_masked)

    factor = se_factor if strategy == Strategy.SE else 1
    weights = combined_weights(_pool_lat(lat_w, factor), var_w, v, h // factor)
    loss_rec = ad.weighted_mse(recon, target, weights)
    if vae.cfg.beta > 0:
        kl = kl_standard_normal(mu, logvar)
        loss = ad.add(loss_rec, ad.scale(kl, vae.cfg.beta))
        return loss, {"recon": float(loss_rec.data), "kl": float(kl.data)}
    return loss_rec, {"recon": float(loss_rec.data), "kl": 0.0}


# ---------------------------------------------------------------------------
# 3D masked autoencoder
# ---------------------------------------------------------------------------


@dataclass
class MaeConfig:
    latent_channels: int = 16
    channels: tuple = (24, 32)
    spatial_strides: tuple = (2, 2)
    decoder_channels: int = 32
    k: int = 4

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise ConfigError(f"k must be even and >= 2, got {self.k}")


class Mae:
    """Causal 3D encoder plus a non-causal frame-wise decoder, no KL."""

    def __init__(self, v: int, cfg: MaeConfig, rng: np.random.Generator):
        self.v = v
        self.cfg = cfg
        self.stack = causal3d.build_stack(
            rng,
            in_channels=v,
            channels=cfg.channels,
            latent_channels=cfg.latent_channels,
            spatial_strides=cfg.spatial_strides,
        )
        cz, cd = cfg.latent_channels, cfg.decoder_channels
        p = dict(self.stack.params)
        p["d0.w"], p["d0.b"] = _conv_w(rng, cd, cz, 1), _zeros(cd)
        p["d1.w"], p["d1.b"] = _conv_w(rng, cd, cd, 3), _zeros(cd)
        p["d2.w"], p["d2.b"] = _conv_w(rng, cd, cd, 3), _zeros(cd)
        p["dh.w"], p["dh.b"] = _conv_w(rng, v, cd, 3), _zeros(v)
        self.params = p

    @property
    def latent_channels(self) -> int:
        return self.cfg.latent_channels

    def encode(self, x: ad.Tensor, mask_last: bool = True) -> ad.Tensor:
        """(B, V, k+1, H, W) window -> (B, Cz, 1+k/2, h, w) latent."""
        return causal3d.encode_full(x, self.stack, mask_last=mask_last)

    @ad.no_grad()
    def encode_array(self, x: np.ndarray, mask_last: bool = True, streaming: bool = False):
        if streaming:
            return causal3d.encode_streaming(x, self.stack, mask_last=mask_last)
        return self.encode(ad.constant(x), mask_last=mask_last).data

    def decode(self, z: ad.Tensor) -> ad.Tensor:
        """Latent frames -> (B, V, k+1, H, W) reconstruction.

        Latent frame 0 maps to the first input frame, frame j >= 1 to the
        input pair (2j-1, 2j); temporal nearest upsampling then dropping the
        first duplicate realigns the axes.
        """
        b, cz, tm, hh, ww = z.data.shape
        t_out = 2 * tm - 1
        h = ad.repeat_axis(z, 2, axis=2)
        h = ad.narrow(h, 2, 1, t_out)
        # Fold time into the batch for frame-wise 2D decoding.
        h = ad.transpose(h, (0, 2, 1, 3, 4))
        h = ad.reshape(h, (b * t_out, cz, hh, ww))
        p = self.params
        h = ad.silu(ad.conv2d(h, p["d0.w"], p["d0.b"]))
        h = ad.upsample2d(h)
        h = ad.silu(ad.conv2d(h, p["d1.w"], p["d1.b"]))
        h = ad.upsample2d(h)
        h = ad.silu(ad.conv2d(h, p["d2.w"], p["d2.b"]))
        h = ad.conv2d(h, p["dh.w"], p["dh.b"])
        h = ad.reshape(h, (b, t_out, self.v, h.data.shape[-2], h.data.shape[-1]))
        return ad.transpose(h, (0, 2, 1, 3, 4))


def mae_loss(mae: Mae, window: np.ndarray, lat_w=None, var_w=None, mask_last: bool = True):
    """Masked reconstruction of all k+1 frames of a (B, V, k+1, H, W) window."""
    b, v, t, h, w = window.shape
    z = mae.encode(ad.constant(window), mask_last=mask_last)
    recon = mae.decode(z)
    weights = combined_weights(lat_w, var_w, v, h)[:, None, :, :]
    return ad.weighted_mse(recon, window, weights)


# ---------------------------------------------------------------------------
# Frame-wise 2D conditioning encoder (ablation baseline)
# ---------------------------------------------------------------------------


class FrameAe:
    """Plain 2D autoencoder on states; matched latent channel budget."""

    def __init__(self, v: int, latent_channels: int, rng: np.random.Generator, base: int = 16):
        self.v = v
        self.latent_channels = latent_channels
        c1, c2, cz = base, 2 * base, latent_channels
        p = {}
        p["e0.w"], p["e0.b"] = _conv_w(rng, c1, v, 3), _zeros(c1)
        p["e1.w"], p["e1.b"] = _conv_w(rng, c2, c1, 3), _zeros(c2)
        p["eh.w"], p["eh.b"] = _conv_w(rng, cz, c2, 1), _zeros(cz)
        p["d0.w"], p["d0.b"] = _conv_w(rng, c2, cz, 1), _zeros(c2)
        p["d1.w"], p["d1.b"] = _conv_w(rng, c1, c2, 3), _zeros(c1)
        p["dh.w"], p["dh.b"] = _conv_w(rng, v, c1, 3), _zeros(v)
        self.params = p

    def encode(self, x: ad.Tensor) -> ad.Tensor:
        p = self.params
        h = ad.silu(ad.conv2d(x, p["e0.w"], p["e0.b"], stride=2))
        h = ad.silu(ad.conv2d(h, p["e1.w"], p["e1.b"], stride=2))
        return ad.conv2d(h, p["eh.w"], p["eh.b"])

    def decode(self, z: ad.Tensor) -> ad.Tensor:
        p = self.params
        h = ad.silu(ad.conv2d(z, p["d0.w"], p["d0.b"]))
        h = ad.upsample2d(h)
        h = ad.silu(ad.conv2d(h, p["d1.w"], p["d1.b"]))
        h = ad.upsample2d(h)
        return ad.conv2d(h, p["dh.w"], p["dh.b"])

    @ad.no_grad()
    def encode_array(self, x: np.ndarray) -> np.ndarray:
        return self.encode(ad.constant(x)).data


def frame_ae_loss(ae: FrameAe, batch: np.ndarray, lat_w=None, var_w=None):
    recon = ae.decode(ae.encode(ad.constant(batch)))
    weights = combined_weights(lat_w, var_w, batch.shape[1], batch.shape[2])
    return ad.weighted_mse(recon, batch, weights)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    iters: int = 200
    batch: int = 4
    lr: float = 1e-3
    betas: tuple = (0.9, 0.95)
    weight_decay: float = 0.0
    seed: int = 0


def train_vae(
    vae: Vae,
    resid_std: np.ndarray,
    cfg: TrainConfig,
    strategy: Strategy,
    lat_w=None,
    var_w=None,
) -> list[float]:
    """Train on standardized residual frames (N, V, H, W); returns loss curve.

    Batch sampling, the masking schedule, and reparameterization noise use
    separate seeded streams, so a gamma=1-only schedule reproduces the NONE
    trace exactly.
    """
    rng_batch = np.random.default_rng([cfg.seed, 0])
    rng_gamma = np.random.default_rng([cfg.seed, 1])
    rng_eps = np.random.default_rng([cfg.seed, 2])
    opt = ad.AdamW(vae.params, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay)
    n = resid_std.shape[0]
    losses = []
    for _ in range(cfg.iters):
        idx = rng_batch.integers(0, n, size=cfg.batch)
        batch = resid_std[idx]
        if strategy == Strategy.SE:
            gamma, factor = 1.0, int(rng_gamma.choice(SE_FACTORS))
        elif strategy == Strategy.NONE:
            gamma, factor = 1.0, 1
        else:
            gamma, factor = regularize.sample_gamma(rng_gamma), 1
        loss, _ = vae_loss(vae, batch, strategy, gamma, rng_eps, lat_w, var_w, factor)
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    return losses


def train_mae(
    mae: Mae,
    states_std: np.ndarray,
    cfg: TrainConfig,
    lat_w=None,
    var_w=None,
    warmup_frac: float = 0.25,
) -> list[float]:
    """Two-phase curriculum: unmasked reconstruction, then final-frame masking.

    ``states_std`` is the standardized state sequence (T, V, H, W).
    """
    rng = np.random.default_rng(cfg.seed)
    opt = ad.AdamW(mae.params, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay)
    k = mae.cfg.k
    t_max = states_std.shape[0] - (k + 1)
    if t_max < 1:
        raise ConfigError(f"need at least {k + 2} frames to train the 3D-MAE")
    warmup = int(cfg.iters * warmup_frac)
    losses = []
    for it in range(cfg.iters):
        starts = rng.integers(0, t_max + 1, size=cfg.batch)
        window = np.stack([states_std[s : s + k + 1] for s in starts])
        window = np.ascontiguousarray(window.swapaxes(1, 2))  # (B, V, k+1, H, W)
        loss = mae_loss(mae, window, lat_w, var_w, mask_last=it >= warmup)
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    return losses


def train_frame_ae(
    ae: FrameAe, states_std: np.ndarray, cfg: TrainConfig, lat_w=None, var_w=None
) -> list[float]:
    rng = np.random.default_rng(cfg.seed)
    opt = ad.AdamW(ae.params, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay)
    n = states_std.shape[0]
    losses = []
    for _ in range(cfg.iters):
        idx = rng.integers(0, n, size=cfg.batch)
        loss = frame_ae_loss(ae, states_std[idx], lat_w, var_w)
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    return losses
