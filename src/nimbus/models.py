"""Miniature autoencoders and their training objectives.

The VAE works on standardized residual fields (one frame at a time) and
carries the spectral-regularization hooks. The 3D-MAE works on standardized
raw states: its causal encoder must predict evolution, so it never reads the
final frame of a window, and the decoder reconstructs all k+1 frames.
A frame-wise 2D autoencoder provides the conditioning baseline for ablations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import regularize, spectral
from .errors import ConfigError, DomainError
from .regularize import Strategy


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
        p["enc0.w"], p["enc0.b"] = ad.conv_weight(rng, c1, v, 3), _zeros(c1)
        p["enc1.w"], p["enc1.b"] = ad.conv_weight(rng, c2, c1, 3), _zeros(c2)
        p["encr0.w"], p["encr0.b"] = ad.conv_weight(rng, c2, c2, 3), _zeros(c2)
        p["encr1.w"], p["encr1.b"] = ad.conv_weight(rng, c2, c2, 3), _zeros(c2)
        p["ench.w"], p["ench.b"] = ad.conv_weight(rng, 2 * cz, c2, 1), _zeros(2 * cz)
        p["dec0.w"], p["dec0.b"] = ad.conv_weight(rng, c2, cz, 1), _zeros(c2)
        p["decr0.w"], p["decr0.b"] = ad.conv_weight(rng, c2, c2, 3), _zeros(c2)
        p["decr1.w"], p["decr1.b"] = ad.conv_weight(rng, c2, c2, 3), _zeros(c2)
        p["dec1.w"], p["dec1.b"] = ad.conv_weight(rng, c1, c2, 3), _zeros(c1)
        p["dec2.w"], p["dec2.b"] = ad.conv_weight(rng, c1, c1, 3), _zeros(c1)
        p["dech.w"], p["dech.b"] = ad.conv_weight(rng, v, c1, 3), _zeros(v)
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


def combined_weights(lat_w, var_w) -> np.ndarray:
    """Broadcastable (V, H, 1) loss weights from latitude (H,) and variable (V,) parts."""
    lw = np.asarray(lat_w, dtype=np.float64)
    vw = np.asarray(var_w, dtype=np.float64)
    return vw[:, None, None] * lw[None, :, None]


def _pool_lat(lat_w, factor: int):
    if factor == 1:
        return lat_w
    return np.asarray(lat_w, dtype=np.float64).reshape(-1, factor).mean(axis=1)


def build_targets(batch: np.ndarray, strategy: Strategy, gamma: float, se_factor: int = 1):
    """Reconstruction targets for a (B, V, H, W) batch under a strategy."""
    if strategy == Strategy.SE:
        return ad.avgpool2d(ad.constant(batch.astype(np.float64)), se_factor).data.astype(batch.dtype)
    if strategy == Strategy.NONE or gamma == 1.0:
        return batch
    if strategy == Strategy.VAMFM:
        # Each plane keeps the fraction gamma of its own spectral energy.
        coeffs = np.fft.fft2(batch.astype(np.float64))
        return spectral.lowpass_coeffs(coeffs, spectral.energy_cutoff(coeffs, gamma)).astype(batch.dtype)
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
    lat_w,
    var_w,
    se_factor: int = 1,
):
    """Regularized VAE objective on a (B, V, H, W) standardized batch.

    gamma = 1 (or strategy NONE) reduces exactly to the unmasked objective.
    Returns (loss tensor, scalar parts for logging).
    """
    x = ad.constant(batch)
    mu, logvar = vae.encode(x)
    z = reparameterize(mu, logvar, rng)

    target = build_targets(batch, strategy, gamma, se_factor)
    z_masked = mask_latent(z, strategy, gamma, se_factor)
    recon = vae.decode(z_masked)

    factor = se_factor if strategy == Strategy.SE else 1
    weights = combined_weights(_pool_lat(lat_w, factor), var_w)
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
    """Causal 3D encoder plus a non-causal frame-wise decoder, no KL.

    The encoder reads a window of k+1 frames behind three causal zero frames,
    so the padded sequence holds frames 0 ... k+3. Layer 0 (temporal extent
    2, stride 1) and layer 1 (extent 2, temporal stride 2) mix time; the
    layers after them and the 1x1x1 head are frame-local. It emits 1 + k/2
    latent frames, and latent frame j reads padded frames 2j ... 2j+2 only,
    so no frame reads a later one. Latent frame 0 reads only the zero frames,
    and the window's last frame (padded frame k+3) is never read.
    """

    def __init__(self, v: int, cfg: MaeConfig, rng: np.random.Generator):
        self.v = v
        self.cfg = cfg
        cz, cd = cfg.latent_channels, cfg.decoder_channels
        p = {}
        # c3d0 ... c3d{n-1} have 3x3 spatial kernels and temporal extent 2 for
        # the first two, 1 after; c3d{n} is the 1x1x1 head.
        cin, n = v, len(cfg.channels)
        for i, cout in enumerate([*cfg.channels, cz]):
            kt, k_hw = (2 if i < 2 else 1), (3 if i < n else 1)
            p[f"c3d{i}.w"] = ad.conv_weight(rng, cout, cin, kt, k_hw, k_hw)
            p[f"c3d{i}.b"] = _zeros(cout)
            cin = cout
        p["d0.w"], p["d0.b"] = ad.conv_weight(rng, cd, cz, 1), _zeros(cd)
        p["d1.w"], p["d1.b"] = ad.conv_weight(rng, cd, cd, 3), _zeros(cd)
        p["d2.w"], p["d2.b"] = ad.conv_weight(rng, cd, cd, 3), _zeros(cd)
        p["dh.w"], p["dh.b"] = ad.conv_weight(rng, v, cd, 3), _zeros(v)
        self.params = p

    @property
    def latent_channels(self) -> int:
        return self.cfg.latent_channels

    def encode(self, x: ad.Tensor) -> ad.Tensor:
        """(B, V, k+1, H, W) window -> (B, Cz, 1+k/2, h, w) latent."""
        k, p = self.cfg.k, self.params
        if x.data.ndim != 5 or x.data.shape[2] != k + 1:
            raise DomainError(f"window must be (B, V, k+1 = {k + 1}, H, W), got {x.data.shape}")
        h = x
        for i, s in enumerate(self.cfg.spatial_strides):
            # Layer 0 reads the three causal zero frames; layer 1 strides time by 2.
            stride_t, pad_t = (1, 3) if i == 0 else (2, 0) if i == 1 else (1, 0)
            h = ad.silu(ad.conv3d(h, p[f"c3d{i}.w"], p[f"c3d{i}.b"], stride_t, s, pad_t))
        n = len(self.cfg.spatial_strides)
        h = ad.conv3d(h, p[f"c3d{n}.w"], p[f"c3d{n}.b"])
        if h.data.shape[2] != 1 + k // 2:
            raise DomainError(f"encoder produced {h.data.shape[2]} frames, expected {1 + k // 2}")
        return h

    @ad.no_grad()
    def encode_array(self, x: np.ndarray) -> np.ndarray:
        """Graph-free encoding of a (B, V, k+1, H, W) window."""
        return self.encode(ad.constant(x)).data

    def decode_frames(self, z: ad.Tensor) -> ad.Tensor:
        """Frame-wise 2D decoder: (N, Cz, h, w) latent frames -> (N, V, H, W)."""
        p = self.params
        h = ad.silu(ad.conv2d(z, p["d0.w"], p["d0.b"]))
        h = ad.upsample2d(h)
        h = ad.silu(ad.conv2d(h, p["d1.w"], p["d1.b"]))
        h = ad.upsample2d(h)
        h = ad.silu(ad.conv2d(h, p["d2.w"], p["d2.b"]))
        return ad.conv2d(h, p["dh.w"], p["dh.b"])

    def decode(self, z: ad.Tensor) -> ad.Tensor:
        """Latent frames -> (B, V, k+1, H, W) reconstruction.

        Latent frame 0 maps to the first input frame, frame j >= 1 to the
        input pair (2j-1, 2j). Each of the 1 + k/2 latent frames is decoded
        once; temporal nearest upsampling of the decoded frames, then
        dropping the first duplicate, realigns the axes.
        """
        b, cz, tm, hh, ww = z.data.shape
        # Fold time into the batch for frame-wise 2D decoding.
        h = ad.reshape(ad.transpose(z, (0, 2, 1, 3, 4)), (b * tm, cz, hh, ww))
        h = self.decode_frames(h)
        h = ad.reshape(h, (b, tm, self.v, h.data.shape[-2], h.data.shape[-1]))
        h = ad.transpose(h, (0, 2, 1, 3, 4))
        return ad.narrow(ad.repeat_axis(h, 2, axis=2), 2, 1, 2 * tm - 1)


def mae_loss(mae: Mae, window: np.ndarray, lat_w, var_w):
    """Reconstruction of all k+1 frames of a (B, V, k+1, H, W) window.

    The encoder never reads the last frame, so the decoder must predict it.
    """
    z = mae.encode(ad.constant(window))
    recon = mae.decode(z)
    weights = combined_weights(lat_w, var_w)[:, None, :, :]
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
        p["e0.w"], p["e0.b"] = ad.conv_weight(rng, c1, v, 3), _zeros(c1)
        p["e1.w"], p["e1.b"] = ad.conv_weight(rng, c2, c1, 3), _zeros(c2)
        p["eh.w"], p["eh.b"] = ad.conv_weight(rng, cz, c2, 1), _zeros(cz)
        p["d0.w"], p["d0.b"] = ad.conv_weight(rng, c2, cz, 1), _zeros(c2)
        p["d1.w"], p["d1.b"] = ad.conv_weight(rng, c1, c2, 3), _zeros(c1)
        p["dh.w"], p["dh.b"] = ad.conv_weight(rng, v, c1, 3), _zeros(v)
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


def frame_ae_loss(ae: FrameAe, batch: np.ndarray, lat_w, var_w):
    recon = ae.decode(ae.encode(ad.constant(batch)))
    weights = combined_weights(lat_w, var_w)
    return ad.weighted_mse(recon, batch, weights)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """One training loop's length, batch, learning rate and seed; AdamW fixes the rest."""

    iters: int
    batch: int
    lr: float
    seed: int


def normal_streams(rng: np.random.Generator, n: int, shape) -> list[np.random.Generator]:
    """One Generator per sample of the batch draw ``rng.standard_normal((n, *shape[1:]))``.

    ``shape`` is one sample's shape, (1, ...). Generator b is a copy of
    ``rng`` at the start of sample b's slice of that draw, so its
    ``standard_normal(shape)`` is that slice exactly; ``rng`` is left where
    the batch draw would leave it. Standard normals come out of a Generator
    in the same sequence whether drawn as one array or as consecutive slices.
    """
    streams = []
    for _ in range(n):
        streams.append(copy.deepcopy(rng))
        rng.standard_normal(shape)
    return streams


def train_vae(
    vae: Vae,
    resid_std: np.ndarray,
    cfg: TrainConfig,
    strategy: Strategy,
    lat_w,
    var_w,
    workers: int = 1,
) -> list[float]:
    """Train on standardized residual frames (N, V, H, W); returns loss curve.

    Batch sampling, the masking schedule, and reparameterization noise use
    separate seeded streams, so a gamma=1-only schedule reproduces the NONE
    trace exactly. Each sample's loss and backward pass run on one of
    ``workers`` threads (``ad.mean_grad_step``); the result does not
    depend on ``workers``.
    """
    rng_batch = np.random.default_rng([cfg.seed, 0])
    rng_gamma = np.random.default_rng([cfg.seed, 1])
    rng_eps = np.random.default_rng([cfg.seed, 2])
    opt = ad.AdamW(vae.params, lr=cfg.lr)
    n, _, h, w = resid_std.shape
    latent = (1, vae.latent_channels, h // 4, w // 4)  # the encoder downsamples 4x
    losses = []
    for _ in range(cfg.iters):
        idx = rng_batch.integers(0, n, size=cfg.batch)
        batch = resid_std[idx]
        gamma, factor = regularize.draw(strategy, rng_gamma)
        eps = normal_streams(rng_eps, cfg.batch, latent)

        def loss_of(b):
            sample = batch[b : b + 1]
            return vae_loss(vae, sample, strategy, gamma, eps[b], lat_w, var_w, factor)[0]

        losses.append(ad.mean_grad_step(opt, loss_of, cfg.batch, workers))
    return losses


def train_mae(
    mae: Mae,
    states_std: np.ndarray,
    cfg: TrainConfig,
    lat_w,
    var_w,
    workers: int = 1,
) -> list[float]:
    """Train on (k+1)-frame windows of the sequence; returns the loss curve.

    ``states_std`` is the standardized state sequence (T, V, H, W). Samples
    run on ``workers`` threads, as in ``train_vae``.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = ad.AdamW(mae.params, lr=cfg.lr)
    k = mae.cfg.k
    t_max = states_std.shape[0] - (k + 1)
    if t_max < 1:
        raise ConfigError(f"need at least {k + 2} frames to train the 3D-MAE")
    losses = []
    for _ in range(cfg.iters):
        starts = rng.integers(0, t_max + 1, size=cfg.batch)
        # One (1, V, k+1, H, W) window per sample.
        windows = [
            np.ascontiguousarray(states_std[None, s : s + k + 1].swapaxes(1, 2)) for s in starts
        ]

        def loss_of(b):
            return mae_loss(mae, windows[b], lat_w, var_w)

        losses.append(ad.mean_grad_step(opt, loss_of, cfg.batch, workers))
    return losses


def train_frame_ae(
    ae: FrameAe,
    states_std: np.ndarray,
    cfg: TrainConfig,
    lat_w,
    var_w,
    workers: int = 1,
) -> list[float]:
    rng = np.random.default_rng(cfg.seed)
    opt = ad.AdamW(ae.params, lr=cfg.lr)
    n = states_std.shape[0]
    losses = []
    for _ in range(cfg.iters):
        idx = rng.integers(0, n, size=cfg.batch)

        def loss_of(b):
            return frame_ae_loss(ae, states_std[idx[b : b + 1]], lat_w, var_w)

        losses.append(ad.mean_grad_step(opt, loss_of, cfg.batch, workers))
    return losses
