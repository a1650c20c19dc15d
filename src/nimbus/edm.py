"""Conditional diffusion on residual latents with EDM preconditioning.

The denoiser D wraps a raw network F as

    D(z', cond, sigma) = c_skip * z' + c_out * F(c_in * z', cond, c_noise)

with the standard scalings c_skip = sd^2/(s^2+sd^2), c_out = s*sd/sqrt(s^2+sd^2),
c_in = 1/sqrt(s^2+sd^2), c_noise = ln(s)/4. Sampling integrates the probability
flow ODE over the rho-schedule with the multistep DPM-Solver++(3M) at eta = 0
(Lu et al. 2022, in k-diffusion's form): each schedule entry costs one
denoiser call, and each step extrapolates in ln(sigma) through that call and
the two before it, using each earlier output whose gap is at least half the
step. So the first step is first order and the second second order; the last
entry returns its denoiser output, which is the step to sigma = 0. The
published update weights the quadratic term by phi_3 where the exact integral
of the quadratic takes 2 phi_3, so the sampler converges at second order
(about 4x per doubling of steps), yet at few steps it tracks the analytic
oracle closer: at 12 steps its worst variance error reads .095 against .230
with 2 phi_3 (CHANGES.md). Where ``s_churn`` > 0, ``sample_stochastic``
churns: inside [s_min, s_max] it perturbs the state and its sigma before a
call and keeps the history, and the order rule drops the outputs that churn
brings within half a step. At ``s_churn`` = 0 it draws no churn noise and is
the deterministic sampler.

Inference runs in float32 throughout. The sampler draws its noise in float64
(so each seed keeps its stream) and casts it to float32; noise levels and
preconditioning scalars are Python floats, which cannot promote the float32
state. The denoiser closure runs the network under ``autodiff.no_grad()``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DomainError


# The defaults are the EDM paper's values (Karras et al. 2022), kept on
# purpose: perfbench/stage.py builds EdmConfig(sigma_data=...) and relies on
# them; s_churn 0 is no churn. The product's sampler defaults are
# cli.DEFAULT_CONFIG["sampler"], one key per field but sigma_data, p_mean and p_std.
@dataclass
class EdmConfig:
    sigma_data: float = 0.5
    sigma_min: float = 0.002
    sigma_max: float = 80.0
    rho: float = 7.0
    p_mean: float = -1.2
    p_std: float = 1.2
    steps: int = 25
    s_churn: float = 0.0
    s_min: float = 0.75
    s_max: float = 68.0
    s_noise: float = 1.1

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max):
            raise ConfigError("sigma_min must be > 0 and < sigma_max")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.steps > 1:
            _check_schedule(self)


def _check_schedule(config: EdmConfig) -> None:
    """ConfigError unless the schedule is finite, positive and strictly decreasing.

    The sampler divides by the ln-sigma gap of each step, so every entry must
    lie below the one before. Checked in O(1), without building the schedule:
    its bases sigma**(1/rho) fall by (hi - lo) / (steps - 1) per entry, and a
    fall of 16 rounding units of hi (16 / rho where rho < 1, since the power
    then shrinks relative gaps) outlasts the rounding of every entry. The last
    two entries are checked as computed: hi + (lo - hi) cancels to 0 when lo is
    far below hi's rounding unit, and below the smallest normal float entries
    lose their relative precision.
    """
    try:
        hi, lo = (float(s) ** (1.0 / config.rho) for s in (config.sigma_max, config.sigma_min))
    except OverflowError:
        raise ConfigError(
            f"rho must keep sigma_max ** (1 / rho) finite at sigma_max = {config.sigma_max!r}, "
            f"got {config.rho!r}"
        ) from None
    if not min(1.0, config.rho) * (hi - lo) / (config.steps - 1) >= 16 * math.ulp(hi):
        raise ConfigError(
            f"sigma_max must be far enough above sigma_min = {config.sigma_min!r} that the "
            f"{config.steps}-entry schedule strictly decreases, got {config.sigma_max!r}"
        )
    last_two = _rho_schedule(config, np.array([config.steps - 2.0, config.steps - 1.0]))
    if not last_two[0] > last_two[1] >= sys.float_info.min:
        raise ConfigError(
            f"sigma_min must keep the schedule's last entry a normal float, at least "
            f"{sys.float_info.min!r}, at sigma_max = {config.sigma_max!r}, got {config.sigma_min!r}"
        )


def precondition(sigma, config: EdmConfig):
    """EDM scalings (c_skip, c_out, c_in, c_noise) for sigma > 0."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise DomainError("sigma must be positive")
    sd = config.sigma_data
    denom = sigma**2 + sd**2
    c_skip = sd**2 / denom
    c_out = sigma * sd / np.sqrt(denom)
    c_in = 1.0 / np.sqrt(denom)
    c_noise = np.log(sigma) / 4.0
    return c_skip, c_out, c_in, c_noise


def loss_weight(sigma, config: EdmConfig):
    """lambda(sigma) = (sigma^2 + sd^2) / (sigma * sd)^2."""
    sigma = np.asarray(sigma, dtype=np.float64)
    sd = config.sigma_data
    return (sigma**2 + sd**2) / (sigma * sd) ** 2


def sample_sigma(rng: np.random.Generator, config: EdmConfig, size=None):
    """Log-normal noise levels: ln(sigma) ~ N(p_mean, p_std^2)."""
    return np.exp(rng.normal(config.p_mean, config.p_std, size=size))


def sigma_schedule(config: EdmConfig) -> np.ndarray:
    """Strictly decreasing rho-schedule from sigma_max to sigma_min."""
    if config.steps == 1:
        return np.array([config.sigma_max])
    return _rho_schedule(config, np.arange(config.steps, dtype=np.float64))


def _rho_schedule(config: EdmConfig, i: np.ndarray) -> np.ndarray:
    """Entries ``i`` (float64 indices) of the schedule of ``config.steps`` >= 2 entries."""
    inv_rho = 1.0 / config.rho
    hi, lo = config.sigma_max**inv_rho, config.sigma_min**inv_rho
    return (hi + i / (config.steps - 1) * (lo - hi)) ** config.rho


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


def build_condition(z_bar: np.ndarray, z_prev: np.ndarray, z_noisy: np.ndarray) -> np.ndarray:
    """Concatenate (noisy, z_bar frames, z_prev) along the temporal axis.

    z_bar: (B, C, 1+k/2, h, w); z_prev, z_noisy: (B, C, h, w).
    Output: (B, C, T, h, w) with T = 3 + k/2.
    """
    if z_bar.ndim != 5 or z_prev.ndim != 4 or z_noisy.ndim != 4:
        raise DomainError("expected z_bar (B,C,T,h,w) and 4-axis z_prev/z_noisy")
    if z_bar.shape[-2:] != z_prev.shape[-2:] or z_bar.shape[-2:] != z_noisy.shape[-2:]:
        raise DomainError("latent spatial dimensions disagree")
    return np.concatenate(
        [z_noisy[:, :, None], z_bar, z_prev[:, :, None]], axis=2
    )


# ---------------------------------------------------------------------------
# Miniature conditional denoiser network
# ---------------------------------------------------------------------------


@dataclass
class DenoiserConfig:
    latent_channels: int = 16
    hidden: int = 32
    blocks: int = 4
    t_frames: int = 5  # 3 + k/2
    emb_dim: int = 16


class Denoiser:
    """1x1x1 projection, FiLM/rmsnorm conv blocks, temporal-collapse head."""

    def __init__(self, cfg: DenoiserConfig, rng: np.random.Generator):
        self.cfg = cfg
        c, d, t = cfg.latent_channels, cfg.hidden, cfg.t_frames
        p = {}

        def conv3(name, o, ci, kt, khw):
            p[f"{name}.w"] = ad.conv_weight(rng, o, ci, kt, khw, khw)
            p[f"{name}.b"] = ad.param(np.zeros(o))

        conv3("proj", d, c, 1, 1)
        p["emb0.w"] = ad.param(rng.standard_normal((1, cfg.emb_dim)) * 1.0)
        p["emb0.b"] = ad.param(np.zeros(cfg.emb_dim))
        for i in range(cfg.blocks):
            p[f"blk{i}.gain"] = ad.param(np.ones(d))
            p[f"blk{i}.film.w"] = ad.param(
                rng.standard_normal((cfg.emb_dim, 2 * d)) * (1.0 / np.sqrt(cfg.emb_dim))
            )
            p[f"blk{i}.film.b"] = ad.param(np.zeros(2 * d))
            conv3(f"blk{i}.conv", d, d, 2, 3)
        p["head.gain"] = ad.param(np.ones(d))
        conv3("head.collapse", d, d, t, 1)
        # Zero-init output projection: the raw network starts at F = 0.
        p["headout.w"] = ad.param(np.zeros((c, d, 1, 1)))
        p["headout.b"] = ad.param(np.zeros(c))
        self.params = p

    def forward(self, cond: ad.Tensor, c_noise: np.ndarray) -> ad.Tensor:
        """cond: (B, C, T, h, w) tensor; c_noise: (B,) noise embedding input."""
        p = self.params
        b, _, t, hh, ww = cond.data.shape
        if t != self.cfg.t_frames:
            raise DomainError(f"expected {self.cfg.t_frames} frames, got {t}")
        emb_in = ad.constant(np.asarray(c_noise, dtype=cond.data.dtype).reshape(b, 1))
        emb = ad.silu(ad.linear(emb_in, p["emb0.w"], p["emb0.b"]))
        h = ad.conv3d(cond, p["proj.w"], p["proj.b"])
        d = self.cfg.hidden
        for i in range(self.cfg.blocks):
            fs = ad.linear(emb, p[f"blk{i}.film.w"], p[f"blk{i}.film.b"])
            scl = ad.reshape(ad.narrow(fs, 1, 0, d), (b, d, 1, 1, 1))
            sft = ad.reshape(ad.narrow(fs, 1, d, d), (b, d, 1, 1, 1))
            hn = ad.rmsnorm(h, p[f"blk{i}.gain"], axis=1)
            hn = ad.film(hn, ad.add_scalar(scl, 1.0), sft)
            hn = ad.conv3d(ad.silu(hn), p[f"blk{i}.conv.w"], p[f"blk{i}.conv.b"], pad_t=1)
            h = ad.add(h, hn)
        h = ad.rmsnorm(h, p["head.gain"], axis=1)
        h = ad.conv3d(h, p["head.collapse.w"], p["head.collapse.b"])  # (B,d,1,h,w)
        h = ad.reshape(h, (b, d, hh, ww))
        return ad.conv2d(h, p["headout.w"], p["headout.b"])


def make_denoise_fn(net: Denoiser, z_bar: np.ndarray, z_prev: np.ndarray, config: EdmConfig):
    """Closure (z_noisy, sigma) -> D for sampling, conditioning held fixed."""

    @ad.no_grad()
    def denoise(z_noisy: np.ndarray, sigma: float) -> np.ndarray:
        c_skip, c_out, c_in, c_noise = (float(c) for c in precondition(sigma, config))
        cond = build_condition(z_bar, z_prev, c_in * z_noisy)
        b = z_noisy.shape[0]
        f = net.forward(ad.constant(cond), np.full(b, c_noise))
        return c_skip * z_noisy + c_out * f.data

    return denoise


def diffusion_loss(
    net: Denoiser,
    z_clean: np.ndarray,
    z_bar: np.ndarray,
    z_prev: np.ndarray,
    sigma: np.ndarray,
    rng: np.random.Generator,
    config: EdmConfig,
) -> ad.Tensor:
    """lambda(sigma)-weighted MSE between D(z', cond, sigma) and z_clean."""
    b = z_clean.shape[0]
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (b,))
    eps = rng.standard_normal(z_clean.shape).astype(z_clean.dtype)
    sig4 = sigma.reshape(b, 1, 1, 1)
    z_noisy = (z_clean + sig4 * eps).astype(z_clean.dtype)
    c_skip, c_out, c_in, c_noise = precondition(sigma, config)
    cond = build_condition(z_bar, z_prev, (c_in.reshape(b, 1, 1, 1) * z_noisy).astype(z_clean.dtype))
    f = net.forward(ad.constant(cond), c_noise)
    d = ad.add(
        ad.constant((c_skip.reshape(b, 1, 1, 1) * z_noisy).astype(z_clean.dtype)),
        ad.mul(f, ad.constant(np.broadcast_to(c_out.reshape(b, 1, 1, 1), f.data.shape).astype(z_clean.dtype))),
    )
    lam = loss_weight(sigma, config).reshape(b, 1, 1, 1)
    sq = ad.square(ad.sub(d, ad.constant(z_clean)))
    return ad.mean_all(ad.mul(sq, ad.constant(np.broadcast_to(lam, sq.data.shape).astype(z_clean.dtype))))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _sample(denoise, shape, rng, config: EdmConfig, s_churn: float):
    sigmas = sigma_schedule(config).tolist()
    n = len(sigmas)
    x = rng.standard_normal(shape).astype(np.float32) * sigmas[0]
    # The last two calls' outputs, d1 the newer, and the ln-sigma gaps of
    # their calls: h1 from d1's call to this one, h2 from d2's call to d1's.
    d1 = d2 = sigma_prev = None
    h1 = 0.0
    for i, sigma in enumerate(sigmas):
        if s_churn > 0 and config.s_min <= sigma <= config.s_max:
            gamma = min(s_churn / n, math.sqrt(2.0) - 1.0)
            if gamma > 0:
                sigma_hat = sigma * (1.0 + gamma)
                extra = math.sqrt(sigma_hat**2 - sigma**2)
                x = x + config.s_noise * extra * rng.standard_normal(shape).astype(np.float32)
                sigma = sigma_hat
        d = np.asarray(denoise(x, sigma), dtype=np.float32)
        if i == n - 1:
            return d
        sigma_next = sigmas[i + 1]
        h = math.log(sigma / sigma_next)
        h2, h1 = h1, (math.log(sigma_prev / sigma) if i else 0.0)
        x = (sigma_next / sigma) * x - math.expm1(-h) * d
        # Quadratic in ln(sigma) through the last three outputs (DPM-Solver++(3M)
        # at eta = 0). A step uses each earlier output whose gap is at least
        # half the step: below r = 0.5 the divided differences amplify the
        # difference of outputs that churn noise separates (churn can lift
        # sigma to or past the previous call's), so the order drops there.
        # Unchurned, the default 12-entry schedule keeps r0 = h1 / h above 0.8
        # and r1 = h2 / h above 0.69, so every step from the third uses three.
        if h1 >= 0.5 * h:
            phi2 = math.expm1(-h) / h + 1.0
            r0 = h1 / h
            delta0 = (d - d1) / r0
            if h2 >= 0.5 * h:
                r1 = h2 / h
                dd2 = (delta0 - (d1 - d2) / r1) / (r0 + r1)
                x = x + phi2 * (delta0 + r0 * dd2) - (phi2 / h - 0.5) * dd2
            else:
                x = x + phi2 * delta0
        d1, d2, sigma_prev = d, d1, sigma


def sample_deterministic(denoise, shape, rng: np.random.Generator, config: EdmConfig):
    """DPM-Solver++(3M) from sigma_max noise to sigma = 0; noise only at init.

    One denoiser call per schedule entry. The first step uses one output, the
    second up to two, and every later step up to three by ``_sample``'s order
    rule; on the default 12-entry schedule every later step uses three.
    """
    return _sample(denoise, shape, rng, config, s_churn=0.0)


def sample_stochastic(denoise, shape, rng: np.random.Generator, config: EdmConfig):
    """The product sampler: the deterministic one with ``config``'s churn.

    Where ``config.s_churn`` > 0, noise raises the state's sigma before each
    call in [s_min, s_max]. Still one call per schedule entry; the multistep
    history is kept across churned steps, so s_churn = 0 reproduces the
    deterministic path bit for bit. A step drops each earlier output whose
    call's sigma churn brings within half a step of the next one (or past it).
    """
    return _sample(denoise, shape, rng, config, s_churn=config.s_churn)


def calls_per_sample(config: EdmConfig) -> int:
    """Denoiser calls either sampler makes per sample: one per schedule entry."""
    return len(sigma_schedule(config))


def analytic_gaussian_denoiser(mu: np.ndarray, cov_diag: np.ndarray):
    """Exact EDM-optimal denoiser for N(mu, diag(cov)) data.

    D(x; sigma) = mu + C (C + sigma^2 I)^{-1} (x - mu), elementwise for a
    diagonal covariance. Serves as a sampler-validation oracle.
    """
    mu = np.asarray(mu, dtype=np.float64)
    cov = np.asarray(cov_diag, dtype=np.float64)
    if np.any(cov <= 0):
        raise DomainError("cov_diag must be positive")

    def denoise(x, sigma):
        shrink = cov / (cov + float(sigma) ** 2)
        return mu + shrink * (x - mu)

    return denoise


def estimate_sigma_data(latents: np.ndarray) -> float:
    """Empirical std of training residual latents: the sigma_data of EDM preconditioning."""
    return float(np.std(np.asarray(latents, dtype=np.float64)))
