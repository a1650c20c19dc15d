"""Causal 3D convolution stacks with stage-windowed streaming.

A sequence of k+1 frames is zero-padded with three prepended frames; stages
s = 1..1+k/2 each see the 4-frame window [2s-2 : 2s+1] of the padded
sequence. Temporal mixing uses kernel extent 2: one initial stride-1 layer,
then exactly one intermediate layer with temporal stride 2; deeper layers are
frame-local (temporal extent 1). The encoder therefore emits one latent frame
per stage, and a per-layer cache of the previous stage's trailing activations
makes streaming arithmetic match the monolithic pass frame-for-frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DomainError, StateError


def check_window_length(t: int) -> int:
    """Validate a k+1-frame window and return k."""
    k = t - 1
    if k < 2 or k % 2 != 0:
        raise DomainError(f"window must hold k+1 frames with even k >= 2, got {t}")
    return k


def pad_and_mask(x: ad.Tensor, mask_last: bool) -> ad.Tensor:
    """Prepend three zero frames; optionally zero the final frame.

    Zeroing is done by slicing and re-concatenating so no gradient can flow
    into the masked frame through the encoder input.
    """
    b, c, t, h, w = x.data.shape
    check_window_length(t)
    zeros3 = ad.constant(np.zeros((b, c, 3, h, w), dtype=x.data.dtype))
    if mask_last:
        body = ad.narrow(x, 2, 0, t - 1)
        zero1 = ad.constant(np.zeros((b, c, 1, h, w), dtype=x.data.dtype))
        return ad.concat([zeros3, body, zero1], axis=2)
    return ad.concat([zeros3, x], axis=2)


@dataclass
class LayerSpec:
    out_channels: int
    kt: int
    stride_t: int
    stride_hw: int
    k_hw: int
    activation: bool


@dataclass
class CausalStack:
    """Ordered causal 3D conv layers; exactly one has temporal stride 2."""

    params: dict[str, ad.Tensor]
    specs: list[LayerSpec]
    in_channels: int

    def __post_init__(self):
        strided = [s for s in self.specs if s.stride_t == 2]
        if len(strided) != 1:
            raise DomainError("exactly one layer must carry temporal stride 2")
        if len(self.specs) < 2 or self.specs[0].kt != 2 or self.specs[0].stride_t != 1:
            raise DomainError("layer 0 must have temporal extent 2 and stride 1")
        if self.specs[1].kt != 2 or self.specs[1].stride_t != 2:
            raise DomainError("layer 1 must be the temporally strided layer")
        for i, sp in enumerate(self.specs[2:], start=2):
            if sp.kt != 1 or sp.stride_t != 1:
                raise DomainError(f"layer {i} must be frame-local (kt=1, stride_t=1)")

    @property
    def out_channels(self) -> int:
        return self.specs[-1].out_channels

    def layer(self, i: int):
        return self.params[f"c3d{i}.w"], self.params.get(f"c3d{i}.b")


def build_stack(
    rng: np.random.Generator,
    in_channels: int,
    channels=(24, 32),
    latent_channels: int = 16,
    spatial_strides=(2, 2),
    use_bias: bool = True,
) -> CausalStack:
    """Minimal stack: [kt=2 st=1, kt=2 st_t=2, ...kt=1..., 1x1 head].

    ``channels``/``spatial_strides`` configure the temporal layers plus any
    frame-local layers after them; a 1x1 projection to ``latent_channels``
    closes the stack.
    """
    if len(channels) < 2 or len(channels) != len(spatial_strides):
        raise DomainError("need >= 2 channel entries matching spatial_strides")
    specs = []
    for i, (c, s) in enumerate(zip(channels, spatial_strides)):
        kt = 2 if i < 2 else 1
        specs.append(
            LayerSpec(
                out_channels=c,
                kt=kt,
                stride_t=2 if i == 1 else 1,
                stride_hw=s,
                k_hw=3,
                activation=True,
            )
        )
    specs.append(
        LayerSpec(
            out_channels=latent_channels, kt=1, stride_t=1, stride_hw=1, k_hw=1, activation=False
        )
    )
    params: dict[str, ad.Tensor] = {}
    cin = in_channels
    for i, sp in enumerate(specs):
        fan_in = cin * sp.kt * sp.k_hw * sp.k_hw
        w = rng.standard_normal((sp.out_channels, cin, sp.kt, sp.k_hw, sp.k_hw))
        params[f"c3d{i}.w"] = ad.param(w * np.sqrt(2.0 / fan_in))
        if use_bias:
            params[f"c3d{i}.b"] = ad.param(np.zeros(sp.out_channels))
        cin = sp.out_channels
    return CausalStack(params=params, specs=specs, in_channels=in_channels)


def _apply_layer(stack: CausalStack, i: int, h: ad.Tensor) -> ad.Tensor:
    sp = stack.specs[i]
    w, b = stack.layer(i)
    h = ad.conv3d(h, w, b, stride_t=sp.stride_t, stride_hw=sp.stride_hw)
    if sp.activation:
        h = ad.silu(h)
    return h


def encode_full(x: ad.Tensor, stack: CausalStack, mask_last: bool = True) -> ad.Tensor:
    """Monolithic causal encoding of a k+1-frame window.

    Output temporal length is 1 + k/2.
    """
    k = check_window_length(x.data.shape[2])
    h = pad_and_mask(x, mask_last)
    for i in range(len(stack.specs)):
        h = _apply_layer(stack, i, h)
    if h.data.shape[2] != 1 + k // 2:
        raise StateError(
            f"stack produced {h.data.shape[2]} frames, expected {1 + k // 2}"
        )
    return h


# ---------------------------------------------------------------------------
# Streaming path (inference only, no graph)
# ---------------------------------------------------------------------------


@dataclass
class CacheState:
    """Per-layer trailing activations carried between stages."""

    input_tail: np.ndarray | None = None
    pending: list[np.ndarray | None] = field(default_factory=list)
    stage: int = 0


def init_cache(stack: CausalStack) -> CacheState:
    return CacheState(input_tail=None, pending=[None] * len(stack.specs), stage=0)


@ad.no_grad()
def stream_step(stack: CausalStack, pair: np.ndarray, cache: CacheState):
    """Consume the next two padded frames; emit one latent frame.

    ``pair`` has shape (B, C, 2, H, W). The first call (stage 1) must pass
    the pair (0, X_0) implied by the three-frame zero pad; the two remaining
    zero frames are the initial input cache.
    """
    if pair.ndim != 5 or pair.shape[2] != 2:
        raise StateError(f"stream_step expects a (B,C,2,H,W) pair, got {pair.shape}")
    if cache.input_tail is None:
        if cache.stage != 0:
            raise StateError("cache stage counter out of sync with empty cache")
        cache.input_tail = np.zeros_like(pair)
        cache.pending = [None] * len(stack.specs)
    if cache.input_tail.shape != pair.shape:
        raise StateError(
            f"cache shape {cache.input_tail.shape} drifted from input {pair.shape}"
        )
    cache.stage += 1

    # Temporal layer 0 over the 4-frame window [c_{s-1}, pair].
    window = np.concatenate([cache.input_tail, pair], axis=2)
    cache.input_tail = pair.copy()
    out0 = _apply_layer(stack, 0, ad.constant(window)).data
    # Stage 1 contributes three new frames to the layer-0 stream; later
    # stages recompute the overlap frame, which is dropped.
    chunk = out0 if cache.stage == 1 else out0[:, :, 1:]

    # Strided temporal layer: consume the stream in strict pairs.
    stream = chunk if cache.pending[1] is None else np.concatenate(
        [cache.pending[1], chunk], axis=2
    )
    n_pairs = stream.shape[2] // 2
    if n_pairs == 0:
        raise StateError("strided layer starved: no full pair available")
    h = _apply_layer(stack, 1, ad.constant(stream[:, :, : 2 * n_pairs]))
    leftover = stream[:, :, 2 * n_pairs :]
    cache.pending[1] = leftover.copy() if leftover.shape[2] else None

    # Frame-local layers.
    for i in range(2, len(stack.specs)):
        h = _apply_layer(stack, i, h)
    return h.data, cache


def stream_pairs(x: np.ndarray, mask_last: bool = True):
    """Split a (B, C, k+1, H, W) window into the stage input pairs.

    The first pair is (0, X_0); the last pair ends with the (optionally
    masked) final frame.
    """
    k = check_window_length(x.shape[2])
    b, c, _, h, w = x.shape
    padded = np.concatenate([np.zeros((b, c, 1, h, w), dtype=x.dtype), x], axis=2)
    if mask_last:
        padded = padded.copy()
        padded[:, :, -1] = 0.0
    return [padded[:, :, 2 * s : 2 * s + 2] for s in range(1 + k // 2)]


def encode_streaming(x: np.ndarray, stack: CausalStack, mask_last: bool = True) -> np.ndarray:
    """Stage-by-stage encoding; concatenation of emitted latent frames."""
    cache = init_cache(stack)
    outs = []
    for pair in stream_pairs(x, mask_last):
        z, cache = stream_step(stack, pair, cache)
        outs.append(z)
    return np.concatenate(outs, axis=2)

