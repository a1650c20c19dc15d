"""Causal 3D convolution stacks: the 3D-MAE encoder.

A window of k+1 frames is zero-padded with three prepended frames, so the
padded sequence holds frames 0 ... k+3. Temporal mixing uses kernel extent
2: one initial stride-1 layer, then exactly one layer with temporal stride
2; deeper layers are frame-local (temporal extent 1). The stack therefore
emits 1 + k/2 latent frames, and latent frame j reads padded frames
2j ... 2j+2 only, so no frame reads a later one. Latent frame 0 reads only
the three zero frames, and the window's last frame (padded frame k+3) is
never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DomainError


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
        return self.params[f"c3d{i}.w"], self.params[f"c3d{i}.b"]


def build_stack(
    rng: np.random.Generator,
    in_channels: int,
    channels=(24, 32),
    latent_channels: int = 16,
    spatial_strides=(2, 2),
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
        params[f"c3d{i}.b"] = ad.param(np.zeros(sp.out_channels))
        cin = sp.out_channels
    return CausalStack(params=params, specs=specs, in_channels=in_channels)


def encode_full(x: ad.Tensor, stack: CausalStack, mask_last: bool = True) -> ad.Tensor:
    """Causal encoding of a k+1-frame window; output temporal length is 1 + k/2."""
    k = check_window_length(x.data.shape[2])
    h = pad_and_mask(x, mask_last)
    for i, sp in enumerate(stack.specs):
        w, b = stack.layer(i)
        h = ad.conv3d(h, w, b, stride_t=sp.stride_t, stride_hw=sp.stride_hw)
        if sp.activation:
            h = ad.silu(h)
    if h.data.shape[2] != 1 + k // 2:
        raise DomainError(f"stack produced {h.data.shape[2]} frames, expected {1 + k // 2}")
    return h
