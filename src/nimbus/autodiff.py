"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the miniature networks need are implemented: dense and
convolutional layers, SiLU, RMS normalization, FiLM modulation, spectral and
pooling projections, and weighted MSE losses. Convolutions pad the last axis
circularly (periodic longitude) and the second-to-last with zeros (bounded
latitude); the temporal axis of conv3d is left un-padded unless an explicit
causal left-pad is requested.

Values default to float32; reductions accumulate in float64. Tests flip the
default to float64 (``use_dtype``) for finite-difference gradient checks.

Inference runs inside ``no_grad()``: an operation there returns a tensor with
no parents and no backward closure, so nothing the backward pass would need
(im2col matrices, activations) outlives the operation. The switch is
per-thread, so one thread may sample while another trains. Leaf tensors are
still checked for non-finite values.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import struct
import threading
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral
from .errors import DomainError, FormatError

MAGIC_PARAMS = b"PYPT0001"

_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    if dtype not in (np.float32, np.float64):
        raise DomainError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE = dtype


@contextlib.contextmanager
def use_dtype(dtype):
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


_GRAD_MODE = threading.local()


def grad_enabled() -> bool:
    """Whether operations on this thread record the graph for backward()."""
    return getattr(_GRAD_MODE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Run operations on this thread without recording a graph.

    Usable as a decorator; the previous mode is restored on exit.
    """
    prev = grad_enabled()
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        if not _parents:
            if not np.all(np.isfinite(arr)):
                raise DomainError("non-finite values may not enter the graph")
        elif not grad_enabled():
            requires_grad, _parents, _backward = False, (), None
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise DomainError("backward() requires a scalar loss")
        if not np.isfinite(self.data).all():
            raise DomainError("loss is non-finite")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def param(data) -> Tensor:
    arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad, shape):
    """Sum gradient over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _requires(*tensors):
    return any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# Elementwise and affine operations
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(go):
        return _unbroadcast(go, a.data.shape), _unbroadcast(go, b.data.shape)

    return Tensor(out_data, _requires(a, b), (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data

    def backward(go):
        return _unbroadcast(go, a.data.shape), _unbroadcast(-go, b.data.shape)

    return Tensor(out_data, _requires(a, b), (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(go):
        return (
            _unbroadcast(go * b.data, a.data.shape),
            _unbroadcast(go * a.data, b.data.shape),
        )

    return Tensor(out_data, _requires(a, b), (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(go):
        return (go * s,)

    return Tensor(x.data * s, x.requires_grad, (x,), backward)


def add_scalar(x: Tensor, s: float) -> Tensor:
    def backward(go):
        return (go,)

    return Tensor(x.data + float(s), x.requires_grad, (x,), backward)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def backward(go):
        return (go * out_data,)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def square(x: Tensor) -> Tensor:
    def backward(go):
        return (go * (2.0 * x.data),)

    return Tensor(x.data * x.data, x.requires_grad, (x,), backward)


def silu(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    out_data = x.data * s

    def backward(go):
        return (go * (s * (1.0 + x.data * (1.0 - s))),)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w (+ b) for x of shape (N, in), w of shape (in, out)."""
    out_data = x.data @ w.data
    if b is not None:
        out_data = out_data + b.data

    parents = (x, w) if b is None else (x, w, b)

    def backward(go):
        gx = go @ w.data.T
        gw = x.data.T @ go
        if b is None:
            return gx, gw
        return gx, gw, go.sum(axis=0)

    return Tensor(out_data, _requires(*parents), parents, backward)


def rmsnorm(x: Tensor, gain: Tensor, axis: int = 1, eps: float = 1e-6) -> Tensor:
    """Scale ``x`` to unit root-mean-square along ``axis``, then apply gain.

    ``gain`` has one entry per channel and is broadcast over the other axes.
    """
    n = x.data.shape[axis]
    gshape = [1] * x.data.ndim
    gshape[axis] = n
    g = gain.data.reshape(gshape)
    m = np.mean(np.square(x.data), axis=axis, keepdims=True, dtype=np.float64) + eps
    inv_r = (1.0 / np.sqrt(m)).astype(x.data.dtype)
    out_data = x.data * inv_r * g

    def backward(go):
        gog = go * g
        dot = np.sum(gog * x.data, axis=axis, keepdims=True, dtype=np.float64).astype(
            x.data.dtype
        )
        gx = inv_r * gog - (x.data * (inv_r**3) / n) * dot
        ggain = np.sum(
            go * x.data * inv_r,
            axis=tuple(i for i in range(x.data.ndim) if i != axis),
            dtype=np.float64,
        ).astype(gain.data.dtype)
        return gx, ggain.reshape(gain.data.shape)

    return Tensor(out_data, _requires(x, gain), (x, gain), backward)


def film(x: Tensor, scale_t, shift_t) -> Tensor:
    """Feature-wise affine modulation: x * scale + shift (broadcasting)."""
    return add(mul(x, scale_t), shift_t)


# ---------------------------------------------------------------------------
# Shape operations
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = x.data.shape

    def backward(go):
        return (go.reshape(old),)

    return Tensor(x.data.reshape(shape), x.requires_grad, (x,), backward)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def backward(go):
        return tuple(np.split(go, splits, axis=axis))

    return Tensor(out_data, _requires(*tensors), tuple(tensors), backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(go):
        return (np.ascontiguousarray(go.transpose(inv)),)

    return Tensor(
        np.ascontiguousarray(x.data.transpose(axes)), x.requires_grad, (x,), backward
    )


def repeat_axis(x: Tensor, reps: int, axis: int) -> Tensor:
    """Repeat each slice ``reps`` times along ``axis`` (nearest upsampling)."""
    out_data = np.repeat(x.data, reps, axis=axis)

    def backward(go):
        shape = list(go.shape)
        shape[axis] = shape[axis] // reps
        shape.insert(axis + 1, reps)
        return (go.reshape(shape).sum(axis=axis + 1),)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(go):
        g = np.zeros_like(x.data)
        g[idx] = go
        return (g,)

    return Tensor(x.data[idx], x.requires_grad, (x,), backward)


# ---------------------------------------------------------------------------
# Reductions and losses (float64 accumulation)
# ---------------------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    out_data = np.array(np.sum(x.data, dtype=np.float64), dtype=x.data.dtype)

    def backward(go):
        return (np.broadcast_to(go, x.data.shape).astype(x.data.dtype),)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out_data = np.array(np.sum(x.data, dtype=np.float64) / n, dtype=x.data.dtype)

    def backward(go):
        return (np.broadcast_to(go / n, x.data.shape).astype(x.data.dtype),)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def weighted_mse(pred: Tensor, target, weights=None) -> Tensor:
    """sum(w * (pred - target)^2) / sum(w); target and weights carry no grad."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.data.shape:
        raise DomainError(f"target shape {target.shape} != pred shape {pred.data.shape}")
    diff = pred.data - target
    if weights is None:
        wsum = float(diff.size)
        loss = np.sum(np.square(diff), dtype=np.float64) / wsum

        def backward(go):
            return (go * (2.0 / wsum) * diff, None)

        return Tensor(
            np.array(loss, dtype=pred.data.dtype),
            pred.requires_grad,
            (pred, constant(target)),
            backward,
        )
    w = np.asarray(weights, dtype=np.float64)
    wb = np.broadcast_to(w, pred.data.shape)
    wsum = float(np.sum(wb, dtype=np.float64))
    if wsum <= 0:
        raise DomainError("weights must have positive total mass")
    loss = np.sum(wb * np.square(diff.astype(np.float64))) / wsum
    wd = (wb * (2.0 / wsum)).astype(pred.data.dtype) * diff

    def backward(go):
        return (go * wd, None)

    return Tensor(
        np.array(loss, dtype=pred.data.dtype),
        pred.requires_grad,
        (pred, constant(target)),
        backward,
    )


# ---------------------------------------------------------------------------
# Spatial padding shared by conv2d/conv3d: zero on H (latitude), circular on W
# (longitude). Returns the padded array and the offsets needed by backward.
# ---------------------------------------------------------------------------


def _pad_spatial(x, kh, kw):
    pt, pb = (kh - 1) // 2, kh - 1 - (kh - 1) // 2
    pl, pr = (kw - 1) // 2, kw - 1 - (kw - 1) // 2
    if pt or pb:
        padding = [(0, 0)] * (x.ndim - 2) + [(pt, pb), (0, 0)]
        x = np.pad(x, padding)
    if pl or pr:
        x = np.concatenate([x[..., -pl:], x, x[..., :pr]], axis=-1) if pl else np.concatenate([x, x[..., :pr]], axis=-1)
    return x, (pt, pb, pl, pr)


def _unpad_spatial(gp, h, w, pads):
    """Fold a padded-space gradient back onto the unpadded grid."""
    pt, _, pl, pr = pads
    g = gp[..., pt : pt + h, :]
    out = g[..., pl : pl + w].copy()
    if pl:
        out[..., w - pl :] += g[..., :pl]
    if pr:
        out[..., :pr] += g[..., pl + w :]
    return out


def _dilate(go, strides):
    """Insert stride-1 zeros between gradient entries along trailing axes."""
    if all(s == 1 for s in strides):
        return go
    lead = go.shape[: go.ndim - len(strides)]
    tail = go.shape[go.ndim - len(strides) :]
    new_tail = tuple((n - 1) * s + 1 for n, s in zip(tail, strides))
    out = np.zeros(lead + new_tail, dtype=go.dtype)
    idx = (Ellipsis,) + tuple(slice(None, None, s) for s in strides)
    out[idx] = go
    return out


# Thread-count entry points (set, get) of the OpenBLAS copies numpy's and
# scipy's wheels bundle: 64- and 32-bit integer interfaces.
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _loaded_openblas():
    """(path, get, set) thread-count functions of each OpenBLAS loaded here.

    Libraries are found by file name in /proc/self/maps. Without that file
    (not Linux), nothing is returned; a BLAS exporting none of the names
    above (MKL, Accelerate, another OpenBLAS build) is skipped.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((path, getter, setter))
                break
    return found


@contextlib.contextmanager
def share_blas_threads(n: int):
    """Divide each loaded OpenBLAS's threads among n threads that run GEMMs.

    Sets every OpenBLAS to max(1, previous // n) threads and restores the
    previous counts on exit, also when the body raises. The count is
    process-wide (even OpenBLAS's "local" setter changes it for every
    thread), so enter this once around a pool of n threads, never inside
    them. With no OpenBLAS loaded it changes nothing.
    """
    libs = _loaded_openblas()
    prev = [get() for _, get, _ in libs]
    for (_, _, set_), count in zip(libs, prev):
        set_(max(1, count // n))
    try:
        yield
    finally:
        for (_, _, set_), count in zip(libs, prev):
            set_(count)


def _corr(x, w, strides):
    """Valid cross-correlation via im2col GEMM.

    x: (B, C, *spatial), w: (O, C, *kernel); strides aligned with spatial axes.
    Returns (out (B, O, *out_spatial), cols) with cols kept for the weight
    gradient.
    """
    nsp = w.ndim - 2
    ksz = w.shape[2:]
    win = sliding_window_view(x, ksz, axis=tuple(range(2, 2 + nsp)))
    slicer = (slice(None), slice(None)) + tuple(slice(None, None, s) for s in strides)
    win = win[slicer]
    out_spatial = win.shape[2 : 2 + nsp]
    b, c = x.shape[0], x.shape[1]
    # (B, *out_spatial, C, *kernel) -> GEMM rows
    order = (0,) + tuple(range(2, 2 + nsp)) + (1,) + tuple(range(2 + nsp, 2 + 2 * nsp))
    cols = np.ascontiguousarray(win.transpose(order)).reshape(
        b * int(np.prod(out_spatial)), c * int(np.prod(ksz))
    )
    wmat = w.reshape(w.shape[0], -1)
    out = cols @ wmat.T
    out = out.reshape((b,) + tuple(out_spatial) + (w.shape[0],))
    out = np.moveaxis(out, -1, 1)
    return np.ascontiguousarray(out), cols


def _corr_input_grad(go, w, strides, padded_spatial):
    """Gradient of a valid strided correlation w.r.t. its (padded) input."""
    nsp = w.ndim - 2
    ksz = w.shape[2:]
    gd = _dilate(go, strides)
    pad = [(0, 0), (0, 0)]
    for ax in range(nsp):
        left = ksz[ax] - 1
        right = ksz[ax] - 1 + (padded_spatial[ax] - (gd.shape[2 + ax] + ksz[ax] - 1))
        pad.append((left, right))
    gd = np.pad(gd, pad)
    # Correlate with the kernel flipped in space and transposed in channels.
    w_rot = np.flip(w, axis=tuple(range(2, 2 + nsp))).swapaxes(0, 1)
    gx, _ = _corr(gd, np.ascontiguousarray(w_rot), (1,) * nsp)
    return gx


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """Cross-correlation with same-size spatial padding (zero-H, circular-W)."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DomainError("conv2d expects x (B,C,H,W) and w (O,C,kh,kw)")
    _, _, h, wd = x.data.shape
    o, c, kh, kw = w.data.shape
    if c != x.data.shape[1]:
        raise DomainError(f"kernel expects {c} input channels, got {x.data.shape[1]}")
    xp, pads = _pad_spatial(x.data, kh, kw)
    out, cols = _corr(xp, w.data, (stride, stride))
    if b is not None:
        out = out + b.data[None, :, None, None]
    parents = (x, w) if b is None else (x, w, b)
    padded_spatial = xp.shape[2:]

    def backward(go):
        go_mat = np.moveaxis(go, 1, -1).reshape(-1, o)
        gw = (go_mat.T @ cols).reshape(w.data.shape)
        gxp = _corr_input_grad(go, w.data, (stride, stride), padded_spatial)
        gx = _unpad_spatial(gxp, h, wd, pads)
        if b is None:
            return gx, gw
        return gx, gw, go.sum(axis=(0, 2, 3))

    return Tensor(out, _requires(*parents), parents, backward)


def conv3d(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    stride_t: int = 1,
    stride_hw: int = 1,
    pad_t: int = 0,
) -> Tensor:
    """3D cross-correlation over (T, H, W).

    Spatial axes get same-size zero-H/circular-W padding; the temporal axis is
    valid except for an optional causal left zero-pad of ``pad_t`` frames.
    """
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise DomainError("conv3d expects x (B,C,T,H,W) and w (O,C,kt,kh,kw)")
    _, _, t, h, wd = x.data.shape
    o, c, kt, kh, kw = w.data.shape
    if c != x.data.shape[1]:
        raise DomainError(f"kernel expects {c} input channels, got {x.data.shape[1]}")
    if t + pad_t < kt:
        raise DomainError(f"temporal length {t} too short for kernel {kt}")
    xd = x.data
    if pad_t:
        xd = np.pad(xd, ((0, 0), (0, 0), (pad_t, 0), (0, 0), (0, 0)))
    xp, pads = _pad_spatial(xd, kh, kw)
    out, cols = _corr(xp, w.data, (stride_t, stride_hw, stride_hw))
    if b is not None:
        out = out + b.data[None, :, None, None, None]
    parents = (x, w) if b is None else (x, w, b)
    padded_spatial = xp.shape[2:]

    def backward(go):
        go_mat = np.moveaxis(go, 1, -1).reshape(-1, o)
        gw = (go_mat.T @ cols).reshape(w.data.shape)
        gxp = _corr_input_grad(go, w.data, (stride_t, stride_hw, stride_hw), padded_spatial)
        gx = _unpad_spatial(gxp, h, wd, pads)
        if pad_t:
            gx = gx[:, :, pad_t:]
        if b is None:
            return gx, gw
        return gx, gw, go.sum(axis=(0, 2, 3, 4))

    return Tensor(out, _requires(*parents), parents, backward)


# ---------------------------------------------------------------------------
# Resampling and spectral projections
# ---------------------------------------------------------------------------


def upsample2d(x: Tensor, factor: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of the trailing two axes."""
    out_data = np.repeat(np.repeat(x.data, factor, axis=-2), factor, axis=-1)

    def backward(go):
        s = go.shape
        g = go.reshape(s[:-2] + (s[-2] // factor, factor, s[-1] // factor, factor))
        return (g.sum(axis=(-3, -1)),)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def avgpool2d(x: Tensor, factor: int) -> Tensor:
    """Box-average pooling of the trailing two axes."""
    h, w = x.data.shape[-2], x.data.shape[-1]
    if h % factor or w % factor:
        raise DomainError(f"factor {factor} does not divide spatial dims ({h},{w})")
    s = x.data.shape
    g = x.data.reshape(s[:-2] + (h // factor, factor, w // factor, factor))
    out_data = g.mean(axis=(-3, -1))
    inv = 1.0 / (factor * factor)

    def backward(go):
        ge = np.repeat(np.repeat(go, factor, axis=-2), factor, axis=-1)
        return ((ge * inv).astype(x.data.dtype),)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def lowpass2d(x: Tensor, r_cut: float) -> Tensor:
    """Per-channel spectral low-pass of the trailing two axes.

    The projection is linear and self-adjoint, so the backward pass applies
    the same low-pass to the incoming gradient.
    """

    def backward(go):
        return (spectral.lowpass(go, r_cut),)

    return Tensor(spectral.lowpass(x.data, r_cut), x.requires_grad, (x,), backward)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def adamw_update(p, g, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """One decoupled-weight-decay Adam update; returns (p', m', v')."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * np.square(g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + eps)) - lr * weight_decay * p
    return p, m, v


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict."""

    def __init__(self, params, lr=5e-4, betas=(0.9, 0.95), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        for k, p in self.params.items():
            if p.grad is None:
                continue
            p.data, self.m[k], self.v[k] = adamw_update(
                p.data,
                p.grad,
                self.m[k],
                self.v[k],
                self.t,
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                self.weight_decay,
            )


# ---------------------------------------------------------------------------
# Finite differences (test oracle)
# ---------------------------------------------------------------------------


def numeric_gradient(f: Callable[[], Tensor], x: Tensor, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. every element of x."""
    g = np.zeros_like(x.data, dtype=np.float64)
    flat = x.data.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f().data)
        flat[i] = orig - eps
        lo = float(f().data)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


# ---------------------------------------------------------------------------
# Parameter checkpoints: PYPT0001, named f32 tensors.
# ---------------------------------------------------------------------------


def save_params(params, path) -> None:
    parts = [MAGIC_PARAMS]
    for name, p in params.items():
        arr = p.data if isinstance(p, Tensor) else np.asarray(p)
        enc = name.encode("utf-8")
        parts.append(struct.pack("<H", len(enc)))
        parts.append(enc)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_params(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:8] != MAGIC_PARAMS:
        raise FormatError(f"bad magic {buf[:8]!r}, expected {MAGIC_PARAMS!r}", 0)
    pos = 8
    out: dict[str, np.ndarray] = {}

    def take(n, what):
        nonlocal pos
        if pos + n > len(buf):
            raise FormatError(f"truncated {what}", pos)
        chunk = buf[pos : pos + n]
        pos += n
        return chunk

    while pos < len(buf):
        (nlen,) = struct.unpack("<H", take(2, "tensor name length"))
        offset = pos
        try:
            name = take(nlen, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not valid UTF-8", offset) from None
        (rank,) = struct.unpack("<B", take(1, "tensor rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "tensor dims"))
        count = int(np.prod(dims)) if rank else 1
        data = np.frombuffer(take(4 * count, f"tensor {name} payload"), dtype="<f4")
        out[name] = data.reshape(dims).copy()
    return out


def assign_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    missing = set(params) - set(arrays)
    if missing:
        raise FormatError(f"checkpoint missing tensors: {sorted(missing)}", 0)
    extra = set(arrays) - set(params)
    if extra:
        raise FormatError(f"checkpoint has tensors the model lacks: {sorted(extra)}", 0)
    for k, p in params.items():
        if arrays[k].shape != p.data.shape:
            raise FormatError(
                f"tensor {k}: shape {arrays[k].shape} != expected {p.data.shape}", 0
            )
        p.data = arrays[k].astype(p.data.dtype)
