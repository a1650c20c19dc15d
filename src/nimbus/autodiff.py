"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the miniature networks need are implemented: dense and
convolutional layers, SiLU, RMS normalization, FiLM modulation, spectral and
pooling projections, and weighted MSE losses. Convolutions pad the last axis
circularly (periodic longitude) and the second-to-last with zeros (bounded
latitude); the temporal axis of conv3d is left un-padded unless an explicit
causal left-pad is requested.

Every convolution runs through one kernel, ``_corr``. It builds no im2col
matrix: one gather, ``_gather``, collects windows over the trailing spatial
axes only (W for conv2d, H and W for conv3d), and ``_corr`` runs one GEMM
per tap of the leading axis (H for conv2d, T for conv3d) on a row-shifted
view of those windows. A conv node keeps no windows: its backward pads the
input again and re-gathers them for the weight gradient, and the input
gradient is a stride-1 ``_corr`` with the flipped kernel. So a training
graph holds the activations and nothing conv-sized beyond them.

Parameters are float32. Other values keep the float32 or float64 dtype they
arrive in (any other dtype becomes float32), and reductions accumulate in
float64.

Inference runs inside ``no_grad()``: an operation there returns a tensor with
no parents and no backward closure, so no activation the backward pass
would need outlives the operation. The switch is per-thread, so one thread
may sample while another trains. Leaf tensors are still checked for
non-finite values.

Training runs one graph per sample on a thread pool (``thread_map``). Each
sample's ``backward()`` runs inside ``grad_sink()``, which sends the
gradients of the shared leaves (the parameters) to a per-thread dict
instead of ``.grad``; ``mean_grad_step`` sums those dicts in sample order
and takes one optimizer step, so the result does not depend on the
thread count. ``fit`` is the one training loop over those steps.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import grid, spectral
from .errors import DomainError, FormatError

MAGIC_PARAMS = b"PYPT0001"

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


@contextlib.contextmanager
def grad_sink():
    """Send this thread's leaf gradients to a fresh dict instead of ``.grad``.

    Inside the block, ``backward()`` adds the gradient of each leaf (a
    tensor with no parents: a parameter or an input) into the yielded
    ``{leaf: array}`` dict and leaves ``leaf.grad`` untouched. Threads that
    share parameters can then run backward at once: every other node
    belongs to one thread's graph. The previous sink is restored on exit.
    """
    prev = getattr(_GRAD_MODE, "sink", None)
    _GRAD_MODE.sink = sink = {}
    try:
        yield sink
    finally:
        _GRAD_MODE.sink = prev


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
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

    def backward(self):
        """Back-propagate from this scalar into the leaves of its graph.

        Leaf gradients add into ``.grad``, or into the thread's
        ``grad_sink()`` dict inside one; every other node's gradient is
        dropped once its backward closure has used it.
        """
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
        grads = {self: np.ones_like(self.data)}  # this pass's gradients, by node
        sink = getattr(_GRAD_MODE, "sink", None)
        for node in reversed(topo):
            go = grads.pop(node, None)
            if go is None:
                continue
            if not node._parents:
                if sink is None:
                    node.grad = go if node.grad is None else node.grad + go
                else:
                    sink[node] = sink[node] + go if node in sink else go
                continue
            for parent, g in zip(node._parents, node._backward(go)):
                if g is None or not parent.requires_grad:
                    continue
                if parent in grads:
                    grads[parent] += g
                else:
                    grads[parent] = g.astype(parent.data.dtype)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def param(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=True)


def conv_weight(rng: np.random.Generator, o: int, c: int, *kernel) -> Tensor:
    """He-normal (O, C, *kernel) conv weights; one size means a square 2D kernel."""
    kernel = kernel * 2 if len(kernel) == 1 else kernel
    fan_in = c * math.prod(kernel)
    return param(rng.standard_normal((o, c, *kernel)) * np.sqrt(2.0 / fan_in))


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
    # exp(-x) overflows to inf for x below about -88 in float32, where s = 0 is right.
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    out_data = x.data * s

    def backward(go):
        return (go * (s * (1.0 + x.data * (1.0 - s))),)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w + b for x of shape (N, in), w of shape (in, out)."""

    def backward(go):
        gx = go @ w.data.T if x.requires_grad else None
        return gx, x.data.T @ go, go.sum(axis=0)

    return Tensor(x.data @ w.data + b.data, _requires(x, w, b), (x, w, b), backward)


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


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out_data = np.array(np.sum(x.data, dtype=np.float64) / n, dtype=x.data.dtype)

    def backward(go):
        return (np.broadcast_to(go / n, x.data.shape).astype(x.data.dtype),)

    return Tensor(out_data, x.requires_grad, (x,), backward)


def weighted_mse(pred: Tensor, target, weights) -> Tensor:
    """sum(w * (pred - target)^2) / sum(w); target and weights carry no grad."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.data.shape:
        raise DomainError(f"target shape {target.shape} != pred shape {pred.data.shape}")
    diff = pred.data - target
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


def _pad_spatial(x, kh, kw, pad_t=0):
    """Pad x (B, C, [T,] H, W) for a same-size conv in one channels-last copy.

    H gets zeros, W wraps around, and a 5D input gets ``pad_t`` causal zero
    frames before T. The result is the channels-first view of one
    C-contiguous (B, *padded, C) buffer, so ``_corr`` reads it
    channels-last without a copy.
    """
    pt, pb = (kh - 1) // 2, kh - 1 - (kh - 1) // 2
    pl, pr = (kw - 1) // 2, kw - 1 - (kw - 1) // 2
    b, c, *t, h, w = x.shape  # t is [T] for a 5D input, [] for 4D
    buf = np.empty((b, *(n + pad_t for n in t), pt + h + pb, pl + w + pr, c), x.dtype)
    if t:
        buf[:, :pad_t] = 0
    buf[..., :pt, :, :] = 0
    buf[..., pt + h :, :, :] = 0
    inner = tuple(slice(pad_t, None) for _ in t) + (slice(pt, pt + h), slice(pl, pl + w))
    buf[(slice(None),) + inner] = np.moveaxis(x, 1, -1)
    if pl:
        buf[..., :pl, :] = buf[..., w : w + pl, :]
    if pr:
        buf[..., pl + w :, :] = buf[..., pl : pl + pr, :]
    return np.moveaxis(buf, -1, 1), (pt, pb, pl, pr)


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


# Thread-count entry points (set, get) of the OpenBLAS copies numpy's and
# scipy's wheels bundle: 64- and 32-bit integer interfaces.
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _loaded_openblas():
    """(path, get, set) thread-count functions of each OpenBLAS loaded here.

    Libraries are found by file name in /proc/self/maps, once per process:
    an OpenBLAS loaded after the first call is not managed, which changes
    its thread count, never a result. Without that file (not Linux),
    nothing is returned; a BLAS exporting none of the names above (MKL,
    Accelerate, another OpenBLAS build) is skipped.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
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
    return tuple(found)


@contextlib.contextmanager
def share_blas_threads(n: int):
    """Divide each loaded OpenBLAS's threads among n threads that run GEMMs.

    Sets every OpenBLAS to max(1, previous // n) threads and restores the
    previous counts on exit, also when the body raises. The count is
    process-wide (even OpenBLAS's "local" setter changes it for every
    thread), so enter this once around a pool of n threads, never inside
    them: ``thread_map`` does, for the rollout's ensemble members, the
    trainers' per-sample shards and the latent precompute's samples. With no
    OpenBLAS loaded it changes nothing.
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


def thread_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]`` on min(workers, len(items)) threads.

    Results come back in item order, and the first item's exception (in
    item order) is raised. With more than one thread, the BLAS threads are
    divided among them (``share_blas_threads``); a lone thread runs in the
    caller and keeps every BLAS thread, the faster serial path.
    """
    items = list(items)
    n = min(workers, len(items))
    if n <= 1:
        return [fn(item) for item in items]
    with share_blas_threads(n), ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def _gather(x, w, strides):
    """The windows ``_corr`` multiplies: (B, N, R, K) in ``np.result_type(x, w)``.

    Windows are gathered over the trailing spatial axes only, from a
    channels-last view of x: N leading-axis rows, R output points per row,
    and each window ordered (*kernel[1:], C), K = C * prod(kernel[1:]) wide.
    Only the N = s * (n_out - 1) + k rows the output reads are gathered,
    grouped by stride phase: rows 0, s, 2s, ..., then 1, 1 + s, ..., so that
    the rows of every tap are contiguous (``_tap``).
    Returns (windows, out_rest), the output's trailing spatial shape.
    """
    b, k, s = x.shape[0], w.shape[2], strides[0]
    rows = s * ((x.shape[2] - k) // s) + k
    xl = np.moveaxis(x[:, :, :rows], 1, -1)
    win = sliding_window_view(xl, w.shape[3:], axis=tuple(range(2, xl.ndim - 1)))
    win = win[(slice(None), slice(None)) + tuple(slice(None, None, st) for st in strides[1:])]
    out_rest = win.shape[2 : xl.ndim - 1]
    # (B, N, *out_rest, C, *kernel[1:]) -> (B, N, *out_rest, *kernel[1:], C)
    win = np.moveaxis(win, xl.ndim - 1, -1)
    # One copy by slice assignment: np.concatenate copies such views 5x slower.
    out = np.empty(win.shape, np.result_type(x, w))
    at = 0
    for p in range(s):
        phase = win[:, p::s]
        out[:, at : at + phase.shape[1]] = phase
        at += phase.shape[1]
    return out.reshape(b, rows, int(np.prod(out_rest)), -1), out_rest


def _corr(x, w, strides):
    """Valid cross-correlation: one GEMM per tap of the leading spatial axis.

    Callers pass channels-first: x (B, C, *spatial), w (O, C, *kernel);
    strides aligned with spatial axes. The leading spatial axis is H for
    conv2d and T for conv3d; the trailing ones are W, or H and W.

    The windows come from ``_gather``. Tap d of the leading kernel axis
    reads rows d, d + s, ... of x; the windows hold them as one contiguous
    block per batch element, so its GEMM copies nothing. The k GEMMs sum
    into one output buffer.

    Returns (out (B, O, *out_spatial), windows). The windows are about 1/k
    of the full im2col matrix, which would hold every window of every tap;
    a conv drops them here and its backward gathers them again.
    """
    windows, out_rest = _gather(x, w, strides)
    b, k, s = x.shape[0], w.shape[2], strides[0]
    n_out = (x.shape[2] - k) // s + 1
    wmat = np.moveaxis(w, 1, -1).reshape(w.shape[0], k, windows.shape[-1])
    out = _tap(windows, 0, s, n_out) @ wmat[:, 0].T
    for d in range(1, k):
        out += _tap(windows, d, s, n_out) @ wmat[:, d].T
    out = out.reshape((b, n_out) + out_rest + (w.shape[0],))
    return np.ascontiguousarray(np.moveaxis(out, -1, 1)), windows


def _tap(windows, d, s, n_out):
    """GEMM rows of leading tap d: (B, n_out * R, K), a view of ``_gather``'s windows.

    Tap d reads rows d, d + s, ..., which stride phase d % s holds from its
    (d // s)-th row on.
    """
    b, rows, r, width = windows.shape
    start = sum(len(range(p, rows, s)) for p in range(d % s)) + d // s
    return windows[:, start : start + n_out].reshape(b, n_out * r, width)


def _corr_wgrad(go, windows, w_shape, s):
    """Weight gradient of ``_corr`` from ``_gather``'s windows, one GEMM per leading tap.

    go is (B, O, *out_spatial) and s the leading stride. Each batch
    element's GEMM is summed over the batch.
    """
    b, o, n_out = go.shape[:3]
    k = w_shape[2]
    g = go.reshape(b, o, -1)
    gw = np.stack([(g @ _tap(windows, d, s, n_out)).sum(axis=0) for d in range(k)], axis=1)
    # (O, k, K) -> (O, *kernel, C) -> (O, C, *kernel)
    return np.moveaxis(gw.reshape((o,) + tuple(w_shape[2:]) + (w_shape[1],)), -1, 1)


def _corr_input_grad(go, w, strides, padded_spatial):
    """Gradient of a valid strided correlation w.r.t. its (padded) input.

    The gradient, spread out by the strides and zero-padded by kernel - 1 on
    each side, is written once into a channels-last zero buffer and
    correlated with the kernel flipped in space and transposed in channels.
    """
    nsp = w.ndim - 2
    ksz = w.shape[2:]
    full = tuple(p + k - 1 for p, k in zip(padded_spatial, ksz))
    gd = np.zeros((go.shape[0],) + full + (go.shape[1],), go.dtype)
    spread = tuple(
        slice(k - 1, k + (n - 1) * s, s) for k, n, s in zip(ksz, go.shape[2:], strides)
    )
    gd[(slice(None),) + spread] = np.moveaxis(go, 1, -1)
    w_rot = np.flip(w, axis=tuple(range(2, 2 + nsp))).swapaxes(0, 1)
    gx, _ = _corr(np.moveaxis(gd, -1, 1), w_rot, (1,) * nsp)
    return gx


def _conv(x: Tensor, w: Tensor, b: Tensor, strides, pad_t=0) -> Tensor:
    """The body of conv2d and conv3d: pad, ``_corr``, add the bias; its backward.

    The node keeps no array of its own, only its parents: backward pads
    ``x.data`` again and re-gathers the windows for the weight gradient,
    which costs one gather and saves holding the windows from forward to
    backward.
    """
    *_, h, wd = x.data.shape
    c, *_, kh, kw = w.data.shape[1:]
    if c != x.data.shape[1]:
        raise DomainError(f"kernel expects {c} input channels, got {x.data.shape[1]}")
    xp, pads = _pad_spatial(x.data, kh, kw, pad_t)
    padded_spatial = xp.shape[2:]  # the closure must not keep xp alive
    out = _corr(xp, w.data, strides)[0]
    out = out + b.data.reshape((-1,) + (1,) * (out.ndim - 2))

    def backward(go):
        windows, _ = _gather(_pad_spatial(x.data, kh, kw, pad_t)[0], w.data, strides)
        gw = _corr_wgrad(go, windows, w.data.shape, strides[0])
        del windows
        gx = None
        if x.requires_grad:
            gxp = _corr_input_grad(go, w.data, strides, padded_spatial)
            gx = _unpad_spatial(gxp, h, wd, pads)[:, :, pad_t:]
        return gx, gw, go.sum(axis=(0, *range(2, go.ndim)))

    return Tensor(out, _requires(x, w, b), (x, w, b), backward)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """Cross-correlation with same-size spatial padding (zero-H, circular-W)."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DomainError("conv2d expects x (B,C,H,W) and w (O,C,kh,kw)")
    return _conv(x, w, b, (stride, stride))


def conv3d(
    x: Tensor, w: Tensor, b: Tensor, stride_t: int = 1, stride_hw: int = 1, pad_t: int = 0
) -> Tensor:
    """3D cross-correlation over (T, H, W).

    Spatial axes get same-size zero-H/circular-W padding; the temporal axis is
    valid except for an optional causal left zero-pad of ``pad_t`` frames.
    """
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise DomainError("conv3d expects x (B,C,T,H,W) and w (O,C,kt,kh,kw)")
    t, kt = x.data.shape[2], w.data.shape[2]
    if t + pad_t < kt:
        raise DomainError(f"temporal length {t} too short for kernel {kt}")
    return _conv(x, w, b, (stride_t, stride_hw, stride_hw), pad_t)


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


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict, betas (0.9, 0.95), eps 1e-8.

    The update stays in the ``step`` method: the benchmark's tracer
    (``perfbench/layers.py``) times it by patching ``AdamW.step``. A
    gradient whose float32 square overflows would leave the second moment
    inf and that parameter's updates 0 from then on, so ``step`` raises a
    DomainError naming the parameter instead.
    """

    BETA1, BETA2, EPS = 0.9, 0.95, 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        b1, b2, lr = self.BETA1, self.BETA2, self.lr
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            with np.errstate(over="ignore", invalid="ignore"):
                v = self.v[k] = b2 * self.v[k] + (1.0 - b2) * np.square(g)
            if not np.isfinite(v).all():
                raise DomainError(f"AdamW second moment of parameter {k!r} is non-finite")
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            p.data = p.data - lr * (m_hat / (np.sqrt(v_hat) + self.EPS)) - lr * self.weight_decay * p.data


def mean_grad_step(opt: AdamW, loss_of: Callable[[int], Tensor], n: int, workers: int) -> float:
    """One ``opt`` step on the mean of the losses ``loss_of(0) ... loss_of(n - 1)``.

    Each loss is built and back-propagated on a ``thread_map`` thread inside
    ``grad_sink()``. The per-sample gradients are then summed in sample
    order on the calling thread and divided by n. For a loss that is a mean
    over samples with nothing coupling them, that is the full-batch
    gradient, and it is the same at any ``workers``. Returns the mean loss.

    A diverging step overflows in its forward pass. Each sample therefore
    runs with numpy's overflow and invalid-value warnings off, set on its
    own thread because pool threads do not inherit the caller's error
    state, and ``backward()`` reports the non-finite loss instead.
    """

    def shard(b):
        with np.errstate(over="ignore", invalid="ignore"), grad_sink() as sink:
            loss = loss_of(b)
            loss.backward()
        return float(loss.data), sink

    results = thread_map(shard, range(n), workers)
    for p in opt.params.values():
        total = None
        for _, sink in results:
            if p in sink:
                total = sink[p] if total is None else total + sink[p]
        p.grad = None if total is None else total / n
    opt.step()
    return sum(loss for loss, _ in results) / n


def fit(params: dict[str, Tensor], cfg: dict, draw: Callable[[], Callable], workers: int) -> list:
    """Train ``params`` by AdamW at ``cfg["lr"]`` for ``cfg["iters"]`` steps; the loss curve.

    Each step calls ``draw()`` once, on this thread and in step order, for its
    per-sample loss ``loss_of(b)``, then takes one ``mean_grad_step`` over
    ``cfg["batch"]`` samples: the result does not depend on ``workers``. A
    DomainError, such as a non-finite loss, is re-raised naming the step.
    """
    opt = AdamW(params, lr=cfg["lr"])
    losses = []
    for i in range(cfg["iters"]):
        try:
            losses.append(mean_grad_step(opt, draw(), cfg["batch"], workers))
        except DomainError as exc:
            raise DomainError(f"training step {i + 1} of {cfg['iters']}: {exc}") from exc
    return losses


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
    with grid.write_file(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_params(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        cur = grid.Cursor(fh)
        magic = cur.take(8, "magic")
        if magic != MAGIC_PARAMS:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC_PARAMS!r}", 0)
        while cur.pos < cur.size:
            (nlen,) = struct.unpack("<H", cur.take(2, "tensor name length"))
            offset = cur.pos
            try:
                name = cur.take(nlen, "tensor name").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("tensor name is not valid UTF-8", offset) from None
            (rank,) = struct.unpack("<B", cur.take(1, "tensor rank"))
            dims = struct.unpack(f"<{rank}I", cur.take(4 * rank, "tensor dims"))
            if name in out:
                raise FormatError(f"duplicate tensor {name}", offset)
            # math.prod: a numpy product of corrupt dims can wrap around to a small count.
            payload = cur.take(4 * math.prod(dims), f"tensor {name} payload")
            out[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return out


def assign_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    missing = set(params) - set(arrays)
    if missing:
        raise FormatError(f"checkpoint missing tensors: {sorted(missing)}")
    extra = set(arrays) - set(params)
    if extra:
        raise FormatError(f"checkpoint has tensors the model lacks: {sorted(extra)}")
    for k, p in params.items():
        if arrays[k].shape != p.data.shape:
            raise FormatError(f"tensor {k}: shape {arrays[k].shape} != expected {p.data.shape}")
        p.data = arrays[k].astype(p.data.dtype)
