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
input again and re-gathers them for the weight gradient. The input gradient
is one stride-1 ``_corr`` per stride phase with that phase's flipped
sub-kernel (``_corr_input_grad``), so no zero that a stride spreads between
output points is multiplied, and it is formed only where the input is, not
over its zero padding. A conv over a nearest 2x upsample,
``conv2d(..., upsample=2)``, runs as four 2x2 ``_corr`` at the input's own
resolution and never forms the upsampled image. An output frame of a
conv3d whose window lies wholly in its causal zero frames is its bias, so
it is written as that, and ``_corr`` gets only the rows the other frames
read (``_conv``). So a training graph holds the activations and nothing
conv-sized beyond them; SiLU keeps no sigmoid either.

``Tensor.backward`` releases the graph as it walks it: each node drops its
parents and its backward closure once the closure has run, so the
activations a node held are freed as soon as its last consumer has run, not
when the loss is dropped. Each graph takes one backward(); a second one
through a released node is a DomainError.

Parameters are float32. Other values keep the float32 or float64 dtype they
arrive in (any other dtype becomes float32), and reductions accumulate in
float64.

Inference runs inside ``no_grad()``: an operation there returns a tensor with
no parents and no backward closure, so no activation the backward pass
would need outlives the operation. The switch is per-thread, so one thread
may sample while another trains. Leaf tensors are still checked for
non-finite values.

Training runs one graph per sample in worker processes (``Workers``): this
one and children forked once per ``fit``. Each sample's ``backward()`` runs
inside ``grad_sink()``, which sends the gradients of the parameters to a
dict instead of ``.grad``; the sample's loss and gradients go into shared
memory, and ``mean_grad_step`` has every process sum them in sample order
and take the same optimizer step, so the result does not depend on the
process count. ``fit`` is the one training loop over those steps.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import mmap
import os
import pickle
import signal
import struct
import threading
from dataclasses import dataclass
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


def _released(go=None):
    """The backward closure of a node whose graph ``Tensor.backward`` has released: it raises."""
    raise DomainError(
        "backward() reached a graph that an earlier backward() released; build it again"
    )


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
        """Back-propagate from this scalar into the leaves of its graph, releasing the graph.

        Leaf gradients add into ``.grad``, or into the thread's
        ``grad_sink()`` dict inside one; every other node's gradient is
        dropped once its backward closure has used it. Each node that is
        not a leaf gives up its parents and its closure as soon as the
        closure has run, so the activations it held are freed as the walk
        goes, not when the whole graph is dropped. A graph therefore takes
        one backward(): a later one that reaches a released node raises a
        DomainError before any gradient is computed.
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
            if node._backward is _released:
                _released()
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        grads = {self: np.ones_like(self.data)}  # this pass's gradients, by node
        sink = getattr(_GRAD_MODE, "sink", None)
        while topo:
            node = topo.pop()  # not held here once walked
            go = grads.pop(node, None)
            if not node._parents:
                if go is None:
                    continue
                if sink is None:
                    node.grad = go if node.grad is None else node.grad + go
                else:
                    sink[node] = sink[node] + go if node in sink else go
                continue
            if go is not None:
                for parent, g in zip(node._parents, node._backward(go)):
                    if g is None or not parent.requires_grad:
                        continue
                    if parent in grads:
                        grads[parent] += g
                    else:
                        grads[parent] = g.astype(parent.data.dtype)
            node._parents, node._backward = (), _released

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


def _sigmoid(a):
    # exp(-a) overflows to inf for a below about -88 in float32, where 0 is right.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x); the node keeps only its parent.

    Backward computes the sigmoid again from ``x.data``, by the same
    expression, rather than holding it from forward to backward: one
    exp per element buys an activation-sized array less in the graph.
    """

    def backward(go):
        s = _sigmoid(x.data)
        return (go * (s * (1.0 + x.data * (1.0 - s))),)

    return Tensor(x.data * _sigmoid(x.data), x.requires_grad, (x,), backward)


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
    _copy_channels_last(buf[(slice(None),) + inner], x)
    if pl:
        buf[..., :pl, :] = buf[..., w : w + pl, :]
    if pr:
        buf[..., pl + w :, :] = buf[..., pl : pl + pr, :]
    return np.moveaxis(buf, -1, 1), (pt, pb, pl, pr)


def _copy_channels_last(dst, src):
    """``dst[...] = np.moveaxis(src, 1, -1)``, 8 channels at a time.

    The copy walks dst in memory order, so it reads one element of each of
    src's channel planes in turn. Where src sits on a transparent huge page
    (numpy asks for them on buffers of 4 MiB or more, and the allocator
    reuses those ranges), the planes stay H·W·4 bytes apart physically too
    and contend for the same cache sets: a (3, 32, 64, 128) float32 copy
    took 15.7 ms whole against 0.27 ms 8 channels at a time, and 0.50
    against 0.27 ms on 4 KiB pages.
    """
    for c in range(0, src.shape[1], 8):
        dst[..., c : c + 8] = np.moveaxis(src[:, c : c + 8], 1, -1)


def _fold_w(g, w, pl, pr):
    """Fold a gradient over W's wrapped columns (``_pad_spatial``'s pl + w + pr) back onto w columns."""
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
    """Divide each loaded OpenBLAS's threads among n workers that run GEMMs.

    Sets every OpenBLAS to max(1, previous // n) threads and restores the
    previous counts on exit, also when the body raises. The count is
    process-wide (even OpenBLAS's "local" setter changes it for every
    thread), and a process forked inside inherits it: ``Workers`` enters
    this before it forks, so each of its n processes runs its GEMMs on its
    share of the threads. With no OpenBLAS loaded it changes nothing.
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


def shared_empty(shape, dtype) -> np.ndarray:
    """An uninitialized array in an anonymous shared mapping, which forked children write into."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count).reshape(shape)


_PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>


class Workers:
    """A with-block run by n = min(workers, items) processes: this one and n - 1 forked children.

    The children start from this process's memory, copy-on-write, and run
    the rest of the block as workers 1 ... n - 1 (this one is worker 0).
    ``map`` splits items among the processes and waits for all of them;
    results pass through ``shared_empty`` arrays made before the block. A
    child never leaves the block, so nothing of the caller's stack (a
    ``finally``, a test runner, ``atexit``) runs twice. This process leaves
    it once every child is killed and reaped, whatever ends the block, also
    when ``os.fork`` raises here after the child exists (from Python 3.12
    it warns in a process with threads, such as OpenBLAS's pool, and an
    "error" warnings filter raises that in the parent only). A child dies
    with this process: on Linux the kernel kills it, elsewhere it ends at
    its next ``map``. Each process runs on its share of the BLAS threads
    (``share_blas_threads``). With n = 1, or without ``os.fork``, the block
    runs here alone.

    Processes, not threads: threads in one process contend for the
    interpreter lock in the Python between GEMMs, and processes do not.
    """

    def __init__(self, workers: int, items: int, what: str):
        self.n = max(1, min(workers, items)) if hasattr(os, "fork") else 1
        self.w = 0
        self.what = what  # names a child that ended without a report
        self._children = []  # in this process: (w, pid, report pipe, go pipe) until reaped
        self._pipes = None  # in child w: (report pipe, go pipe)
        self._blas = share_blas_threads(self.n)

    def __enter__(self):
        self._blas.__enter__()
        try:
            for w in range(1, self.n):
                if self._fork(w):
                    return self
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._pipes is not None:
            os._exit(0 if exc_type is None else 1)
        try:
            for _, pid, report, go in self._children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                report.close()
                go.close()
        finally:
            self._children = []
            self._blas.__exit__(None, None, None)

    def _fork(self, w: int) -> bool:
        """Fork child w; True in the child, False here once the child has named itself (its pid)."""
        parent = os.getpid()
        r, wr = os.pipe()
        gr, gw = os.pipe()
        child = False
        try:
            child = os.fork() == 0
        finally:
            if child:
                self._become_child(w, parent, r, wr, gr, gw)
            else:
                os.close(wr)
                os.close(gr)
                report, go = os.fdopen(r, "rb"), os.fdopen(gw, "wb")
                head = report.read(8)  # b"" if no child was made
                if len(head) == 8:
                    self._children.append((w, struct.unpack("q", head)[0], report, go))
                else:
                    report.close()
                    go.close()
        return child

    def _become_child(self, w, parent, r, wr, gr, gw):
        """Child w's set-up: end with the parent, keep only its own pipes, send its pid."""
        try:
            with contextlib.suppress(AttributeError, OSError):  # no prctl: not Linux
                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
                prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:  # the parent died before the prctl
                os._exit(1)
            for _, _, report, go in self._children:  # the parent's ends of older siblings' pipes
                report.close()
                go.close()
            os.close(r)
            os.close(gw)
            self._children, self.w = [], w
            self._pipes = os.fdopen(wr, "wb"), os.fdopen(gr, "rb")
            self._pipes[0].write(struct.pack("q", os.getpid()))
            self._pipes[0].flush()
        except BaseException:
            os._exit(1)

    def map(self, run: Callable[[int], None], count: int) -> None:
        """``run(i)`` for this process's items i = w, w + n, ... of range(count), then a barrier.

        Every process must make the same ``map`` calls in the same order.
        A process stops at its first failing item. In this process the
        exception of the lowest failing item of any process is raised, and
        a child that ended without a report is a RuntimeError; a child
        sends its failure here pickled, as (item, exception), and waits to
        be ended, so ``run`` must leave its results in shared memory.
        Returns once every process has run its share.
        """
        failure = None
        for i in range(self.w, count, self.n):
            try:
                run(i)
            except Exception as exc:
                failure = i, exc
                break
        if self._pipes is not None:
            report, go = self._pipes
            blob = b"" if failure is None else pickle.dumps(failure)
            report.write(struct.pack("q", len(blob)) + blob)
            report.flush()
            if not go.read(1):  # the parent is gone
                os._exit(1)
            return
        failures = [failure] + [self._report(child) for child in list(self._children)]
        failed = [f for f in failures if f is not None]
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        for _, _, _, go in self._children:
            with contextlib.suppress(BrokenPipeError):  # a dead child shows at its next report
                go.write(b"\x01")
                go.flush()

    def _report(self, child):
        """A child's (item, exception) for this ``map``, or None; reaps a child that ended."""
        w, pid, report, go = child
        head = report.read(8)
        if len(head) == 8:
            blob = report.read(struct.unpack("q", head)[0])
            return pickle.loads(blob) if blob else None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self._children.remove(child)
        report.close()
        go.close()
        return w, RuntimeError(f"{self.what} process {w} ended with code {code}")


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


def _corr_input_grad(go, w, strides, kept):
    """Gradient of a valid strided correlation w.r.t. its input, at the positions ``kept``.

    go is (B, O, *out_spatial) and ``kept`` one ``range`` of input
    positions per spatial axis; the result is (B, C, *map(len, kept)).

    Phase rule: along an axis of stride s and kernel size k, input position
    p = s*m + r (phase r < s) is read by tap d = r + s*j of output m - j
    only. So phase r's gradient is a stride-1 full correlation of go with
    the sub-kernel ``w[r::s]``, ceil((k - r) / s) taps wide, flipped in
    space and transposed in channels, and each phase (a tuple of one r per
    axis) runs as one ``_corr`` written into its own positions. A 3-wide
    kernel at stride 2 has sub-kernels 2 and 1 wide, a 2-tap one one tap
    per phase. A phase with no taps (r >= k) gets zeros, and so does a
    position past s*(n_out - 1) + k - 1, which no window reads. Nothing
    multiplies the zeros a stride spreads between output points, and the
    sums keep their order, so the result is the zero-spread correlation's.
    """
    nsp = w.ndim - 2
    ksz, n_out = w.shape[2:], go.shape[2:]
    # go, zero-padded by the widest sub-kernel less one on each side, channels-last, once.
    pads = [-(-k // s) - 1 for k, s in zip(ksz, strides)]
    gp = np.zeros((go.shape[0], *(n + 2 * p for n, p in zip(n_out, pads)), go.shape[1]), go.dtype)
    _copy_channels_last(gp[(slice(None),) + tuple(slice(p, p + n) for p, n in zip(pads, n_out))], go)
    gp = np.moveaxis(gp, -1, 1)
    gx = np.zeros((go.shape[0], w.shape[1], *map(len, kept)), np.result_type(go, w))
    for phase in itertools.product(*map(range, strides)):
        src, dst = [slice(None)] * 2, [slice(None)] * 2
        for r, s, k, n, p, keep in zip(phase, strides, ksz, n_out, pads, kept):
            taps = len(range(r, k, s))
            m_lo = max(0, -((r - keep.start) // s))
            m_hi = -(-(min(keep.stop, s * (n - 1) + k) - r) // s)
            if not taps or m_hi <= m_lo:
                break
            src.append(slice(m_lo - taps + 1 + p, m_hi + p))
            dst.append(slice(s * m_lo + r - keep.start, s * (m_hi - 1) + r - keep.start + 1, s))
        else:
            sub = w[(slice(None), slice(None)) + tuple(slice(r, None, s) for r, s in zip(phase, strides))]
            sub_rot = np.flip(sub, axis=tuple(range(2, 2 + nsp))).swapaxes(0, 1)
            gx[tuple(dst)] = _corr(gp[tuple(src)], sub_rot, (1,) * nsp)[0]
    return gx


def _conv(x: Tensor, w: Tensor, b: Tensor, strides, pad_t=0) -> Tensor:
    """The body of conv2d and conv3d: pad, ``_corr``, add the bias; its backward.

    Bias frames: an output frame whose window lies wholly in the ``pad_t``
    causal zero frames is b whatever the input, so it is written as b,
    with no padding, gather or GEMM behind it. For ``pad_t >= kt``
    at temporal stride s these are the first n = (pad_t - kt) // s + 1
    frames; x is padded with only pad_t - n*s causal frames, and ``_corr``
    gets only the rows the other frames read.

    The node keeps no array of its own, only its parents: backward pads
    ``x.data`` again with all ``pad_t`` frames and re-gathers the windows
    for the weight gradient, which costs one gather and saves holding the
    windows from forward to backward.
    """
    *_, h, wd = x.data.shape
    c, *_, kh, kw = w.data.shape[1:]
    if c != x.data.shape[1]:
        raise DomainError(f"kernel expects {c} input channels, got {x.data.shape[1]}")
    # The bias frames; conv2d passes pad_t 0 and has none. At least one frame
    # is computed, and at a stride past kt no frame of x is skipped.
    st, kt = strides[0], w.data.shape[2]
    n_bias = max(0, min((pad_t - kt) // st + 1, pad_t // st, (x.data.shape[2] + pad_t - kt) // st))
    xp, (pt, _, pl, pr) = _pad_spatial(x.data, kh, kw, pad_t - n_bias * st)
    # Input gradients only where x is: past the causal frames and the zero-H
    # rows, over every wrapped W column, which _fold_w folds back.
    kept = tuple(range(pad_t, pad_t + n) for n in x.data.shape[2:-2])
    kept += (range(pt, pt + h), range(wd + kw - 1))
    part = _corr(xp, w.data, strides)[0]
    del xp  # freed, as the windows are, before the output is allocated
    # A new output, not part += b: a graph keeps the output, and one allocated
    # after the windows are freed fragments the heap less than part, which
    # was allocated while they were live.
    bias = b.data.reshape((-1,) + (1,) * (part.ndim - 2))
    out = np.empty((*part.shape[:2], n_bias + part.shape[2], *part.shape[3:]), np.result_type(part, bias))
    out[:, :, :n_bias] = bias
    np.add(part, bias, out=out[:, :, n_bias:])

    def backward(go):
        windows, _ = _gather(_pad_spatial(x.data, kh, kw, pad_t)[0], w.data, strides)
        gw = _corr_wgrad(go, windows, w.data.shape, strides[0])
        del windows
        gx = None
        if x.requires_grad:
            gx = _fold_w(_corr_input_grad(go, w.data, strides, kept), wd, pl, pr)
        return gx, gw, go.sum(axis=(0, *range(2, go.ndim)))

    return Tensor(out, _requires(x, w, b), (x, w, b), backward)


# The taps of a 3-tap kernel axis over a nearest 2x upsampled input, folded
# onto the low-resolution input per output phase: output 2i reads low-res
# i - 1 and i with (w0, w1 + w2), output 2i + 1 reads i and i + 1 with
# (w0 + w1, w2). _FOLD[a] @ taps folds for phase a; its transpose unfolds.
_FOLD = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], np.float32)


def _phase_kernels(w):
    """The four (O, C, 2, 2) kernels of (O, C, 3, 3) w over a 2x upsample, by output phase (a, e)."""
    return [(a, e, _FOLD[a] @ w @ _FOLD[e].T) for a in range(2) for e in range(2)]


def _upsample_conv(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``conv2d(x, w, b, upsample=2)``: the 3x3 same conv of x upsampled 2x, at x's resolution.

    Output phase (a, e), the points (2i + a, 2j + e), is a 2x2 ``_corr``
    of x padded by ``_pad_spatial(x, 3, 3)`` with the folded kernel
    ``_phase_kernels`` gives; that padding, zero in H and wrapped in W, is
    the upsampled image's own. The node keeps only its parents. Backward
    unfolds each phase's weight gradient onto the 3x3 taps and sums the
    phases' input gradients at x's resolution.
    """
    bsz, c, h, wd = x.data.shape
    if w.data.shape[1:] != (c, 3, 3):
        raise DomainError(f"upsample=2 takes a (O, {c}, 3, 3) kernel, got {w.data.shape}")
    xp, _ = _pad_spatial(x.data, 3, 3)
    out = np.empty((bsz, w.data.shape[0], 2 * h, 2 * wd), np.result_type(x.data, w.data))
    for a, e, k in _phase_kernels(w.data):
        out[:, :, a::2, e::2] = _corr(xp[:, :, a : a + h + 1, e : e + wd + 1], k, (1, 1))[0]
    del xp
    out += b.data.reshape(-1, 1, 1)

    def backward(go):
        xp, _ = _pad_spatial(x.data, 3, 3)
        gw = 0
        gx = np.zeros((bsz, c, h, wd + 2), go.dtype) if x.requires_grad else None
        for a, e, k in _phase_kernels(w.data):
            g = np.ascontiguousarray(go[:, :, a::2, e::2])
            windows, _ = _gather(xp[:, :, a : a + h + 1, e : e + wd + 1], k, (1, 1))
            gw = gw + _FOLD[a].T @ _corr_wgrad(g, windows, k.shape, 1) @ _FOLD[e]
            del windows
            if gx is not None:
                # Phase row a of the padded x holds x's rows from row 1 - a on.
                kept = (range(1 - a, h + 1 - a), range(wd + 1))
                gx[..., e : e + wd + 1] += _corr_input_grad(g, k, (1, 1), kept)
        gx = None if gx is None else _fold_w(gx, wd, 1, 1)
        return gx, gw, go.sum(axis=(0, 2, 3))

    return Tensor(out, _requires(x, w, b), (x, w, b), backward)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, upsample: int = 1) -> Tensor:
    """Cross-correlation with same-size spatial padding (zero-H, circular-W).

    ``upsample=2`` convolves x upsampled 2x by nearest neighbour, with a
    3x3 kernel at stride 1, and never forms the upsampled input: each 3x3
    kernel folds into four 2x2 kernels that read x itself (``_upsample_conv``).
    The sums of folded taps round differently from the 3x3 conv of the
    upsampled image, by a few float32 ulps.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DomainError("conv2d expects x (B,C,H,W) and w (O,C,kh,kw)")
    if upsample not in (1, 2) or (upsample == 2 and stride != 1):
        raise DomainError(f"conv2d takes upsample 1, or 2 at stride 1; got {upsample} at stride {stride}")
    if upsample == 2:
        return _upsample_conv(x, w, b)
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


@dataclass
class StepSlots:
    """One step's per-sample losses and parameter gradients, in memory that ``Workers`` share."""

    loss: np.ndarray  # (batch,) float64
    has: np.ndarray  # (batch, parameters) bool: sample b's graph reached parameter j
    grad: dict  # parameter name -> (batch, *shape) array in the parameter's dtype

    @classmethod
    def shared(cls, params: dict[str, Tensor], batch: int) -> StepSlots:
        return cls(
            shared_empty((batch,), np.float64),
            shared_empty((batch, len(params)), np.bool_),
            {k: shared_empty((batch,) + p.data.shape, p.data.dtype) for k, p in params.items()},
        )


def mean_grad_step(
    opt: AdamW, loss_of: Callable[[int], Tensor], procs: Workers, slots: StepSlots
) -> float:
    """One ``opt`` step on the mean of the losses ``loss_of(b)`` over the batch of ``slots``.

    Each process of ``procs`` builds and back-propagates its share of the
    losses inside ``grad_sink()`` and writes each loss and gradient into
    its sample's slot. Every process then sums the gradients in sample
    order, divides by the batch size and takes the same ``opt`` step, so
    the parameters stay alike in all of them without being sent. For a
    loss that is a mean over samples with nothing coupling them, that is
    the full-batch gradient, and it is the same at any process count.
    Returns the mean loss.

    A diverging step overflows in its forward pass. Each sample therefore
    runs with numpy's overflow and invalid-value warnings off, and
    ``backward()`` reports the non-finite loss instead.
    """
    batch = len(slots.loss)

    def sample(b):
        with np.errstate(over="ignore", invalid="ignore"), grad_sink() as sink:
            loss = loss_of(b)
            loss.backward()
        slots.loss[b] = float(loss.data)
        for j, (k, p) in enumerate(opt.params.items()):
            slots.has[b, j] = p in sink
            if p in sink:
                slots.grad[k][b] = sink[p]

    procs.map(sample, batch)
    for j, (k, p) in enumerate(opt.params.items()):
        total = None
        for b in range(batch):
            if slots.has[b, j]:
                total = slots.grad[k][b] if total is None else total + slots.grad[k][b]
        p.grad = None if total is None else total / batch
    opt.step()
    return sum(slots.loss.tolist()) / batch


def fit(params: dict[str, Tensor], cfg: dict, draw: Callable[[], Callable], workers: int) -> list:
    """Train ``params`` by AdamW at ``cfg["lr"]`` for ``cfg["iters"]`` steps; the loss curve.

    The steps run in min(``workers``, ``cfg["batch"]``) ``Workers``
    processes, forked once for the whole fit. Each step calls ``draw()``
    once in every process, in step order: they all hold the same random
    state, so they all draw the same per-sample loss ``loss_of(b)``. Then
    it takes one ``mean_grad_step`` over ``cfg["batch"]`` samples, whose
    slots alternate between two sets by step parity, so that a fast process
    never writes a slot that another is still summing. The result does not
    depend on ``workers``. A DomainError, such as a non-finite loss in any
    process, is re-raised naming the step.
    """
    opt = AdamW(params, lr=cfg["lr"])
    slots = [StepSlots.shared(params, cfg["batch"]) for _ in range(2)]
    losses = []
    with Workers(workers, cfg["batch"], "training") as procs:
        for i in range(cfg["iters"]):
            try:
                losses.append(mean_grad_step(opt, draw(), procs, slots[i % 2]))
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
