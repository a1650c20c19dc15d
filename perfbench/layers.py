"""Per-layer tracing for the traced run, installed from the benchmark side.

``install()`` wraps calls into the ``nimbus`` modules (module functions,
class methods, and the backward closures that conv layers return) with
timers and counters. Nothing under ``src/`` is edited. Records stay in
memory as (calls, seconds) per name plus a few summed quantities, and the
stage process writes them out when it ends.

Forecast members run on threads, so every update takes a lock. Times are
wall times of each call as seen from its own thread.
"""

from __future__ import annotations

import functools
import os
import resource
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self.spans = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.sums = defaultdict(float)  # name -> summed quantity
        self.phase = "none"  # model being trained, for backward attribution

    def add(self, name, seconds, **sums):
        with self._lock:
            rec = self.spans[name]
            rec[0] += 1
            rec[1] += seconds
            for key, value in sums.items():
                self.sums[key] += value

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - t0)

        return wrapper

    def summary(self):
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "sums": dict(self.sums),
            }


def _patch(owner, attr, make):
    setattr(owner, attr, make(getattr(owner, attr)))


def install() -> Tracer:
    """Wrap the layer entry points of ``nimbus``; returns the live tracer."""
    import numpy as np

    from nimbus import autodiff, cli, edm, forecast, grid, models, pipeline, svgplot, verify

    tr = Tracer()
    timed = tr.timed

    # -- forecast path ------------------------------------------------------
    _patch(cli, "_rebuild_models", lambda f: timed("cli.rebuild_models", f))
    _patch(forecast, "step", lambda f: timed("forecast.step", f))
    _patch(forecast, "_run_member", lambda f: timed("forecast.member", f))
    _patch(forecast, "init_member_state", lambda f: timed("models.vae_encode", f))
    _patch(forecast, "write_forecast", lambda f: timed("forecast.write", f))
    _patch(edm, "sample_deterministic", lambda f: timed("edm.sample", f))
    _patch(edm, "sample_stochastic", lambda f: timed("edm.sample", f))
    _patch(models.Mae, "encode_array", lambda f: timed("causal3d.encode", f))
    _patch(models.Vae, "decode_array", lambda f: timed("models.vae_decode", f))

    def make_rollout(fn):
        @functools.wraps(fn)
        def rollout(*args, **kwargs):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            ens = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            member_leads = ens.fields.shape[0] * ens.fields.shape[1]
            tr.add("forecast.rollout", dt, minor_faults=faults, member_leads=member_leads)
            return ens

        return rollout

    _patch(forecast, "rollout", make_rollout)

    def make_denoise_fn(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed("edm.denoise", fn(*args, **kwargs))

        return wrapper

    _patch(edm, "make_denoise_fn", make_denoise_fn)

    # Computed conv work, from the arguments of the im2col kernel every
    # convolution runs through: x (B, C, *spatial), w (O, C, *kernel).
    def make_corr(fn):
        @functools.wraps(fn)
        def corr(x, w, strides):
            ksz = w.shape[2:]
            out = [(n - k) // s + 1 for n, k, s in zip(x.shape[2:], ksz, strides)]
            rows = x.shape[0] * int(np.prod(out))
            width = x.shape[1] * int(np.prod(ksz))
            tr.add(
                "autodiff.corr",
                0.0,
                conv_flop=2.0 * rows * width * w.shape[0],
                im2col_bytes=float(rows * width * x.dtype.itemsize),
            )
            return fn(x, w, strides)

        return corr

    _patch(autodiff, "_corr", make_corr)

    # -- autodiff layers, forward and backward ------------------------------
    def make_layer(name, fn):
        @functools.wraps(fn)
        def layer(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            tr.add(f"{name}_fwd", time.perf_counter() - t0)
            if out._backward is not None:
                out._backward = timed(f"{name}_bwd", out._backward)
            return out

        return layer

    for name in ("conv2d", "conv3d", "lowpass2d"):
        _patch(autodiff, name, lambda f, n=name: make_layer(f"autodiff.{n}", f))
    _patch(autodiff.AdamW, "step", lambda f: timed("autodiff.adamw", f))

    def make_backward(fn):
        @functools.wraps(fn)
        def backward(self):
            t0 = time.perf_counter()
            fn(self)
            tr.add(f"autodiff.backward.{tr.phase}", time.perf_counter() - t0)

        return backward

    _patch(autodiff.Tensor, "backward", make_backward)

    # -- training loops -------------------------------------------------------
    def make_trainer(phase, loss_name, fn):
        """Time a training loop and count the iterations it ran."""

        @functools.wraps(fn)
        def trainer(*args, **kwargs):
            before, tr.phase = tr.phase, phase
            calls0 = tr.spans[loss_name][0]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tr.phase = before
                if tr.spans[loss_name][0] > calls0:
                    tr.add(f"train.{phase}", dt)

        return trainer

    _patch(models, "vae_loss", lambda f: timed("models.vae_loss", f))
    _patch(models, "mae_loss", lambda f: timed("models.mae_loss", f))
    _patch(edm, "diffusion_loss", lambda f: timed("edm.diffusion_loss", f))
    _patch(models, "train_vae", lambda f: make_trainer("vae", "models.vae_loss", f))
    _patch(models, "train_mae", lambda f: make_trainer("mae", "models.mae_loss", f))
    _patch(
        pipeline,
        "train_denoiser",
        lambda f: make_trainer("denoiser", "edm.diffusion_loss", f),
    )
    _patch(models, "build_targets", lambda f: timed("models.build_targets", f))
    _patch(pipeline, "residual_latents", lambda f: timed("pipeline.latent_precompute", f))
    _patch(pipeline, "conditioning_latents", lambda f: timed("pipeline.latent_precompute", f))
    _patch(cli, "_save_model", lambda f: timed("cli.checkpoint_write", f))
    _patch(grid, "gen_synthetic", lambda f: timed("grid.gen_synthetic", f))

    # -- file I/O and scoring -------------------------------------------------
    def make_io(name, fn, path_arg):
        @functools.wraps(fn)
        def io(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            size = os.path.getsize(args[path_arg])
            tr.add(name, dt, **{f"{name}.bytes": float(size)})
            return out

        return io

    _patch(grid, "read_fields", lambda f: make_io("grid.read_fields", f, 0))
    _patch(grid, "write_fields", lambda f: make_io("grid.write_fields", f, 1))
    _patch(verify, "evaluate_ensemble", lambda f: timed("verify.evaluate_ensemble", f))
    _patch(verify, "crps_field", lambda f: timed("verify.crps", f))
    _patch(verify, "rank_histogram", lambda f: timed("verify.rank_histogram", f))
    for owner, attr in (
        (verify.MetricReport, "to_csv"),
        (verify.MetricReport, "to_json"),
        (svgplot, "line_plot"),
        (svgplot, "bar_plot"),
    ):
        _patch(owner, attr, lambda f: timed("verify.report_write", f))
    return tr
