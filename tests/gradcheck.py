"""Finite-difference oracle, float64 helpers and the gradient of one training step.

The engine keeps parameters in float32; the checks build float64 tensors
(or cast a model's parameters) so central differences resolve 1e-4.
"""

import numpy as np

from nimbus import autodiff as ad


def numeric_gradient(f, x: ad.Tensor, eps: float = 1e-3) -> np.ndarray:
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


def param64(data) -> ad.Tensor:
    """A float64 leaf that takes gradients."""
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def to_float64(params: dict):
    """Cast a model's parameters to float64 in place; returns them."""
    for p in params.values():
        p.data = p.data.astype(np.float64)
    return params


def total(x: ad.Tensor) -> ad.Tensor:
    """The sum of x's elements, as its mean times their count."""
    return ad.scale(ad.mean_all(x), x.data.size)


def first_step(monkeypatch, params: dict, loss_of, batch: int, workers: int):
    """(mean loss, {name: gradient}) of one ``ad.fit`` step over ``loss_of(0) ... loss_of(batch - 1)``.

    The gradients are those the step hands AdamW, which leaves the
    parameters as they were.
    """
    seen = {}
    monkeypatch.setattr(
        ad.AdamW, "step", lambda opt: seen.update({k: p.grad for k, p in opt.params.items()})
    )
    losses = ad.fit(params, {"iters": 1, "batch": batch, "lr": 1e-3}, lambda: loss_of, workers)
    return losses[0], seen
