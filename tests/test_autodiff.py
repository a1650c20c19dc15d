"""Gradient fidelity: every differentiable op against central finite differences.

Checks run on float64 tensors (parameters are float32 in production); the
relative-error criterion is max|analytic - numeric| / max(1, max|numeric|) < 1e-4.
"""

import os
import signal
import threading
import time
import weakref

import numpy as np
import pytest
from gradcheck import first_step, numeric_gradient, param64, total

from nimbus import autodiff as ad
from nimbus import models
from nimbus.errors import DomainError, FormatError

N_SEEDS = 20


def rel_err(analytic, numeric):
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def check_grads(make_loss, tensors, eps=1e-3, tol=1e-4):
    loss = make_loss()
    for t in tensors:
        t.grad = None
    loss.backward()
    for t in tensors:
        num = numeric_gradient(make_loss, t, eps=eps)
        assert t.grad is not None, "missing gradient"
        assert rel_err(t.grad, num) < tol


def random_param(rng, shape, scale=1.0):
    return param64(rng.standard_normal(shape) * scale)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def zero_bias(w):
    """A constant zero bias for kernel w (an array or a tensor), in its dtype."""
    w = w.data if isinstance(w, ad.Tensor) else w
    return ad.constant(np.zeros(w.shape[0], w.dtype))


class TestElementwise:
    def test_silu_zero(self):
        assert ad.silu(ad.constant(np.array(0.0))).data == 0.0

    def test_silu_large_negative_float32(self):
        # exp(100) overflows float32; the output is still 0 and no warning escapes.
        x = ad.param(np.array([-100.0], dtype=np.float32))
        y = ad.silu(x)
        assert y.data[0] == 0.0
        total(y).backward()
        assert np.all(np.isfinite(x.grad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_recomputes_the_sigmoid_it_does_not_keep(self, dtype):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal((4, 50)) * 40).astype(dtype)  # float32 exp(-x) overflows below -88
        node = ad.silu(ad.Tensor(x, requires_grad=True))
        cells = [cell.cell_contents for cell in node._backward.__closure__]
        assert not [c for c in cells if isinstance(c, np.ndarray)]
        go = rng.standard_normal(x.shape).astype(dtype)
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-x))
        (gx,) = node._backward(go)
        assert gx.tobytes() == (go * (s * (1.0 + x * (1.0 - s)))).tobytes()

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_silu_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (3, 4))
        check_grads(lambda: total(ad.silu(x)), [x])

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_mul_add_broadcast_grad(self, seed):
        rng = np.random.default_rng(seed)
        a = random_param(rng, (2, 3, 4))
        b = random_param(rng, (3, 1))
        check_grads(lambda: total(ad.mul(ad.add(a, b), b)), [a, b])

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_exp_square_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (4, 3), scale=0.5)
        check_grads(lambda: total(ad.add(ad.exp(x), ad.square(x))), [x])

    def test_fanout_sums_gradients(self):
        x = ad.param(np.array([1.5, -0.5]))
        loss = total(ad.add(ad.mul(x, x), ad.mul(x, x)))
        loss.backward()
        np.testing.assert_allclose(x.grad, 4.0 * x.data)


class TestLinear:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_linear_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (5, 3))
        w = random_param(rng, (3, 4))
        b = random_param(rng, (4,))
        check_grads(lambda: total(ad.silu(ad.linear(x, w, b))), [x, w, b])

    def test_input_gradient_formed_only_when_needed(self):
        data = np.random.default_rng(0).standard_normal((5, 3))
        grads = []
        for make in (ad.constant, param64):
            rng = np.random.default_rng(1)
            w, b = random_param(rng, (3, 4)), random_param(rng, (4,))
            out = ad.linear(make(data), w, b)
            gx, _, _ = out._backward(np.ones(out.shape))
            assert (gx is None) == (make is ad.constant)
            total(ad.silu(out)).backward()
            grads.append((w.grad, b.grad))
        for constant_grad, param_grad in zip(*grads):
            np.testing.assert_array_equal(constant_grad, param_grad)


class TestNorms:
    def test_rmsnorm_unit_vector_identity(self):
        x = ad.constant(np.array([[1.0, -1.0, 1.0, -1.0]]))
        g = ad.constant(np.ones(4))
        out = ad.rmsnorm(x, g, axis=1)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-5)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_rmsnorm_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (2, 5, 3))
        g = random_param(rng, (5,))
        check_grads(lambda: total(ad.rmsnorm(x, g, axis=1)), [x, g], tol=2e-4)

    def test_film_identity(self):
        x = ad.constant(np.random.default_rng(0).standard_normal((2, 3)))
        out = ad.film(x, ad.constant(np.ones((2, 3))), ad.constant(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_film_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (2, 4, 3))
        s = random_param(rng, (4, 1))
        t = random_param(rng, (4, 1))
        check_grads(lambda: total(ad.film(x, s, t)), [x, s, t])


class TestLosses:
    def test_weighted_mse_zero_when_equal(self):
        x = ad.constant(np.ones((2, 3)))
        assert ad.weighted_mse(x, np.ones((2, 3)), 1.0).data == 0.0

    def test_uniform_weights_plain_mse(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((3, 4))
        t = rng.standard_normal((3, 4))
        got = ad.weighted_mse(ad.constant(p), t, np.ones((3, 4)))
        assert float(got.data) == pytest.approx(np.mean((p - t) ** 2))

    def test_lat_weighted_hand_loop(self):
        # 2x3 grid with per-row weights, against an explicit double loop.
        p = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        t = np.zeros((2, 3))
        w = np.array([[2.0], [0.5]])
        num = sum(
            w[i, 0] * (p[i, j] - t[i, j]) ** 2 for i in range(2) for j in range(3)
        )
        den = w[0, 0] * 3 + w[1, 0] * 3
        got = ad.weighted_mse(ad.constant(p), t, w)
        assert float(got.data) == pytest.approx(num / den)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_weighted_mse_grad(self, seed):
        rng = np.random.default_rng(seed)
        p = random_param(rng, (2, 3, 4))
        t = rng.standard_normal((2, 3, 4))
        w = np.abs(rng.standard_normal((3, 1))) + 0.1
        check_grads(lambda: ad.weighted_mse(p, t, w), [p])

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_sum_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (3, 4))
        check_grads(lambda: ad.mean_all(ad.square(x)), [x])
        check_grads(lambda: ad.scale(total(x), 0.25), [x])


class TestShapeOps:
    @pytest.mark.parametrize("seed", range(5))
    def test_reshape_transpose_concat_narrow(self, seed):
        rng = np.random.default_rng(seed)
        a = random_param(rng, (2, 3, 4))
        b = random_param(rng, (2, 2, 4))

        def loss():
            t = ad.transpose(a, (1, 0, 2))
            n = ad.narrow(t, 0, 1, 2)
            return total(ad.square(ad.reshape(ad.mul(n, b), (2, 8))))

        check_grads(loss, [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_repeat_upsample_avgpool(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (1, 2, 4, 4))
        w = random_param(rng, (3, 2, 3, 3), scale=0.5)
        b = random_param(rng, (3,))

        def loss():
            up = ad.conv2d(x, w, b, upsample=2)
            rep = ad.repeat_axis(x, 3, axis=1)
            pooled = ad.avgpool2d(x, 2)
            return ad.add(
                total(ad.square(up)),
                ad.add(total(ad.square(rep)), total(ad.square(pooled))),
            )

        check_grads(loss, [x, w, b])

    def test_upsample_then_avgpool_identity(self):
        # A centre-tap-only kernel makes the upsample-conv a pure nearest upsample.
        x = ad.constant(np.random.default_rng(0).standard_normal((1, 2, 4, 6)))
        delta = np.zeros((2, 2, 3, 3))
        delta[[0, 1], [0, 1], 1, 1] = 1.0
        up = ad.conv2d(x, ad.constant(delta), zero_bias(delta), upsample=2)
        back = ad.avgpool2d(up, 2)
        np.testing.assert_allclose(back.data, x.data, atol=1e-12)


def reference_conv(x, w, strides, pad_t=0):
    """Direct cross-correlation in float64: zero-pad T (causal) and H, wrap W.

    x: (B, C, *spatial), w: (O, C, *kernel), spatial (H, W) or (T, H, W).
    Sums kernel offsets one at a time with einsum over channels only.
    """
    x = np.asarray(x, np.float64)
    w = np.asarray(w, np.float64)
    *_, kh, kw = w.shape
    lead = [(0, 0)] * (x.ndim - 4) if pad_t == 0 else [(pad_t, 0)]
    x = np.pad(x, [(0, 0), (0, 0)] + lead + [((kh - 1) // 2, kh // 2), (0, 0)])
    wd = x.shape[-1]
    x = np.take(x, np.arange(-((kw - 1) // 2), wd + kw // 2) % wd, axis=-1)
    ksz = w.shape[2:]
    out_sz = [(n - k) // s + 1 for n, k, s in zip(x.shape[2:], ksz, strides)]
    out = np.zeros((x.shape[0], w.shape[0], *out_sz))
    for off in np.ndindex(*ksz):
        win = x[(slice(None), slice(None)) + tuple(
            slice(d, d + s * (n - 1) + 1, s) for d, s, n in zip(off, strides, out_sz)
        )]
        out += np.einsum("bc...,oc->bo...", win, w[(slice(None), slice(None)) + off])
    return out


class TestConvValues:
    """conv2d/conv3d forward against the direct reference, not only its own gradient."""

    TOL = {np.float32: 2e-5, np.float64: 1e-12}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d(self, dtype, stride):
        rng = np.random.default_rng(stride)
        x = rng.standard_normal((2, 3, 6, 8)).astype(dtype)
        w = rng.standard_normal((4, 3, 1, 3)).astype(dtype)
        out = ad.conv2d(ad.constant(x), ad.constant(w), zero_bias(w), stride=stride).data
        assert out.dtype == dtype
        ref = reference_conv(x, w, (stride, stride))
        np.testing.assert_allclose(out, ref, rtol=0, atol=self.TOL[dtype] * np.abs(ref).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride_t,stride_hw,pad_t", [(1, 1, 0), (2, 2, 1), (2, 1, 0), (1, 2, 1)])
    def test_conv3d(self, dtype, stride_t, stride_hw, pad_t):
        rng = np.random.default_rng(10 * stride_t + stride_hw + pad_t)
        x = rng.standard_normal((2, 3, 5, 6, 8)).astype(dtype)
        w = rng.standard_normal((4, 3, 2, 3, 1)).astype(dtype)
        out = ad.conv3d(
            ad.constant(x), ad.constant(w), zero_bias(w), stride_t, stride_hw, pad_t
        ).data
        assert out.dtype == dtype
        ref = reference_conv(x, w, (stride_t, stride_hw, stride_hw), pad_t=pad_t)
        np.testing.assert_allclose(out, ref, rtol=0, atol=self.TOL[dtype] * np.abs(ref).max())

    # Every kernel the models run, with multi-tap leading axes and kw > 1.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel,stride", [((3, 3), 1), ((3, 3), 2), ((1, 1), 1)])
    def test_conv2d_model_kernels(self, dtype, kernel, stride):
        rng = np.random.default_rng(stride)
        x = rng.standard_normal((2, 3, 6, 8)).astype(dtype)
        w = rng.standard_normal((4, 3, *kernel)).astype(dtype)
        out = ad.conv2d(ad.constant(x), ad.constant(w), zero_bias(w), stride=stride).data
        assert out.dtype == dtype
        ref = reference_conv(x, w, (stride, stride))
        np.testing.assert_allclose(out, ref, rtol=0, atol=self.TOL[dtype] * np.abs(ref).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "kernel,stride_t,stride_hw,pad_t",
        [
            ((2, 3, 3), 1, 2, 0),  # 3D-MAE c3d0
            ((2, 3, 3), 2, 2, 0),  # 3D-MAE c3d1
            ((2, 3, 3), 1, 1, 1),  # denoiser blocks
            ((5, 1, 1), 1, 1, 0),  # denoiser head collapse
            ((1, 1, 1), 1, 1, 0),  # projections
        ],
    )
    def test_conv3d_model_kernels(self, dtype, kernel, stride_t, stride_hw, pad_t):
        rng = np.random.default_rng(stride_t + stride_hw + pad_t)
        x = rng.standard_normal((2, 3, 5, 6, 8)).astype(dtype)
        w = rng.standard_normal((4, 3, *kernel)).astype(dtype)
        out = ad.conv3d(
            ad.constant(x), ad.constant(w), zero_bias(w), stride_t, stride_hw, pad_t
        ).data
        assert out.dtype == dtype
        ref = reference_conv(x, w, (stride_t, stride_hw, stride_hw), pad_t=pad_t)
        np.testing.assert_allclose(out, ref, rtol=0, atol=self.TOL[dtype] * np.abs(ref).max())

    def test_saved_windows_are_smaller_than_im2col(self, monkeypatch):
        saved = []
        corr = ad._corr

        def recording(x, w, strides):
            out, windows = corr(x, w, strides)
            saved.append(windows)
            return out, windows

        monkeypatch.setattr(ad, "_corr", recording)
        b, c, h, wd = 1, 4, 64, 128
        x = ad.constant(np.ones((b, c, h, wd), np.float32))
        w = ad.param(np.ones((c, c, 3, 3), np.float32))
        ad.conv2d(x, w, zero_bias(w))
        (windows,) = saved
        im2col_bytes = b * h * wd * c * 9 * windows.itemsize
        assert windows.nbytes <= 0.4 * im2col_bytes

    @pytest.mark.parametrize(
        "xshape,wshape,strides,pad_t",
        [
            ((2, 2, 6, 8), (3, 2, 3, 3), (1, 1), 0),
            ((2, 2, 6, 8), (3, 2, 3, 3), (2, 2), 0),
            ((1, 2, 4, 6, 8), (3, 2, 2, 3, 3), (1, 1, 1), 1),
            ((1, 2, 5, 6, 8), (3, 2, 2, 3, 3), (2, 2, 2), 1),
        ],
    )
    def test_conv_node_keeps_no_array(self, xshape, wshape, strides, pad_t):
        # Backward pads the parent again and re-gathers the windows, so the
        # closure holds the parents and shapes, never an array of its own.
        rng = np.random.default_rng(0)
        x = random_param(rng, xshape)
        w = random_param(rng, wshape, scale=0.5)
        b = random_param(rng, wshape[:1])

        def conv():
            if len(xshape) == 4:
                return ad.conv2d(x, w, b, stride=strides[0])
            return ad.conv3d(x, w, b, strides[0], strides[1], pad_t=pad_t)

        cells = [cell.cell_contents for cell in conv()._backward.__closure__]
        assert not [c for c in cells if isinstance(c, np.ndarray)]

        def loss():
            out = conv()
            return ad.weighted_mse(out, np.zeros(out.data.shape), 1.0)

        check_grads(loss, [x, w, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_grads_asymmetric_kernel(self, seed):
        # C != O and kt != kh != kw, so a transposed kernel or channel axis fails.
        rng = np.random.default_rng(seed)
        x = random_param(rng, (2, 2, 4, 5, 6))
        w = random_param(rng, (3, 2, 2, 3, 4), scale=0.5)
        b = random_param(rng, (3,))

        def loss():
            out = ad.conv3d(x, w, b, stride_t=2, stride_hw=2, pad_t=1)
            return ad.weighted_mse(out, np.zeros(out.data.shape), 1.0)

        check_grads(loss, [x, w, b])

    @pytest.mark.parametrize(
        "xshape,wshape,strides",
        [((2, 3, 7, 8), (4, 3, 1, 3), (2, 2)), ((2, 3, 5, 6, 8), (4, 3, 2, 3, 1), (2, 1, 2))],
    )
    def test_corr_tracer_contract(self, xshape, wshape, strides):
        # perfbench's conv_gflop and im2col_mb accounting reads _corr's
        # arguments as x (B, C, *spatial), w (O, C, *kernel) and prices one
        # cols row per output point, C * prod(kernel) wide. The kernel itself
        # keeps (B, leading rows, trailing output points, C * prod(kernel[1:])).
        rng = np.random.default_rng(0)
        x = rng.standard_normal(xshape).astype(np.float32)
        w = rng.standard_normal(wshape).astype(np.float32)
        out, windows = ad._corr(x, w, strides)
        out_spatial = tuple(
            (n - k) // s + 1 for n, k, s in zip(xshape[2:], wshape[2:], strides)
        )
        assert out.shape == (xshape[0], wshape[0], *out_spatial)
        assert out.flags.c_contiguous
        lead_rows = strides[0] * (out_spatial[0] - 1) + wshape[2]
        assert windows.shape == (
            xshape[0], lead_rows, np.prod(out_spatial[1:]), xshape[1] * np.prod(wshape[3:])
        )
        assert windows.dtype == x.dtype


class TestPadding:
    """Conv inputs are padded in one channels-last copy; constant inputs get no gradient."""

    @staticmethod
    def reference_pad(x, kh, kw, pad_t):
        lead = [(pad_t, 0)] * (x.ndim - 4)
        x = np.pad(x, [(0, 0), (0, 0)] + lead + [((kh - 1) // 2, kh // 2), (0, 0)])
        return np.pad(x, [(0, 0)] * (x.ndim - 1) + [((kw - 1) // 2, kw // 2)], mode="wrap")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape,pad_t", [((2, 3, 6, 8), 0), ((2, 3, 4, 6, 8), 0), ((2, 3, 4, 6, 8), 1)]
    )
    @pytest.mark.parametrize("kh", [1, 2, 3, 4])
    @pytest.mark.parametrize("kw", [1, 2, 3, 4])
    def test_pad_spatial_matches_np_pad(self, dtype, shape, pad_t, kh, kw):
        x = np.random.default_rng(kh * 10 + kw).standard_normal(shape).astype(dtype)
        xp, pads = ad._pad_spatial(x, kh, kw, pad_t)
        assert xp.dtype == dtype
        np.testing.assert_array_equal(xp, self.reference_pad(x, kh, kw, pad_t))
        assert np.moveaxis(xp, 1, -1).flags.c_contiguous
        assert pads == ((kh - 1) // 2, kh // 2, (kw - 1) // 2, kw // 2)

    def test_convs_pass_corr_the_padded_shape(self, monkeypatch):
        seen = []
        corr = ad._corr

        def recording(x, w, strides):
            seen.append(x.shape)
            return corr(x, w, strides)

        monkeypatch.setattr(ad, "_corr", recording)
        x2 = ad.constant(np.ones((2, 3, 6, 8), np.float32))
        w2 = np.ones((4, 3, 3, 4), np.float32)
        ad.conv2d(x2, ad.constant(w2), zero_bias(w2))
        x3 = ad.constant(np.ones((2, 3, 5, 6, 8), np.float32))
        w3 = np.ones((4, 3, 2, 3, 3), np.float32)
        ad.conv3d(x3, ad.constant(w3), zero_bias(w3), pad_t=1)
        assert seen == [(2, 3, 6 + 2, 8 + 3), (2, 3, 5 + 1, 6 + 2, 8 + 2)]

    @staticmethod
    def mae():
        cfg = models.MaeConfig(
            latent_channels=3, channels=(4, 6), spatial_strides=(2, 2), decoder_channels=6, k=4
        )
        return models.Mae(2, cfg, np.random.default_rng(0))

    def test_first_conv_input_gradient_not_formed(self, monkeypatch):
        mae = self.mae()
        window = np.random.default_rng(1).standard_normal((2, 2, 5, 8, 8)).astype(np.float32)
        counts = {"corr": 0, "input_grad": 0}
        corr, input_grad = ad._corr, ad._corr_input_grad

        def counting_corr(*args):
            counts["corr"] += 1
            return corr(*args)

        def counting_input_grad(*args):
            counts["input_grad"] += 1
            return input_grad(*args)

        monkeypatch.setattr(ad, "_corr", counting_corr)
        loss = models.mae_loss(mae, window, np.ones(8), np.ones(2))
        convs = counts["corr"]
        monkeypatch.setattr(ad, "_corr", corr)
        monkeypatch.setattr(ad, "_corr_input_grad", counting_input_grad)
        loss.backward()
        assert convs > 1
        assert counts["input_grad"] == convs - 1

    def test_param_gradients_do_not_depend_on_input_grad(self):
        window = np.random.default_rng(2).standard_normal((2, 2, 5, 8, 8)).astype(np.float32)
        grads = []
        for make in (ad.constant, ad.param):
            mae = self.mae()
            x = make(window)
            recon = mae.decode(mae.encode(x))
            ad.weighted_mse(recon, window, 1.0).backward()
            assert (x.grad is not None) == x.requires_grad
            grads.append({k: p.grad for k, p in mae.params.items()})
        assert grads[0].keys() == grads[1].keys()
        for key in grads[0]:
            np.testing.assert_array_equal(grads[0][key], grads[1][key], err_msg=key)


def zero_spread_input_grad(go, w, strides, padded, kept):
    """The input gradient stride phases replace, at the positions ``kept``.

    go is spread by the strides into a zero buffer padded by kernel - 1 on
    each side and correlated at stride 1 with the kernel flipped in space
    and transposed in channels, over the whole padded input.
    """
    nsp = w.ndim - 2
    ksz = w.shape[2:]
    gd = np.zeros(go.shape[:2] + tuple(p + k - 1 for p, k in zip(padded, ksz)), go.dtype)
    spread = tuple(slice(k - 1, k + (n - 1) * s, s) for k, n, s in zip(ksz, go.shape[2:], strides))
    gd[(slice(None), slice(None)) + spread] = go
    w_rot = np.flip(w, axis=tuple(range(2, 2 + nsp))).swapaxes(0, 1)
    gx, _ = ad._corr(gd, w_rot, (1,) * nsp)
    return gx[(slice(None), slice(None)) + tuple(slice(r.start, r.stop) for r in kept)]


class TestStridePhases:
    """``_corr_input_grad`` by stride phase against the zero-spread correlation.

    Every GEMM here is large enough for OpenBLAS's blocked kernel, which
    sums each output's terms in order, so leaving the zero terms out keeps
    the bytes. Below an M * N of about 1,250 OpenBLAS switches to a
    small-matrix kernel that rounds otherwise, so smaller sizes can differ
    in the last bit; ``test_small_sizes_within_rounding`` covers those.
    """

    # (padded input, kernel (O, C, *k), strides); each last padded row or
    # frame is read by no window.
    CASES = [
        ((34, 66), (16, 32, 3, 3), (2, 2)),  # 3x3 at stride 2: sub-kernels 2 and 1 wide
        ((35, 67), (16, 32, 3, 3), (4, 4)),  # 3 wide at stride 4: phase 3 has no taps
        ((9, 18, 34), (16, 32, 2, 3, 3), (2, 2, 2)),  # 3D-MAE c3d1: one T tap per phase
        ((9, 18, 34), (16, 32, 2, 3, 3), (2, 4, 4)),  # c3d1 at mae.spatial_strides [1, 4]
        ((9, 16, 32), (16, 32, 2, 1, 1), (2, 1, 1)),  # 2 taps at stride 2 on T alone
    ]

    @staticmethod
    def inputs(padded, wshape, strides, dtype, batch=2):
        rng = np.random.default_rng(len(padded) + sum(strides))
        n_out = tuple((p - k) // s + 1 for p, k, s in zip(padded, wshape[2:], strides))
        go = rng.standard_normal((batch, wshape[0], *n_out)).astype(dtype)
        return go, rng.standard_normal(wshape).astype(dtype)

    @staticmethod
    def kept_ranges(padded, interior):
        """Every position, or those ``_conv`` keeps: past a leading frame and one H row each side."""
        if not interior:
            return tuple(map(range, padded))
        return tuple(range(1, p) for p in padded[:-2]) + (range(1, padded[-2] - 1), range(padded[-1]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("interior", [False, True])
    @pytest.mark.parametrize("padded,wshape,strides", CASES)
    def test_bit_identical_to_zero_spread(self, padded, wshape, strides, interior, dtype):
        go, w = self.inputs(padded, wshape, strides, dtype)
        kept = self.kept_ranges(padded, interior)
        got = ad._corr_input_grad(go, w, strides, kept)
        want = zero_spread_input_grad(go, w, strides, padded, kept)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_tapless_phase_and_unread_rows_are_zero(self):
        padded, wshape, strides = self.CASES[1]
        go, w = self.inputs(padded, wshape, strides, np.float32)
        gx = ad._corr_input_grad(go, w, strides, tuple(map(range, padded)))
        assert not gx[:, :, 3::4].any() and not gx[..., 3::4].any()
        assert not gx[:, :, 4 * (go.shape[2] - 1) + 3 :].any()
        assert gx[:, :, :-4:4, :-4:4].all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded,wshape,strides", CASES)
    def test_small_sizes_within_rounding(self, padded, wshape, strides, dtype):
        padded = tuple(p // 4 + k for p, k in zip(padded, wshape[2:]))
        go, w = self.inputs(padded, (3, 2) + wshape[2:], strides, dtype, batch=1)
        kept = self.kept_ranges(padded, True)
        got = ad._corr_input_grad(go, w, strides, kept)
        want = zero_spread_input_grad(go, w, strides, padded, kept)
        tol = TestConvValues.TOL[dtype] * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


class TestUpsampleConv:
    """``conv2d(x, w, b, upsample=2)`` against the 3x3 conv of the repeated input."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values(self, dtype):
        # B = 2 and C != O; the reference covers the zero-H edge rows and the wrapped W columns.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 5, 7)).astype(dtype)
        w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b), upsample=2).data
        assert out.dtype == dtype and out.shape == (2, 4, 10, 14)
        up = np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1)
        ref = reference_conv(up, w, (1, 1)) + b[:, None, None]
        tol = TestConvValues.TOL[dtype] * np.abs(ref).max()
        np.testing.assert_allclose(out, ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("seed", range(3))
    def test_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (2, 3, 3, 4))
        w = random_param(rng, (2, 3, 3, 3), scale=0.5)
        b = random_param(rng, (2,))

        def loss():
            out = ad.conv2d(x, w, b, upsample=2)
            return ad.weighted_mse(out, np.zeros(out.data.shape), 1.0)

        check_grads(loss, [x, w, b])
        cells = [cell.cell_contents for cell in loss()._parents[0]._backward.__closure__]
        assert not [c for c in cells if isinstance(c, np.ndarray)]

    @pytest.mark.parametrize(
        "wshape,stride,upsample", [((2, 3, 3, 3), 1, 3), ((2, 3, 3, 3), 2, 2), ((2, 3, 1, 1), 1, 2)]
    )
    def test_rejected(self, wshape, stride, upsample):
        x = ad.constant(np.ones((1, 3, 4, 4)))
        w = np.ones(wshape)
        with pytest.raises(DomainError):
            ad.conv2d(x, ad.constant(w), zero_bias(w), stride=stride, upsample=upsample)


class TestConv2d:
    def test_identity_kernel(self):
        x = ad.constant(np.random.default_rng(0).standard_normal((1, 1, 6, 6)))
        k = ad.constant(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(ad.conv2d(x, k, zero_bias(k)).data, x.data)

    def test_constant_input_mean_kernel(self):
        x = ad.constant(np.full((1, 1, 6, 8), 2.0))
        # Longitude-mean kernel: periodic axis, exactly constant everywhere.
        k = ad.constant(np.full((1, 1, 1, 3), 1.0 / 3.0))
        np.testing.assert_allclose(ad.conv2d(x, k, zero_bias(k)).data, 2.0, rtol=1e-12)
        # 3x3 mean kernel: constant away from the zero-padded latitude edges.
        k9 = ad.constant(np.full((1, 1, 3, 3), 1.0 / 9.0))
        out = ad.conv2d(x, k9, zero_bias(k9)).data[0, 0]
        np.testing.assert_allclose(out[1:-1], 2.0, rtol=1e-12)

    def test_circular_longitude_zero_latitude(self):
        # An impulse at the west edge must wrap to the east edge, not to the
        # opposite latitude row.
        x = np.zeros((1, 1, 4, 6))
        x[0, 0, 1, 0] = 1.0
        k = ad.constant(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(ad.constant(x), k, zero_bias(k)).data[0, 0]
        assert out[1, 5] == 1.0  # wrapped across longitude
        assert out[0, 0] == 1.0  # zero padding above top row contributes nothing
        x2 = np.zeros((1, 1, 4, 6))
        x2[0, 0, 0, 2] = 1.0
        out2 = ad.conv2d(ad.constant(x2), k, zero_bias(k)).data[0, 0]
        assert out2[3, 2] == 0.0  # no latitude wrap

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_grads_stride1(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (1, 2, 6, 6))
        w = random_param(rng, (3, 2, 3, 3), scale=0.5)
        b = random_param(rng, (3,))
        check_grads(
            lambda: ad.weighted_mse(ad.conv2d(x, w, b), np.zeros((1, 3, 6, 6)), 1.0), [x, w, b]
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_grads_stride2(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (2, 2, 6, 8))
        w = random_param(rng, (3, 2, 3, 3), scale=0.5)
        b = random_param(rng, (3,))
        check_grads(
            lambda: ad.weighted_mse(ad.conv2d(x, w, b, stride=2), np.zeros((2, 3, 3, 4)), 1.0),
            [x, w, b],
        )


class TestConv3d:
    def test_temporal1_reduces_to_conv2d(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 4, 6, 6))
        w = rng.standard_normal((3, 2, 1, 3, 3))
        out3 = ad.conv3d(ad.constant(x), ad.constant(w), zero_bias(w)).data
        for t in range(4):
            out2 = ad.conv2d(ad.constant(x[:, :, t]), ad.constant(w[:, :, 0]), zero_bias(w)).data
            np.testing.assert_allclose(out3[:, :, t], out2, atol=1e-12)

    def test_temporal_stride_halves(self):
        x = ad.constant(np.zeros((1, 1, 8, 4, 4)))
        w = ad.constant(np.zeros((1, 1, 2, 3, 3)))
        out = ad.conv3d(x, w, zero_bias(w), stride_t=2)
        assert out.data.shape[2] == 4  # floor((8 - 2) / 2) + 1

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (1, 2, 5, 4, 4))
        w = random_param(rng, (2, 2, 2, 3, 3), scale=0.5)
        b = random_param(rng, (2,))

        def loss():
            out = ad.conv3d(x, w, b, stride_t=2, stride_hw=2)
            return ad.weighted_mse(out, np.zeros(out.data.shape), 1.0)

        check_grads(loss, [x, w, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_grads_causal_pad(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (1, 2, 3, 4, 4))
        w = random_param(rng, (2, 2, 2, 1, 1), scale=0.5)

        def loss():
            out = ad.conv3d(x, w, zero_bias(w), pad_t=1)
            return ad.weighted_mse(out, np.zeros(out.data.shape), 1.0)

        check_grads(loss, [x, w])


class TestBiasFrames:
    """Output frames whose window lies wholly in the causal zero frames are ``0 + b``.

    The reference pads the same input with explicit zero frames and runs it
    at pad_t 0, so it computes every frame with a GEMM. At the "large" size
    every forward and input-gradient GEMM has an M * N above OpenBLAS's
    small-matrix switch (about 1,250), so the two sides agree to the byte;
    at "small" they may round otherwise, within ``TestConvValues`` tolerance.
    """

    SIZES = {"large": ((2, 8, 3, 16, 16), 8), "small": ((1, 3, 3, 4, 6), 4)}
    CASES = [(kt, st, kt + extra) for kt in (2, 3) for st in (1, 2) for extra in (-1, 0, 1, 2)]

    @staticmethod
    def n_bias(t, pad_t, kt, st):
        """The output frames m whose window, padded frames st*m ... st*m + kt - 1, is all zero frames."""
        return sum(st * m + kt <= pad_t for m in range((t + pad_t - kt) // st + 1))

    @staticmethod
    def conv_and_reference(xshape, o, kt, st, pad_t, dtype):
        """b, then (out, x grad, w grad, b grad) of the conv and of its explicit-zero reference."""
        rng = np.random.default_rng(100 * kt + 10 * st + pad_t)
        x = rng.standard_normal(xshape).astype(dtype)
        w = (0.3 * rng.standard_normal((o, xshape[1], kt, 3, 3))).astype(dtype)
        b = rng.standard_normal(o).astype(dtype)
        x_zeros = np.concatenate([np.zeros(xshape[:2] + (pad_t,) + xshape[3:], dtype), x], axis=2)
        sides = []
        for x_in, pad in ((x, pad_t), (x_zeros, 0)):
            xt, wt, bt = (ad.Tensor(a.copy(), requires_grad=True) for a in (x_in, w, b))
            out = ad.conv3d(xt, wt, bt, st, 1, pad)
            ad.weighted_mse(out, np.zeros(out.data.shape), 1.0).backward()
            sides.append((out.data, xt.grad[:, :, x_in.shape[2] - xshape[2] :], wt.grad, bt.grad))
        return b, sides

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", ["large", "small"])
    @pytest.mark.parametrize("kt,st,pad_t", CASES)
    def test_matches_explicit_zero_frames(self, kt, st, pad_t, size, dtype):
        xshape, o = self.SIZES[size]
        b, ((out, *grads), (ref, *ref_grads)) = self.conv_and_reference(xshape, o, kt, st, pad_t, dtype)
        assert out.dtype == dtype and out.shape == ref.shape
        n = self.n_bias(xshape[2], pad_t, kt, st)
        assert n == (max(0, (pad_t - kt) // st + 1))
        bias = np.zeros_like(out[:, :, :n]) + b[:, None, None, None]
        assert out[:, :, :n].tobytes() == bias.tobytes()
        for got, want in zip([out[:, :, n:], *grads], [ref[:, :, n:], *ref_grads]):
            assert got.dtype == want.dtype and got.shape == want.shape
            if size == "large":
                assert got.tobytes() == want.tobytes()
            else:
                tol = TestConvValues.TOL[dtype] * np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("kt,st,pad_t", CASES)
    def test_grads(self, kt, st, pad_t):
        rng = np.random.default_rng(kt + st + pad_t)
        x = random_param(rng, (1, 2, 3, 4, 5))
        w = random_param(rng, (3, 2, kt, 3, 3), scale=0.5)
        b = random_param(rng, (3,))

        def loss():
            out = ad.conv3d(x, w, b, st, 1, pad_t)
            return ad.weighted_mse(out, np.ones(out.data.shape), 1.0)

        check_grads(loss, [x, w, b])

    @pytest.mark.parametrize("kt,st,pad_t", CASES)
    def test_corr_sees_only_rows_past_the_bias_frames(self, monkeypatch, kt, st, pad_t):
        seen = []
        corr = ad._corr

        def recording(x, w, strides):
            seen.append(x.shape[2])
            return corr(x, w, strides)

        monkeypatch.setattr(ad, "_corr", recording)
        t = 3
        w = np.ones((3, 2, kt, 3, 3))
        ad.conv3d(ad.constant(np.ones((1, 2, t, 4, 6))), ad.constant(w), zero_bias(w), st, 1, pad_t)
        assert seen == [t + pad_t - st * self.n_bias(t, pad_t, kt, st)]

    # (T, kt, stride_t, pad_t): every window in the zero frames; a stride past
    # kt, with and without a bias frame; one computed frame behind four.
    @pytest.mark.parametrize("t,kt,st,pad_t", [(1, 2, 2, 2), (2, 1, 3, 2), (3, 2, 3, 4), (1, 2, 1, 5)])
    def test_edge_cases_match_reference(self, t, kt, st, pad_t):
        rng = np.random.default_rng(t + kt + st + pad_t)
        x = rng.standard_normal((2, 3, t, 4, 6))
        w = rng.standard_normal((4, 3, kt, 3, 3))
        b = rng.standard_normal(4)
        out = ad.conv3d(ad.constant(x), ad.constant(w), ad.constant(b), st, 1, pad_t).data
        ref = reference_conv(x, w, (st, 1, 1), pad_t=pad_t) + b[:, None, None, None]
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=0, atol=TestConvValues.TOL[np.float64] * np.abs(ref).max())


class TestSpectralOps:
    @pytest.mark.parametrize("seed", range(8))
    def test_lowpass2d_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = random_param(rng, (1, 2, 8, 8))
        t = rng.standard_normal((1, 2, 8, 8))
        check_grads(lambda: ad.weighted_mse(ad.lowpass2d(x, 0.6), t, 1.0), [x])

    def test_lowpass2d_matches_spectral(self):
        from nimbus import spectral

        x = np.random.default_rng(0).standard_normal((1, 1, 16, 16))
        out = ad.lowpass2d(ad.constant(x), 0.5).data
        ref = spectral.lowpass(x[0, 0], 0.5)
        np.testing.assert_allclose(out[0, 0], ref, atol=1e-12)


class TestGraph:
    def test_backward_requires_scalar(self):
        x = ad.param(np.ones((2, 2)))
        with pytest.raises(DomainError):
            ad.add(x, x).backward()

    def test_nan_rejected_at_leaf(self):
        with pytest.raises(DomainError):
            ad.constant(np.array([1.0, np.nan]))

    def test_loss_invariant_under_graph_order(self):
        rng = np.random.default_rng(0)
        a, b, c = (ad.constant(rng.standard_normal((8, 8))) for _ in range(3))
        l1 = total(ad.add(ad.add(a, b), c))
        l2 = total(ad.add(a, ad.add(b, c)))
        assert float(l1.data) == pytest.approx(float(l2.data), abs=1e-6)


def small_conv_net(rng):
    """Params plus a scalar loss over conv2d, conv3d, rmsnorm and silu."""
    p = {
        "w2": random_param(rng, (3, 2, 3, 3), 0.5),
        "b2": random_param(rng, (3,), 0.1),
        "w3": random_param(rng, (2, 3, 2, 3, 3), 0.5),
        "g": random_param(rng, (2,)),
    }
    x2 = ad.constant(rng.standard_normal((2, 2, 5, 6)))

    def loss():
        h = ad.silu(ad.conv2d(x2, p["w2"], p["b2"]))
        h = ad.reshape(h, (1, 3, 2, 5, 6))
        h = ad.rmsnorm(ad.conv3d(h, p["w3"], zero_bias(p["w3"]), pad_t=1), p["g"], axis=1)
        return total(ad.square(h))

    return p, loss


class TestRelease:
    def test_backward_frees_an_intermediate_while_the_loss_is_held(self):
        rng = np.random.default_rng(5)
        x = ad.constant(rng.standard_normal((2, 2, 5, 6)))
        w, b = random_param(rng, (3, 2, 3, 3), 0.5), random_param(rng, (3,), 0.1)
        h = ad.conv2d(x, w, b)
        activation = weakref.ref(h.data)
        loss = total(ad.square(ad.silu(h)))
        del h
        assert activation() is not None  # the graph holds it until backward
        loss.backward()
        assert activation() is None
        assert loss.data.size == 1 and w.grad is not None and b.grad is not None

    def test_second_backward_raises_before_any_gradient(self):
        p, make_loss = small_conv_net(np.random.default_rng(6))
        loss = make_loss()
        loss.backward()
        first = {k: t.grad.copy() for k, t in p.items()}
        with pytest.raises(DomainError, match="released"):
            loss.backward()
        for k, t in p.items():
            np.testing.assert_array_equal(t.grad, first[k])

    def test_new_graph_through_a_released_node_gives_no_partial_gradients(self):
        rng = np.random.default_rng(7)
        x, w = param64(rng.standard_normal(4)), param64(rng.standard_normal(4))
        y = ad.square(x)
        total(y).backward()
        grad_x = x.grad.copy()
        # y's graph is released; y looks like a leaf but must not act as one.
        with pytest.raises(DomainError, match="released"):
            total(ad.mul(y, w)).backward()
        assert w.grad is None
        np.testing.assert_array_equal(x.grad, grad_x)


class TestNoGrad:
    def test_keeps_no_parents_or_closures(self):
        p, loss = small_conv_net(np.random.default_rng(0))
        with ad.no_grad():
            assert not ad.grad_enabled()
            out = loss()
            h = ad.conv2d(ad.constant(np.ones((1, 2, 4, 4))), p["w2"], p["b2"])
        for t in (out, h):
            assert t._parents == () and t._backward is None and not t.requires_grad
        assert ad.grad_enabled()
        assert loss()._parents != ()

    def test_values_match_graph_mode(self):
        _, loss = small_conv_net(np.random.default_rng(1))
        with ad.no_grad():
            off = loss().data
        np.testing.assert_array_equal(off, loss().data)

    def test_leaf_check_stays(self):
        with ad.no_grad():
            with pytest.raises(DomainError):
                ad.constant(np.array([1.0, np.inf]))

    def test_gradients_unchanged_after_context(self):
        p, loss = small_conv_net(np.random.default_rng(2))
        loss().backward()
        before = {k: t.grad.copy() for k, t in p.items()}
        for t in p.values():
            t.grad = None
        with ad.no_grad():
            loss()
        loss().backward()
        for k, t in p.items():
            np.testing.assert_array_equal(t.grad, before[k])

    def test_restored_after_exception(self):
        with pytest.raises(DomainError):
            with ad.no_grad():
                ad.constant(np.array([np.nan]))
        assert ad.grad_enabled()

    def test_flag_is_per_thread(self):
        import threading

        seen = {}
        x = ad.param(np.ones(3))

        def other():
            seen["enabled"] = ad.grad_enabled()
            seen["parents"] = len(ad.square(x)._parents)
            with ad.no_grad():
                seen["inner"] = ad.grad_enabled()
                seen["release"].wait(timeout=10)

        seen["release"] = threading.Event()
        with ad.no_grad():
            t = threading.Thread(target=other)
            t.start()
            while "inner" not in seen and t.is_alive():
                t.join(timeout=0.01)
        # The other thread now waits inside its own no_grad; ours records.
        assert ad.grad_enabled()
        assert len(ad.square(x)._parents) == 1
        seen["release"].set()
        t.join(timeout=10)
        assert not t.is_alive()
        assert seen["enabled"] is True and seen["parents"] == 1 and seen["inner"] is False


class TestGradSink:
    def test_leaf_gradients_go_to_the_sink(self):
        p, loss = small_conv_net(np.random.default_rng(3))
        loss().backward()
        expect = {k: t.grad for k, t in p.items()}
        for t in p.values():
            t.grad = None
        with ad.grad_sink() as sink:
            loss().backward()
        assert all(t.grad is None for t in p.values())
        for k, t in p.items():
            np.testing.assert_array_equal(sink[t], expect[k])

    def test_concurrent_backward_leaves_shared_grad_untouched(self):
        p, loss = small_conv_net(np.random.default_rng(4))
        loss().backward()
        expect = {k: t.grad for k, t in p.items()}
        for t in p.values():
            t.grad = None
        both_built = threading.Barrier(2)
        sinks = [None, None]

        def shard(i):
            with ad.grad_sink() as sink:
                out = loss()
                both_built.wait(timeout=10)
                out.backward()
            sinks[i] = sink

        threads = [threading.Thread(target=shard, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(t.grad is None for t in p.values())
        for sink in sinks:
            for k, t in p.items():
                np.testing.assert_array_equal(sink[t], expect[k])

    def test_mean_grad_step_does_not_depend_on_workers(self, monkeypatch):
        rng = np.random.default_rng(5)
        params = {"w": random_param(rng, (3, 2, 3, 3), 0.5), "g": random_param(rng, (3,))}
        xs = rng.standard_normal((8, 1, 2, 5, 6))

        def loss_of(b):
            h = ad.silu(ad.conv2d(ad.constant(xs[b]), params["w"], zero_bias(params["w"])))
            return ad.mean_all(ad.square(ad.rmsnorm(h, params["g"], axis=1)))

        serial_loss, serial = first_step(monkeypatch, params, loss_of, len(xs), 1)
        # An even split, an uneven one, and one sample per process.
        for workers in (2, 3, 8):
            loss, grads = first_step(monkeypatch, params, loss_of, len(xs), workers)
            assert loss == serial_loss
            for k in params:
                np.testing.assert_array_equal(grads[k], serial[k])
            assert_no_child_left()

    def test_nested_sink_restores_the_outer_one(self):
        x = ad.param(np.array([1.0, 2.0]))
        with ad.grad_sink() as outer:
            with ad.grad_sink() as inner:
                total(ad.square(x)).backward()
            total(x).backward()
        np.testing.assert_array_equal(inner[x], [2.0, 4.0])
        np.testing.assert_array_equal(outer[x], [1.0, 1.0])
        assert x.grad is None


class TestWorkers:
    def test_results_in_item_order(self):
        out = ad.shared_empty((7,), np.int64)
        with ad.Workers(3, 7, "test") as procs:
            procs.map(lambda i: out.__setitem__(i, i * i), 7)
        assert out.tolist() == [i * i for i in range(7)]
        assert_no_child_left()

    def test_every_process_runs_the_block(self):
        pids = ad.shared_empty((3,), np.int64)
        with ad.Workers(5, 3, "test") as procs:
            pids[procs.w] = os.getpid()
            procs.map(lambda i: None, 3)
        assert pids[0] == os.getpid() and len(set(pids.tolist())) == 3
        assert_no_child_left()

    @pytest.mark.parametrize("first", [1, 2])  # in a child, in this process
    def test_first_failing_item_raises(self, first):
        def fail_from(i):
            if i >= first:
                raise DomainError(f"item {i}")

        with pytest.raises(DomainError, match=f"^item {first}$"):
            with ad.Workers(2, 5, "test") as procs:
                procs.map(fail_from, 5)
        assert_no_child_left()

    @pytest.mark.parametrize("workers,items", [(1, 5), (4, 1)])
    def test_one_worker_runs_here(self, workers, items):
        with ad.Workers(workers, items, "test") as procs:
            assert (procs.n, procs.w) == (1, 0)
            assert_no_child_left()


class TestAdamW:
    def test_zero_grad_zero_decay_no_change(self):
        p = ad.param(np.array([1.0, 2.0]))
        opt = ad.AdamW({"p": p}, lr=0.1)
        opt.step()  # grad is None -> untouched
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_descends_quadratic(self):
        p = ad.param(np.array(1.0))
        opt = ad.AdamW({"p": p}, lr=0.1)
        loss = ad.square(p)
        loss.backward()
        opt.step()
        assert float(p.data) < 1.0

    def test_converges_on_convex_quadratic(self):
        rng = np.random.default_rng(0)
        target = rng.standard_normal(6)
        p = ad.param(np.zeros(6))
        opt = ad.AdamW({"p": p}, lr=0.05)
        for _ in range(200):
            loss = ad.weighted_mse(p, target, 1.0)
            p.grad = None
            loss.backward()
            opt.step()
        assert float(ad.weighted_mse(p, target, 1.0).data) < 1e-4

    def test_decoupled_weight_decay(self):
        p = ad.param(np.array([10.0]))
        opt = ad.AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        # Pure decay: p - lr * wd * p (Adam term is 0/(0+eps) = 0).
        assert float(p.data[0]) == pytest.approx(10.0 - 0.1 * 0.5 * 10.0)


def nan_at(step, sample=None):
    """A ``TestFit`` hook: the loss of ``sample`` (all if None) at ``step`` is NaN."""

    def hook(s, b, loss):
        # Scaling by NaN raises no RuntimeWarning: backward() is the first to see it.
        hit = s == step and sample in (None, b)
        return ad.scale(loss, np.nan) if hit else loss

    return hook


class TestFit:
    """``ad.fit``: one ``draw()`` per step in every process, then one ``mean_grad_step``."""

    BATCH = 3

    def problem(self, log=None, hook=None):
        """Parameters and a ``draw`` whose loss at (step, sample) is ``hook(step, b, loss)``.

        With a ``log`` path, every process appends a "draw step pid thread"
        line per draw and a "loss step b pid thread" line per loss to it,
        each in one write.
        """
        rng = np.random.default_rng(7)
        params = {"w": ad.param(rng.standard_normal((3, 2, 3, 3))), "g": ad.param(np.ones(3))}
        xs = rng.standard_normal((6, 1, 2, 5, 6)).astype(np.float32)
        steps = [0]  # this process's draws so far

        def note(*fields):
            if log is not None:
                with open(log, "a") as fh:
                    fh.write(" ".join(map(str, (*fields, os.getpid(), threading.get_ident()))) + "\n")

        def draw():
            steps[0] += 1
            step = steps[0]
            note("draw", step)
            idx = rng.integers(0, len(xs), size=self.BATCH)

            def loss_of(b):
                note("loss", step, b)
                h = ad.conv2d(ad.constant(xs[idx[b]]), params["w"], zero_bias(params["w"]))
                loss = ad.mean_all(ad.square(ad.rmsnorm(ad.silu(h), params["g"], axis=1)))
                return loss if hook is None else hook(step, b, loss)

            return loss_of

        return params, draw

    def fit(self, iters, workers, log=None, hook=None):
        params, draw = self.problem(log, hook)
        cfg = {"iters": iters, "batch": self.BATCH, "lr": 1e-2}
        return ad.fit(params, cfg, draw, workers), params

    @pytest.mark.parametrize("iters", [0, 4])
    def test_one_draw_per_step_in_order_on_the_calling_thread(self, iters, tmp_path):
        log = tmp_path / "events"
        log.touch()
        losses, _ = self.fit(iters, workers=3, log=log)
        assert len(losses) == iters and all(np.isfinite(losses))
        events = {}  # pid -> [(kind, step, sample)] in that process's order
        threads = set()
        for line in log.read_text().splitlines():
            kind, *nums, thread = line.split()
            *fields, pid = map(int, nums)
            events.setdefault(pid, []).append((kind, *fields))
            if pid == os.getpid() and kind == "draw":
                threads.add(int(thread))
        # Every process draws once per step, in step order, before that step's losses.
        assert len(events) == (3 if iters else 0)
        for seq in events.values():
            draws = [step for kind, step, *_ in seq if kind == "draw"]
            assert draws == list(range(1, iters + 1))
            last = 0
            for kind, step, *_ in seq:
                last = step if kind == "draw" else last
                assert step == last
        assert threads <= {threading.get_ident()}
        # Every sample's loss exactly once per step, across the processes.
        done = [e[1:] for seq in events.values() for e in seq if e[0] == "loss"]
        assert sorted(done) == [(s, b) for s in range(1, iters + 1) for b in range(self.BATCH)]
        assert_no_child_left()

    def test_curve_and_parameters_do_not_depend_on_workers(self):
        serial_losses, serial = self.fit(4, workers=1)
        for workers in (2, 3):
            losses, params = self.fit(4, workers)
            assert losses == serial_losses
            for k, p in params.items():
                np.testing.assert_array_equal(p.data, serial[k].data, err_msg=k)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_non_finite_loss_names_the_step(self, workers):
        with pytest.raises(DomainError, match=r"^training step 3 of 5: loss is non-finite$"):
            self.fit(5, workers, hook=nan_at(3))
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_non_finite_loss_of_one_sample_names_the_step(self, workers):
        # At 3 workers sample 1 runs in a child.
        with pytest.raises(DomainError, match=r"^training step 3 of 5: loss is non-finite$"):
            self.fit(5, workers, hook=nan_at(3, sample=1))
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_adamw_overflow_names_the_step(self, workers):
        # Sample 1's gradient squares past float32's range in every process's AdamW.
        def huge(step, b, loss):
            return ad.scale(loss, 1e30) if (step, b) == (2, 1) else loss

        pattern = r"^training step 2 of 5: AdamW second moment of parameter 'w' is non-finite$"
        with pytest.raises(DomainError, match=pattern):
            self.fit(5, workers, hook=huge)
        assert_no_child_left()

    def test_interrupted_fit_leaves_no_child(self):
        # Sample 1's process would run for a minute; the interrupt in sample 0 ends it at once.
        def interrupt(step, b, loss):
            if step == 2 and b == 0:
                raise KeyboardInterrupt
            if step == 2:
                time.sleep(60)
            return loss

        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.fit(5, workers=2, hook=interrupt)
        assert time.monotonic() - t0 < 30
        assert_no_child_left()

    def test_killed_training_process_is_reported(self):
        parent = os.getpid()

        def kill_child(step, b, loss):
            if step == 2 and b == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return loss

        with pytest.raises(RuntimeError, match=r"^training process 1 ended with code -9$"):
            self.fit(5, workers=3, hook=kill_child)
        assert_no_child_left()


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "a.w": ad.param(rng.standard_normal((2, 3)).astype(np.float32)),
            "b": ad.param(np.float32(rng.standard_normal(4))),
        }
        path = tmp_path / "ckpt.pypt"
        ad.save_params(params, path)
        back = ad.load_params(path)
        assert set(back) == {"a.w", "b"}
        np.testing.assert_array_equal(back["a.w"], params["a.w"].data.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pypt"
        path.write_bytes(b"NOTMAGIC")
        with pytest.raises(FormatError):
            ad.load_params(path)

    def test_truncated_payload_names_the_missing_bytes(self, tmp_path):
        ad.save_params({"enc0.w": ad.param(np.zeros((3, 4)))}, tmp_path / "c.pypt")
        blob = (tmp_path / "c.pypt").read_bytes()
        (tmp_path / "c.pypt").write_bytes(blob[:-3])
        with pytest.raises(FormatError, match="truncated tensor enc0.w payload: need 3 more bytes"):
            ad.load_params(tmp_path / "c.pypt")

    def test_assign_checks_shapes(self, tmp_path):
        params = {"w": ad.param(np.zeros((2, 2)))}
        ad.save_params(params, tmp_path / "c.pypt")
        arrays = ad.load_params(tmp_path / "c.pypt")
        other = {"w": ad.param(np.zeros((3, 3)))}
        with pytest.raises(FormatError):
            ad.assign_params(other, arrays)
        extra = {**arrays, "stale.b": np.zeros(2, np.float32)}
        with pytest.raises(FormatError, match="stale.b"):
            ad.assign_params(params, extra)

    def test_non_utf8_tensor_name(self, tmp_path):
        ad.save_params({"ab": ad.param(np.zeros(2))}, tmp_path / "c.pypt")
        blob = (tmp_path / "c.pypt").read_bytes()
        (tmp_path / "c.pypt").write_bytes(blob.replace(b"ab", b"\xff\xfe", 1))
        with pytest.raises(FormatError, match="not valid UTF-8") as info:
            ad.load_params(tmp_path / "c.pypt")
        assert info.value.offset == 10
