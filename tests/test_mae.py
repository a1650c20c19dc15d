"""The causal 3D encoder of ``models.Mae``."""

import numpy as np
import pytest
from gradcheck import param64, to_float64, total

from nimbus import autodiff as ad
from nimbus import models
from nimbus.errors import ConfigError, DomainError


def small_mae(seed=0, v=2, cz=3, k=4, spatial_strides=(1, 1), channels=(4, 5)):
    cfg = models.MaeConfig(
        latent_channels=cz,
        channels=channels,
        spatial_strides=spatial_strides,
        decoder_channels=4,
        k=k,
    )
    mae = models.Mae(v, cfg, np.random.default_rng(seed))
    to_float64(mae.params)
    return mae


def window(seed=0, b=1, v=2, k=4, h=6, w=8):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, v, k + 1, h, w))


def encode(mae, x):
    return mae.encode(ad.constant(x)).data


class TestPadAndMask:
    """The three causal zero frames in front of the window."""

    def test_k2_length(self):
        # 3 zero frames + 3 window frames -> layer 0 -> 5 -> layer 1 -> 2 latent frames.
        mae = small_mae(k=2)
        assert encode(mae, window(k=2)).shape[2] == 2

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigError):
            small_mae(k=3)
        with pytest.raises(DomainError):
            small_mae(k=4).encode(ad.constant(window(k=3)))


class TestEncodeFull:
    def test_output_length_law(self):
        for k in (2, 4, 6):
            assert encode(small_mae(k=k), window(k=k)).shape[2] == 1 + k // 2

    def test_zero_input_no_bias_gives_zero(self):
        z = encode(small_mae(), np.zeros((1, 2, 5, 6, 8)))
        np.testing.assert_array_equal(z, 0.0)

    def test_matches_monolithic_conv_oracle(self):
        # Valid convs over the whole zero-padded sequence, built by hand.
        mae = small_mae(seed=3)
        x = window(seed=3)
        got = encode(mae, x)

        h = np.concatenate([np.zeros_like(x[:, :, :3]), x], axis=2)
        strides_t = (1, 2, 1)
        strides_hw = (*mae.cfg.spatial_strides, 1)
        for i, (st, shw) in enumerate(zip(strides_t, strides_hw)):
            w, b = mae.params[f"c3d{i}.w"], mae.params[f"c3d{i}.b"]
            out = ad.conv3d(ad.constant(h), w, b, stride_t=st, stride_hw=shw).data
            h = out / (1.0 + np.exp(-out)) if i < 2 else out
        np.testing.assert_allclose(got, h, atol=1e-5)

    def test_masked_frame_never_read(self):
        mae = small_mae(seed=4)
        x = window(seed=4)
        x2 = x.copy()
        x2[:, :, -1] = np.random.default_rng(99).standard_normal(x2[:, :, -1].shape)
        np.testing.assert_array_equal(encode(mae, x), encode(mae, x2))

    def test_mask_blocks_gradient(self):
        mae = small_mae(seed=5)
        x = param64(window(seed=5))
        total(ad.square(mae.encode(x))).backward()
        np.testing.assert_array_equal(x.grad[:, :, -1], 0.0)
        assert np.abs(x.grad[:, :, :-1]).max() > 0

    def test_strict_causality_exact(self):
        # Perturbing the frames of stage s+1 leaves outputs through stage s
        # bitwise unchanged.
        mae = small_mae(seed=10)
        x = window(seed=10, k=4)
        base = encode(mae, x)
        rng = np.random.default_rng(11)
        for stage in (2, 3):
            x2 = x.copy()
            # Stage s ingests original frames 2s-3 and 2s-2 (0-indexed input).
            first_new = 2 * stage - 3
            x2[:, :, first_new:] = rng.standard_normal(x2[:, :, first_new:].shape)
            out2 = encode(mae, x2)
            np.testing.assert_array_equal(base[:, :, : stage - 1], out2[:, :, : stage - 1])

    def test_jacobian_sparsity(self):
        # Output frame j responds only to padded frames <= 2j+3 (0-indexed),
        # i.e. <= 2j+1 for 1-indexed outputs as stated.
        mae = small_mae(seed=12)
        x = window(seed=12, k=4)
        base = encode(mae, x)
        for frame in range(5):  # original frame index = padded index - 3
            x2 = x.copy()
            x2[:, :, frame] += 1.0
            out = encode(mae, x2)
            changed = [
                j
                for j in range(base.shape[2])
                if np.abs(out[:, :, j] - base[:, :, j]).max() > 0
            ]
            padded_idx = frame + 3
            for j in changed:
                assert padded_idx <= 2 * j + 3


class TestLayer0BiasFrames:
    """Layer 0's first two frames read only causal zero frames, so they cost no GEMM."""

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_frames_0_and_1_are_silu_of_the_bias(self, monkeypatch, k):
        mae = small_mae(seed=k, k=k)
        b = np.random.default_rng(k).standard_normal(mae.params["c3d0.b"].data.shape)
        mae.params["c3d0.b"].data = b
        rows, acts = [], []
        corr, silu = ad._corr, ad.silu

        def recording_corr(x, w, strides):
            rows.append(x.shape[2])
            return corr(x, w, strides)

        def recording_silu(x):
            out = silu(x)
            acts.append(out.data)
            return out

        monkeypatch.setattr(ad, "_corr", recording_corr)
        monkeypatch.setattr(ad, "silu", recording_silu)
        want = silu(ad.constant(np.broadcast_to(b[:, None, None, None], (4, 2, 6, 8)))).data
        for scale in (1.0, 100.0):
            rows.clear()
            acts.clear()
            encode(mae, scale * window(seed=k, b=2, k=k))
            assert acts[0].shape[2] == k + 3
            for sample in acts[0][:, :, :2]:
                assert sample.tobytes() == want.tobytes()
            assert rows[0] == k + 2


class TestStackValidation:
    def test_build_spatial_factor(self):
        mae = small_mae(channels=(4, 4), spatial_strides=(2, 2))
        x = np.random.default_rng(0).standard_normal((1, 2, 5, 8, 16))
        assert encode(mae, x).shape[-2:] == (8 // 4, 16 // 4)
