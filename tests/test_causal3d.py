import numpy as np
import pytest

from nimbus import autodiff as ad
from nimbus import causal3d
from nimbus.errors import DomainError


@pytest.fixture(autouse=True)
def float64_mode():
    with ad.use_dtype(np.float64):
        yield


def small_stack(seed=0, v=2, cz=3):
    rng = np.random.default_rng(seed)
    return causal3d.build_stack(
        rng,
        in_channels=v,
        channels=(4, 5),
        latent_channels=cz,
        spatial_strides=(1, 1),
    )


def window(seed=0, b=1, v=2, k=4, h=6, w=8):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, v, k + 1, h, w))


class TestPadAndMask:
    def test_k4_masked_frames(self):
        x = ad.constant(np.ones((1, 1, 5, 4, 4)))
        padded = causal3d.pad_and_mask(x, mask_last=True)
        assert padded.data.shape[2] == 8
        np.testing.assert_array_equal(padded.data[:, :, :3], 0.0)
        np.testing.assert_array_equal(padded.data[:, :, 7], 0.0)
        np.testing.assert_array_equal(padded.data[:, :, 3:7], 1.0)

    def test_no_mask_preserves_last(self):
        arr = window(seed=1)
        padded = causal3d.pad_and_mask(ad.constant(arr), mask_last=False)
        np.testing.assert_array_equal(padded.data[:, :, 3:], arr)

    def test_k2_length(self):
        x = ad.constant(np.zeros((1, 1, 3, 4, 4)))
        assert causal3d.pad_and_mask(x, True).data.shape[2] == 6

    def test_odd_k_rejected(self):
        x = ad.constant(np.zeros((1, 1, 4, 4, 4)))
        with pytest.raises(DomainError):
            causal3d.pad_and_mask(x, True)


class TestEncodeFull:
    def test_output_length_law(self):
        stack = small_stack()
        for k in (2, 4, 6):
            z = causal3d.encode_full(ad.constant(window(k=k)), stack)
            assert z.data.shape[2] == 1 + k // 2

    def test_zero_input_no_bias_gives_zero(self):
        stack = small_stack()
        x = ad.constant(np.zeros((1, 2, 5, 6, 8)))
        z = causal3d.encode_full(x, stack)
        np.testing.assert_array_equal(z.data, 0.0)

    def test_matches_monolithic_conv_oracle(self):
        # Direct valid conv over the full padded sequence, built by hand.
        stack = small_stack(seed=3)
        x = window(seed=3)
        got = causal3d.encode_full(ad.constant(x), stack, mask_last=True).data

        padded = np.concatenate([np.zeros_like(x[:, :, :3]), x], axis=2)
        padded[:, :, -1] = 0.0
        h = padded
        for i, sp in enumerate(stack.specs):
            w, b = stack.layer(i)
            out = ad.conv3d(
                ad.constant(h), ad.constant(w.data), None,
                stride_t=sp.stride_t, stride_hw=sp.stride_hw,
            ).data
            if b is not None:
                out = out + b.data[None, :, None, None, None]
            h = out / (1.0 + np.exp(-out)) if sp.activation else out
        np.testing.assert_allclose(got, h, atol=1e-5)

    def test_masked_frame_never_read(self):
        stack = small_stack(seed=4)
        x = window(seed=4)
        x2 = x.copy()
        x2[:, :, -1] = np.random.default_rng(99).standard_normal(x2[:, :, -1].shape)
        z1 = causal3d.encode_full(ad.constant(x), stack, mask_last=True).data
        z2 = causal3d.encode_full(ad.constant(x2), stack, mask_last=True).data
        np.testing.assert_array_equal(z1, z2)

    def test_mask_blocks_gradient(self):
        stack = small_stack(seed=5)
        x = ad.param(window(seed=5))
        z = causal3d.encode_full(x, stack, mask_last=True)
        ad.sum_all(ad.square(z)).backward()
        np.testing.assert_array_equal(x.grad[:, :, -1], 0.0)
        assert np.abs(x.grad[:, :, :-1]).max() > 0

    def test_strict_causality_exact(self):
        # Perturbing the frames of stage s+1 leaves outputs through stage s
        # bitwise unchanged.
        stack = small_stack(seed=10)
        x = window(seed=10, k=4)
        base = causal3d.encode_full(ad.constant(x), stack, mask_last=False).data
        rng = np.random.default_rng(11)
        for stage in (2, 3):
            x2 = x.copy()
            # Stage s ingests original frames 2s-3 and 2s-2 (0-indexed input).
            first_new = 2 * stage - 3
            x2[:, :, first_new:] = rng.standard_normal(x2[:, :, first_new:].shape)
            out2 = causal3d.encode_full(ad.constant(x2), stack, mask_last=False).data
            np.testing.assert_array_equal(base[:, :, : stage - 1], out2[:, :, : stage - 1])

    def test_jacobian_sparsity(self):
        # Output frame j responds only to padded frames <= 2j+3 (0-indexed),
        # i.e. <= 2j+1 for 1-indexed outputs as stated.
        stack = small_stack(seed=12)
        x = window(seed=12, k=4)
        base = causal3d.encode_full(ad.constant(x), stack, mask_last=False).data
        for frame in range(5):  # original frame index = padded index - 3
            x2 = x.copy()
            x2[:, :, frame] += 1.0
            out = causal3d.encode_full(ad.constant(x2), stack, mask_last=False).data
            changed = [
                j
                for j in range(base.shape[2])
                if np.abs(out[:, :, j] - base[:, :, j]).max() > 0
            ]
            padded_idx = frame + 3
            for j in changed:
                assert padded_idx <= 2 * j + 3


class TestStackValidation:
    def test_single_strided_layer_enforced(self):
        stack = small_stack()
        specs = [causal3d.LayerSpec(4, 2, 1, 1, 3, True) for _ in range(2)]
        with pytest.raises(DomainError):
            causal3d.CausalStack(params=stack.params, specs=specs, in_channels=2)

    def test_build_spatial_factor(self):
        rng = np.random.default_rng(0)
        stack = causal3d.build_stack(rng, 2, channels=(4, 4), spatial_strides=(2, 2))
        x = rng.standard_normal((1, 2, 5, 8, 16)).astype(np.float32)
        z = causal3d.encode_full(ad.constant(x), stack).data
        assert z.shape[-2:] == (8 // 4, 16 // 4)
