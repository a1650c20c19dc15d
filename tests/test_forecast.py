import numpy as np
import pytest

from nimbus import autodiff as ad
from nimbus import edm, forecast, grid, models, pipeline
from nimbus.errors import RolloutError

K = 4
CZ = 4


@pytest.fixture(scope="module")
def tiny():
    """Untrained models at a 16x32, 3-variable grid with a 4-step sampler."""
    batch = grid.gen_synthetic(seed=3, h=16, w=32, v=3, t=16)
    bundle = pipeline.split_dataset(batch, train_frames=8, k=K)
    rng = np.random.default_rng(0)
    vae = models.Vae(3, models.VaeConfig(latent_channels=CZ, base_channels=4), rng)
    mae = models.Mae(
        3, models.MaeConfig(latent_channels=CZ, channels=(4, 6), decoder_channels=4, k=K), rng
    )
    net = edm.Denoiser(
        edm.DenoiserConfig(latent_channels=CZ, hidden=6, blocks=1, t_frames=3 + K // 2, emb_dim=4),
        rng,
    )
    # The output projection is zero at init; give the network a say.
    net.params["headout.w"].data = (
        0.1 * rng.standard_normal(net.params["headout.w"].data.shape)
    ).astype(np.float32)
    fmodels = pipeline.build_models(
        vae, net, edm.EdmConfig(sigma_data=0.5, steps=4), bundle, K, "3dmae", mae
    )
    return fmodels, bundle


def run(tiny, **kw):
    fmodels, bundle = tiny
    return forecast.rollout(fmodels, bundle.init_window, base_seed=5, **kw)


def test_inference_is_float32_and_graph_free(tiny, monkeypatch):
    corr_inputs, states = [], []
    corr = ad._corr

    def recording_corr(x, w, strides):
        corr_inputs.append((x.dtype, w.dtype, ad.grad_enabled()))
        return corr(x, w, strides)

    make = edm.make_denoise_fn

    def recording_make(*args, **kwargs):
        denoise = make(*args, **kwargs)

        def wrapped(z_noisy, sigma):
            states.append(z_noisy.dtype)
            out = denoise(z_noisy, sigma)
            assert out.dtype == np.float32
            return out

        return wrapped

    monkeypatch.setattr(ad, "_corr", recording_corr)
    monkeypatch.setattr(edm, "make_denoise_fn", recording_make)
    ens = run(tiny, members=2, t_lead=2, stochastic=True)
    assert ens.fields.dtype == np.float32
    # 4 steps: 3 Heun steps of 2 calls plus a final Euler step of 1.
    f32 = np.dtype(np.float32)
    assert states == [f32] * (2 * 2 * 7)
    assert corr_inputs
    assert set(corr_inputs) == {(f32, f32, False)}


def test_streaming_rollout_is_graph_free(tiny, monkeypatch):
    modes = []
    conv3d = ad.conv3d

    def recording_conv3d(*args, **kwargs):
        modes.append(ad.grad_enabled())
        return conv3d(*args, **kwargs)

    monkeypatch.setattr(ad, "conv3d", recording_conv3d)
    run(tiny, members=1, t_lead=1, streaming=True)
    assert modes and not any(modes)


def test_workers_bit_identical(tiny):
    one = run(tiny, members=3, t_lead=2, workers=1)
    two = run(tiny, members=3, t_lead=2, workers=2)
    np.testing.assert_array_equal(one.fields, two.fields)
    assert len({one.fields[m].tobytes() for m in range(3)}) == 3


def test_member_reproducible_alone(tiny):
    ens = run(tiny, members=2, t_lead=2)
    alone = run(tiny, members=1, t_lead=2)
    np.testing.assert_array_equal(ens.fields[0], alone.fields[0])


def test_rollout_error_names_member_and_step(tiny, monkeypatch):
    # Members run in order on one worker, two leads each: the fourth
    # denoiser closure belongs to member 1 at step 1.
    make = edm.make_denoise_fn
    built = []

    def nan_from_fourth(*args, **kwargs):
        denoise = make(*args, **kwargs)
        built.append(None)
        if len(built) < 4:
            return denoise
        return lambda z, sigma: np.full_like(z, np.nan)

    monkeypatch.setattr(edm, "make_denoise_fn", nan_from_fourth)
    with pytest.raises(RolloutError) as info:
        run(tiny, members=3, t_lead=2, workers=1)
    assert (info.value.member, info.value.step) == (1, 1)
    assert "member 1, forecast step 1" in str(info.value)
