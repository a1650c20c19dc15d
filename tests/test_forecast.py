import dataclasses

import numpy as np
import pytest

from nimbus import autodiff as ad
from nimbus import edm, forecast, grid, models, pipeline
from nimbus.errors import RolloutError

K = 4
CZ = 4

# Thread-count getter of the OpenBLAS that runs numpy's GEMMs, if it is one.
NUMPY_BLAS_THREADS = next(
    (get for path, get, _ in ad._loaded_openblas() if "numpy" in path), None
)
needs_openblas = pytest.mark.skipif(
    NUMPY_BLAS_THREADS is None, reason="numpy's BLAS is not an OpenBLAS this process can find"
)


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
    fmodels = forecast.ForecastModels(
        vae=vae,
        denoiser=net,
        edm_config=edm.EdmConfig(sigma_data=0.5, steps=4),
        state_specs=bundle.state_specs,
        resid_specs=bundle.resid_specs,
        k=K,
        encoder=mae,
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
    fmodels, bundle = tiny
    churn = edm.EdmConfig(sigma_data=0.5, steps=4, s_churn=2.5)
    ens = run((dataclasses.replace(fmodels, edm_config=churn), bundle), members=2, t_lead=2)
    assert ens.fields.dtype == np.float32
    # 4 steps: one denoiser call each.
    f32 = np.dtype(np.float32)
    assert states == [f32] * (2 * 2 * 4)
    assert corr_inputs
    assert set(corr_inputs) == {(f32, f32, False)}


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


def blas_threads_seen(monkeypatch, fail=False):
    """Record numpy's BLAS thread count at every denoiser call."""
    seen = []
    make = edm.make_denoise_fn

    def recording_make(*args, **kwargs):
        denoise = make(*args, **kwargs)

        def wrapped(z_noisy, sigma):
            seen.append(NUMPY_BLAS_THREADS())
            return np.full_like(z_noisy, np.nan) if fail else denoise(z_noisy, sigma)

        return wrapped

    monkeypatch.setattr(edm, "make_denoise_fn", recording_make)
    return seen


@needs_openblas
def test_member_threads_divide_blas_threads(tiny, monkeypatch):
    before = NUMPY_BLAS_THREADS()
    seen = blas_threads_seen(monkeypatch)
    run(tiny, members=2, t_lead=1, workers=2)
    assert seen and set(seen) == {max(1, before // 2)}
    assert NUMPY_BLAS_THREADS() == before


@needs_openblas
def test_blas_threads_restored_after_rollout_error(tiny, monkeypatch):
    before = NUMPY_BLAS_THREADS()
    seen = blas_threads_seen(monkeypatch, fail=True)
    with pytest.raises(RolloutError):
        run(tiny, members=2, t_lead=1, workers=2)
    assert seen and set(seen) == {max(1, before // 2)}
    assert NUMPY_BLAS_THREADS() == before


@needs_openblas
def test_lone_member_keeps_blas_threads(tiny, monkeypatch):
    before = NUMPY_BLAS_THREADS()
    seen = blas_threads_seen(monkeypatch)
    run(tiny, members=1, t_lead=1, workers=2)
    assert seen and set(seen) == {before}


@pytest.mark.parametrize("encoder", ["mae", "frame_ae", "none"])
def test_training_and_rollout_condition_alike(tiny, encoder, monkeypatch):
    """Row i of the training z_bar is what a member at train frame t = k + i samples with.

    Both paths hand the encoder the same windows, bit for bit. Training
    encodes them 4 at a time and the rollout one at a time; OpenBLAS may
    pick another GEMM kernel for another row count, so encoded z_bar agree
    to float32 rounding, and the zeros of no encoder bit for bit. The
    residual that the VAE encodes for the member's first z_prev is row t - 1
    of the training residual frames, bit for bit.
    """
    fmodels, bundle = tiny
    enc = {
        "mae": fmodels.encoder,
        "frame_ae": models.FrameAe(3, CZ, np.random.default_rng(1), base=4),
        "none": None,
    }[encoder]
    fmodels = dataclasses.replace(fmodels, encoder=enc)
    inputs = {"train": [], "rollout": []}
    phase = ["train"]
    if enc is not None:
        encode = enc.encode_array

        def recording_encode(x, *args, **kwargs):
            inputs[phase[0]].append(x.copy())
            return encode(x, *args, **kwargs)

        monkeypatch.setattr(enc, "encode_array", recording_encode)
    resid_std = grid.standardized_residuals(bundle.train, bundle.resid_specs)
    z_all = pipeline.residual_latents(fmodels.vae, resid_std)
    states_std = grid.standardize_array(bundle.train, bundle.state_specs)
    z_bar_all = pipeline.conditioning_latents(enc, states_std, z_all, K)
    assert z_bar_all.shape[0] == bundle.train.shape[0] - 1 - K

    seen = []
    make = edm.make_denoise_fn

    def recording_make(net, z_bar, *args, **kwargs):
        seen.append(z_bar.copy())
        return make(net, z_bar, *args, **kwargs)

    monkeypatch.setattr(edm, "make_denoise_fn", recording_make)
    vae_inputs = []
    encode_mean = fmodels.vae.encode_mean

    def recording_encode_mean(x):
        vae_inputs.append(x.copy())
        return encode_mean(x)

    monkeypatch.setattr(fmodels.vae, "encode_mean", recording_encode_mean)
    phase[0] = "rollout"
    for i in range(z_bar_all.shape[0]):
        t = K + i
        window = bundle.train[t - K : t + 1]
        z_prev = forecast.init_member_state(fmodels, window)
        assert vae_inputs[-1].tobytes() == resid_std[t - 1 : t].tobytes(), f"row {i}"
        forecast.step(fmodels, window, z_prev, 0, np.random.default_rng(0))
        z_bar = seen[-1]
        assert z_bar.dtype == z_bar_all.dtype and z_bar.shape == (1,) + z_bar_all.shape[1:]
        if enc is None:
            assert z_bar.tobytes() == z_bar_all[i].tobytes(), f"row {i}"
        else:
            np.testing.assert_allclose(z_bar[0], z_bar_all[i], rtol=1e-5, atol=1e-6)

    train, rollout = inputs["train"], inputs["rollout"]
    assert len(rollout) == (0 if enc is None else z_bar_all.shape[0])
    if enc is not None:
        assert np.concatenate(rollout).tobytes() == np.concatenate(train).tobytes()
