"""Dataset preparation in ``pipeline``: the split, its statistics, the residual frames."""

import copy

import numpy as np
import pytest

from nimbus import cli, forecast, grid, pipeline
from nimbus.errors import ConfigError
from nimbus.regularize import Strategy

TRAIN, K = 6, 2


@pytest.fixture(scope="module")
def batch():
    # 6 train frames, a 3-frame init window and 3 truth frames.
    return grid.gen_synthetic(seed=1, h=8, w=16, v=3, t=12)


@pytest.fixture(scope="module")
def bundle(batch):
    return pipeline.split_dataset(batch, TRAIN, K)


def test_slices(batch, bundle):
    assert bundle.full is batch
    np.testing.assert_array_equal(bundle.train, batch.data[:TRAIN])
    np.testing.assert_array_equal(bundle.init_window.data, batch.data[TRAIN : TRAIN + K + 1])
    np.testing.assert_array_equal(bundle.truth, batch.data[TRAIN + K + 1 :])
    assert bundle.truth.shape[0] == 3
    # The train slice is a read-only view of the dataset, not a copy.
    assert np.shares_memory(bundle.train, batch.data) and not bundle.train.flags.writeable
    np.testing.assert_array_equal(bundle.init_window.lat, batch.lat)
    np.testing.assert_array_equal(bundle.init_window.lon, batch.lon)


def test_state_specs_come_from_the_train_slice(batch, bundle):
    train = batch.data[:TRAIN].astype(np.float64)
    for i, spec in enumerate(bundle.state_specs):
        assert spec.name == batch.specs[i].name
        assert spec.mean == train[:, i].mean()
        assert spec.std == train[:, i].std()
        # The dataset's own specs describe every frame, not the train slice.
        assert spec.mean != batch.specs[i].mean
    assert bundle.resid_specs == grid.residual_specs(bundle.train, batch.specs)


def test_split_fits_nothing(batch, monkeypatch):
    def forbidden(*args):
        raise AssertionError("split_dataset fitted statistics")

    monkeypatch.setattr(grid, "fit_specs", forbidden)
    split = pipeline.split_dataset(batch, TRAIN, K)
    # The init window keeps the dataset's own specs; rollouts take the models'.
    assert split.init_window.specs == batch.specs
    with pytest.raises(AssertionError, match="fitted"):
        split.state_specs


def test_weights(batch, bundle):
    cos = np.cos(np.deg2rad(batch.lat))
    np.testing.assert_array_equal(bundle.lat_w, cos / cos.mean())
    np.testing.assert_array_equal(bundle.var_w, [s.loss_weight for s in batch.specs])


def test_too_few_train_frames_rejected(batch):
    with pytest.raises(ConfigError, match="forecast.train_frames must be at least k \\+ 2 = 4"):
        pipeline.split_dataset(batch, K + 1, K)


def test_too_short_dataset_rejected(batch):
    with pytest.raises(ConfigError, match="dataset has 12 frames; need at least 13"):
        pipeline.split_dataset(batch, TRAIN + 3, K)


def test_standardized_residual_frames(bundle):
    got = grid.standardized_residuals(bundle.train, bundle.resid_specs)
    train = bundle.train
    assert got.dtype == np.float32
    assert got.shape == (TRAIN - 1,) + train.shape[1:]
    for i, spec in enumerate(bundle.resid_specs):
        diff = train[1:, i] - train[:-1, i]
        expect = (diff - np.float32(spec.mean)) / np.float32(spec.std)
        np.testing.assert_array_equal(got[:, i], expect)


def _same_bytes(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cond", pipeline.COND_MODES)
def test_latent_precompute_matches_one_batched_encode(bundle, cond):
    # The precompute encodes one sample per item, in worker processes: the
    # bytes are the same at 1 and 2 workers, and the same as one encode of
    # every row.
    config = copy.deepcopy(cli.DEFAULT_CONFIG)
    config["mae"]["k"] = K
    vae = pipeline.build_vae(bundle.train.shape[1], config["vae"], 3)
    encoder = {
        "3dmae": lambda: pipeline.build_mae(bundle.train.shape[1], config["mae"], 3),
        "2d": lambda: pipeline.build_mae(bundle.train.shape[1], config["mae"], 3, kt=1),
        "none": lambda: None,
    }[cond]()
    resid = grid.standardized_residuals(bundle.train, bundle.resid_specs)
    z_all = pipeline.residual_latents(vae, resid, workers=1)
    _same_bytes(pipeline.residual_latents(vae, resid, workers=2), z_all)
    _same_bytes(vae.encode_mean(resid), z_all)
    states = grid.standardize_array(bundle.train, bundle.state_specs)
    z_bar = pipeline.conditioning_latents(encoder, states, z_all, K, workers=1)
    _same_bytes(pipeline.conditioning_latents(encoder, states, z_all, K, workers=2), z_bar)
    ts = np.arange(K, TRAIN - 1)
    recent = np.stack([states[t - K + 1 : t + 1] for t in ts])
    _same_bytes(forecast.conditioning_latents(encoder, recent, z_all[ts - 1]), z_bar)


def _params_equal(model, untrained):
    assert model.params.keys() == untrained.params.keys()
    for key, p in model.params.items():
        np.testing.assert_array_equal(p.data, untrained.params[key].data, err_msg=key)


def test_zero_iterations_train_nothing(bundle):
    # The bench builds its untrained baselines as `iters: 0` trainings.
    config = copy.deepcopy(cli.DEFAULT_CONFIG)
    config["mae"]["k"] = K
    for section in ("vae", "mae", "diffusion"):
        config[section]["iters"] = 0
    seed = 3
    vae = pipeline.train_vae(bundle, config["vae"], Strategy.VAMFM, seed)
    _params_equal(vae, pipeline.build_vae(bundle.train.shape[1], config["vae"], seed))
    mae = pipeline.train_mae(bundle, config["mae"], seed)
    _params_equal(mae, pipeline.build_mae(bundle.train.shape[1], config["mae"], seed))
    mae2d = pipeline.train_mae(bundle, config["mae"], seed, kt=1)
    _params_equal(mae2d, pipeline.build_mae(bundle.train.shape[1], config["mae"], seed, kt=1))
    assert mae2d.params["c3d0.w"].data.shape[2] == mae2d.params["c3d1.w"].data.shape[2] == 1
    fmodels = pipeline.train_denoiser(bundle, config, vae, mae, seed)
    _params_equal(fmodels.denoiser, pipeline.build_denoiser(config, seed))
