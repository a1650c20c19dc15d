import argparse
import dataclasses
import json
import logging
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import nimbus
from nimbus import autodiff as ad
from nimbus import cli, edm, forecast, grid, models, pipeline

TINY = {
    "data": {"h": 16, "w": 32, "v": 3, "t": 40},
    "vae": {"iters": 3, "batch": 2, "base_channels": 4, "latent_channels": 4},
    "mae": {"iters": 2, "batch": 1, "channels": [4, 6], "latent_channels": 4, "decoder_channels": 4},
    "diffusion": {"iters": 2, "batch": 2, "hidden": 6, "blocks": 1, "emb_dim": 4},
    "sampler": {"steps": 3},
    "forecast": {"members": 2, "t_lead": 2, "train_frames": 24},
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny pipeline through train-diffusion, counting VAE loss evaluations."""
    out = tmp_path_factory.mktemp("run")
    config = out / "config.json"
    config.write_text(json.dumps(TINY))
    counts = {}
    vae_loss = models.vae_loss

    def counting(*args, **kwargs):
        counts[stage] = counts.get(stage, 0) + 1
        return vae_loss(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "vae_loss", counting)
        for stage in ("gen-data", "train-vae", "train-mae", "train-diffusion"):
            assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
    return out, config, counts


def test_train_diffusion_runs_no_vae_iterations(trained):
    out, _, counts = trained
    assert counts == {"train-vae": TINY["vae"]["iters"]}
    assert (out / "denoiser.pypt").stat().st_size > 0


def test_forecast_writes_every_member(trained):
    out, config, _ = trained
    assert cli.main(["forecast", "--config", str(config), "--out", str(out), "--workers", "2"]) == 0
    ens = forecast.read_forecast(out / "forecast")
    assert ens.fields.shape == (2, 2, 3, 16, 32)
    assert np.all(np.isfinite(ens.fields))


def test_non_finite_forecast_exits_3_naming_member(trained, monkeypatch, caplog):
    out, config, _ = trained
    monkeypatch.setattr(
        edm, "make_denoise_fn", lambda *a, **k: (lambda z, sigma: np.full_like(z, np.nan))
    )
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(config), "--out", str(out)]) == 3
    assert "member 0, forecast step 0" in caplog.text


def test_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(nimbus.__file__))
    code = "import sys, nimbus.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_rebuild_loads_checkpoints_without_standardizing(trained, monkeypatch):
    out, config, _ = trained

    def forbidden(bundle):
        raise AssertionError("model rebuild standardized the training slice")

    monkeypatch.setattr(pipeline, "standardized_residual_frames", forbidden)
    monkeypatch.setattr(pipeline, "standardized_state_frames", forbidden)
    cfg = cli.load_config(str(config))
    _, fmodels = cli._rebuild_models(cfg, argparse.Namespace(out=str(out)), 0)
    rebuilt = {"vae.pypt": fmodels.vae, "mae.pypt": fmodels.mae, "denoiser.pypt": fmodels.denoiser}
    for name, model in rebuilt.items():
        saved = ad.load_params(out / name)
        assert set(saved) == set(model.params)
        for key, arr in saved.items():
            np.testing.assert_array_equal(model.params[key].data, arr)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(tmp_path, workers, caplog):
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        argv = ["forecast", "--out", str(tmp_path), "--workers", workers, "--dry-run"]
        assert cli.main(argv) == 2
    assert f"--workers must be at least 1, got {workers}" in caplog.text


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read config"), ('{"data": {"h": 16,', "is not valid JSON")],
    ids=["missing", "invalid-json"],
)
def test_unreadable_config_exits_2(tmp_path, content, message, caplog):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        argv = ["gen-data", "--config", str(path), "--out", str(tmp_path), "--dry-run"]
        assert cli.main(argv) == 2
    assert message in caplog.text and str(path) in caplog.text


def test_evaluate_missing_member_exits_2(trained, tmp_path, caplog):
    out, config, _ = trained
    shutil.copy(out / "dataset.pyld", tmp_path)
    data = grid.read_fields(tmp_path / "dataset.pyld")
    ens = forecast.EnsembleForecast(
        np.stack([data.data[-2:]] * 2), [[0, 0], [0, 1]], data.lat, data.lon, data.specs
    )
    forecast.write_forecast(ens, tmp_path / "forecast")
    (tmp_path / "forecast" / "member_001.pyld").unlink()
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "member_001.pyld" in caplog.text


def test_ablate_rows_do_not_depend_on_workers(trained):
    out, config, _ = trained
    cfg = cli.load_config(str(config))
    bundle = pipeline.split_dataset(
        grid.read_fields(out / "dataset.pyld"), cfg["forecast"]["train_frames"], cfg["mae"]["k"]
    )
    a = cfg["ablate"]
    rows = [
        pipeline.ablate(
            bundle, cfg, ["3dmae"], ["vamfm"], [0], a["members"], a["t_lead"], workers=workers
        )
        for workers in (1, 2)
    ]
    assert len(rows[0]) == 1
    assert rows[0] == rows[1]


def test_stages_standardize_states_once(trained, tmp_path, monkeypatch):
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    counts = {}
    state_frames = pipeline.standardized_state_frames

    def counting(bundle):
        counts[stage] = counts.get(stage, 0) + 1
        return state_frames(bundle)

    monkeypatch.setattr(pipeline, "standardized_state_frames", counting)
    for stage in ("train-diffusion", "diagnose"):
        assert cli.main([stage, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert counts == {"train-diffusion": 1, "diagnose": 1}


def test_non_utf8_variable_name_exits_3(trained, tmp_path, caplog):
    out, config, _ = trained
    blob = (out / "dataset.pyld").read_bytes()
    (tmp_path / "dataset.pyld").write_bytes(blob.replace(b"var1", b"\xffar1", 1))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["train-vae", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert "variable name is not valid UTF-8" in caplog.text


def test_evaluate_plots_escape_variable_names(trained, tmp_path):
    out, config, _ = trained
    data = grid.read_fields(out / "dataset.pyld")
    names = ["t<2&q", "a--b", "x,y"]
    specs = tuple(dataclasses.replace(s, name=n) for s, n in zip(data.specs, names))
    grid.write_fields(dataclasses.replace(data, specs=specs), tmp_path / "dataset.pyld")
    ens = forecast.EnsembleForecast(
        np.stack([data.data[-2:]] * 2), [[0, 0], [0, 1]], data.lat, data.lon, specs
    )
    forecast.write_forecast(ens, tmp_path / "forecast")
    assert cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path)]) == 0
    root = ET.parse(tmp_path / "rmse.svg").getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert set(names) <= set(texts)
