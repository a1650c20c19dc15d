import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import nimbus
from nimbus import cli, edm, forecast, models

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
