import argparse
import collections
import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import nimbus
from nimbus import autodiff as ad
from nimbus import cli, edm, forecast, grid, models, pipeline
from nimbus.errors import ConfigError

TINY = {
    "data": {"h": 16, "w": 32, "v": 3, "t": 40},
    "vae": {"iters": 3, "batch": 2, "base_channels": 4, "latent_channels": 4},
    "mae": {"iters": 2, "batch": 1, "channels": [4, 6], "latent_channels": 4, "decoder_channels": 4},
    "diffusion": {"iters": 2, "batch": 2, "hidden": 6, "blocks": 1, "emb_dim": 4},
    "sampler": {"steps": 3},
    "forecast": {"members": 2, "t_lead": 2, "train_frames": 24},
}
# The metrics.csv rows of every (variable, lead), in MetricReport order.
METRICS = ("rmse_mean", "crps_fair", "crps_empirical", "ssr")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny pipeline through train-diffusion, counting VAE loss evaluations.

    Training samples run in worker processes, so each evaluation appends
    its stage's name to a file, one line per write.
    """
    out = tmp_path_factory.mktemp("run")
    config = out / "config.json"
    config.write_text(json.dumps(TINY))
    calls = tmp_path_factory.mktemp("counts") / "vae_loss"
    calls.touch()
    vae_loss = models.vae_loss

    def counting(*args, **kwargs):
        with open(calls, "a") as fh:
            fh.write(f"{stage}\n")
        return vae_loss(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "vae_loss", counting)
        for stage in ("gen-data", "train-vae", "train-mae", "train-diffusion"):
            assert cli.main([stage, "--config", str(config), "--out", str(out), "--workers", "2"]) == 0
    return out, config, dict(collections.Counter(calls.read_text().split()))


def test_train_diffusion_runs_no_vae_iterations(trained):
    out, _, counts = trained
    # One vae_loss call per sample of every iteration, none in train-diffusion.
    assert counts == {"train-vae": TINY["vae"]["iters"] * TINY["vae"]["batch"]}
    assert (out / "denoiser.pypt").stat().st_size > 0


def test_training_checkpoints_do_not_depend_on_workers(trained, tmp_path):
    out, config, _ = trained
    for workers in ("1", "2", "3"):
        run = tmp_path / f"workers{workers}"
        run.mkdir()
        shutil.copy(out / "dataset.pyld", run)
        for stage in ("train-vae", "train-mae", "train-diffusion", "diagnose"):
            argv = [stage, "--config", str(config), "--out", str(run), "--workers", workers]
            assert cli.main(argv) == 0
    trained_files = ("vae.pypt", "mae.pypt", "denoiser.pypt", "edm_config.json")
    for name in (*trained_files, "diffusability.csv", "band_energy.svg", "rmse_vs_mask.svg"):
        for workers in ("2", "3"):
            assert (tmp_path / "workers1" / name).read_bytes() == (
                tmp_path / f"workers{workers}" / name
            ).read_bytes(), (name, workers)


def test_forecast_writes_every_member(trained):
    out, config, _ = trained
    assert cli.main(["forecast", "--config", str(config), "--out", str(out), "--workers", "2"]) == 0
    ens = forecast.read_forecast(out / "forecast")
    assert ens.fields.shape == (2, 2, 3, 16, 32)
    assert np.all(np.isfinite(ens.fields))


def test_sixty_lead_rollout_stays_finite(trained, tmp_path):
    # The paper's horizon, 15 days at 6 h, at the default sampler. forecast
    # reads only the init window, so TINY's 40 frames hold no truth this far.
    out, _, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "sampler": {}, "forecast": {**TINY["forecast"], "t_lead": 60}}))
    argv = ["forecast", "--config", str(path), "--out", str(tmp_path), "--workers", "2"]
    assert cli.main(argv) == 0
    ens = forecast.read_forecast(tmp_path / "forecast")
    assert ens.fields.shape == (2, 60, 3, 16, 32)
    assert np.all(np.isfinite(ens.fields))


def test_forecast_manifest_records_denoiser_calls(trained, tmp_path, monkeypatch):
    # The default sampler: its count is the one test_cli_default_schedule counts.
    out, _, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "sampler": {}}))
    calls = []
    make = edm.make_denoise_fn

    def counting(*args, **kwargs):
        denoise = make(*args, **kwargs)
        return lambda z, sigma: calls.append(sigma) or denoise(z, sigma)

    monkeypatch.setattr(edm, "make_denoise_fn", counting)
    argv = ["forecast", "--config", str(path), "--out", str(tmp_path), "--workers", "1"]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "forecast" / "manifest.json").read_text())
    member_leads = TINY["forecast"]["members"] * TINY["forecast"]["t_lead"]
    assert manifest["denoiser_calls_per_member_lead"] == len(calls) // member_leads == 12
    assert len(calls) == 12 * member_leads


def test_non_finite_forecast_exits_3_naming_member(trained, monkeypatch, caplog):
    out, config, _ = trained
    monkeypatch.setattr(
        edm, "make_denoise_fn", lambda *a, **k: (lambda z, sigma: np.full_like(z, np.nan))
    )
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(config), "--out", str(out)]) == 3
    assert "member 0, forecast step 0" in caplog.text


def test_forecast_members_do_not_depend_on_workers(trained, tmp_path):
    # 5 members: one process, an even split, an uneven one, more workers than members.
    out, _, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "forecast": {**TINY["forecast"], "members": 5}}))
    files = {}
    for workers in ("1", "2", "3", "8"):
        argv = ["forecast", "--config", str(path), "--out", str(tmp_path), "--workers", workers]
        assert cli.main(argv) == 0
        files[workers] = {f.name: f.read_bytes() for f in (tmp_path / "forecast").iterdir()}
    assert len(files["1"]) == 6
    assert files["2"] == files["3"] == files["8"] == files["1"]


def test_member_process_failure_exits_3_naming_member(trained, monkeypatch, caplog):
    # At --workers 2 member 1 runs in a forked process, and only there does the denoiser fail.
    out, config, _ = trained
    run_member = forecast._run_member

    def member(models, init, t_lead, seed, m):
        if m == 1:
            monkeypatch.setattr(
                edm, "make_denoise_fn", lambda *a, **k: (lambda z, sigma: np.full_like(z, np.nan))
            )
        return run_member(models, init, t_lead, seed, m)

    monkeypatch.setattr(forecast, "_run_member", member)
    argv = ["forecast", "--config", str(config), "--out", str(out), "--workers", "2"]
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(argv) == 3
    assert "non-finite values in sampled latent (member 1, forecast step 0)" in caplog.text


def test_run_manifest_records_member_process_peak(trained, tmp_path):
    # Fresh processes: RUSAGE_CHILDREN counts every child a process ever reaped.
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    mae2 = tmp_path / "mae2.json"  # a batch of 2 samples, so 2 workers fork a training process
    mae2.write_text(json.dumps({**TINY, "mae": {**TINY["mae"], "batch": 2}}))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nimbus.__file__))}
    peaks = {}
    for stage, path, workers in (("forecast", config, 2), ("train-mae", mae2, 2), ("train-mae", mae2, 1)):
        argv = [stage, "--config", str(path), "--out", str(tmp_path), "--workers", str(workers)]
        code = f"import sys; from nimbus import cli; sys.exit(cli.main({argv!r}))"
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
        assert res.returncode == 0, res.stderr
        peaks[stage, workers] = json.loads((tmp_path / "manifest.json").read_text())["peak_rss_mb"]
    assert TINY["forecast"]["members"] == 2
    assert all(peak["self"] > 0 for peak in peaks.values())
    assert peaks["forecast", 2]["children"] > 0
    assert peaks["train-mae", 2]["children"] > 0
    assert peaks["train-mae", 1]["children"] == 0


# Runs ``nimbus`` in which {module}.{name} makes a worker process write its
# pid to {pidfile} and then sleep for a minute.
ORPHAN = """
import os, sys, time
from nimbus import cli, {module}
parent = os.getpid()
inner = {module}.{name}

def slow(*args, **kwargs):
    if os.getpid() != parent:
        with open({pidfile!r} + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.rename({pidfile!r} + ".tmp", {pidfile!r})
        time.sleep(60)
    return inner(*args, **kwargs)

{module}.{name} = slow
sys.exit(cli.main({argv!r}))
"""


def alive(pid):
    """Whether process ``pid`` runs: it exists and is not a zombie that waits to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")
@pytest.mark.parametrize(
    "stage,module,name", [("forecast", "forecast", "_run_member"), ("train-vae", "models", "vae_loss")]
)
def test_worker_process_ends_with_a_killed_parent(trained, tmp_path, stage, module, name):
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    pidfile = str(tmp_path / "worker.pid")
    argv = [stage, "--config", str(config), "--out", str(tmp_path), "--workers", "2"]
    code = ORPHAN.format(module=module, name=name, pidfile=pidfile, argv=argv)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nimbus.__file__))}
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.DEVNULL)
    worker = None
    try:
        deadline = time.monotonic() + 120
        while not os.path.exists(pidfile):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        with open(pidfile) as fh:
            worker = int(fh.read())
        proc.kill()
        proc.wait()
        killed = time.monotonic()
        while alive(worker) and time.monotonic() - killed < 5:
            time.sleep(0.01)
        assert not alive(worker)
        assert time.monotonic() - killed < 1.0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if worker is not None and alive(worker):
            os.kill(worker, signal.SIGKILL)


def test_import_loads_no_scipy_module():
    src = os.path.dirname(os.path.dirname(nimbus.__file__))
    code = "import sys, nimbus.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_non_finite_training_loss_exits_3_naming_the_step(trained, tmp_path, monkeypatch, caplog):
    out, config, _ = trained
    shutil.copy(out / "dataset.pyld", tmp_path)
    mae_loss = models.mae_loss
    monkeypatch.setattr(models, "mae_loss", lambda *a: ad.scale(mae_loss(*a), np.nan))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["train-mae", "--config", str(config), "--out", str(tmp_path)]) == 3
    steps = TINY["mae"]["iters"]
    assert f"numeric failure: training step 1 of {steps}: loss is non-finite" in caplog.text
    assert not (tmp_path / "mae.pypt").exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "stage,section", [("train-vae", "vae"), ("train-mae", "mae"), ("train-diffusion", "diffusion")]
)
def test_diverging_training_prints_only_its_exit_3_line(trained, tmp_path, stage, section, workers):
    # Step 1 moves every parameter by about lr, so step 2's forward overflows
    # (VAE, 3D-MAE) or its gradient's square does (denoiser, in AdamW).
    # Run outside pytest, whose warning filters would turn numpy's warnings
    # into exceptions rather than print them.
    out, _, _ = trained
    inputs = ("vae.pypt", "mae.pypt") if stage == "train-diffusion" else ()
    for name in ("dataset.pyld", *inputs):
        shutil.copy(out / name, tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, section: {**TINY[section], "lr": 1e12}}))
    argv = [stage, "--config", str(config), "--out", str(tmp_path), "--workers", str(workers)]
    code = f"import sys; from nimbus import cli; sys.exit(cli.main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nimbus.__file__))}
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 3, res.stderr
    assert "numeric failure: training step 2 of" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert not (tmp_path / ("denoiser.pypt" if stage == "train-diffusion" else f"{section}.pypt")).exists()


def test_rebuild_loads_checkpoints_without_standardizing(trained, monkeypatch):
    out, config, _ = trained

    def forbidden(*args):
        raise AssertionError("model rebuild standardized the training slice")

    monkeypatch.setattr(grid, "standardized_residuals", forbidden)
    monkeypatch.setattr(grid, "standardize_array", forbidden)
    cfg = cli.load_config(str(config))
    _, fmodels = cli._rebuild_models(cfg, argparse.Namespace(out=str(out)), 0)
    rebuilt = {"vae.pypt": fmodels.vae, "mae.pypt": fmodels.encoder, "denoiser.pypt": fmodels.denoiser}
    for name, model in rebuilt.items():
        saved = ad.load_params(out / name)
        assert set(saved) == set(model.params)
        for key, arr in saved.items():
            np.testing.assert_array_equal(model.params[key].data, arr)


def test_cond_mode_2d_points_to_ablate(tmp_path, caplog):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"diffusion": {"cond_mode": "2d"}, "ablate": {"conds": ["2d"]}}))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(path), "--dry-run"]) == 2
    assert "nimbus ablate" in caplog.text
    path.write_text(json.dumps({"ablate": {"conds": ["2d"]}}))
    assert cli.main(["ablate", "--config", str(path), "--dry-run"]) == 0


def _directory_in_place(path):
    """Replace the file at ``path`` with an empty directory: it exists, but no one can read it."""
    path.unlink()
    path.mkdir()


def _as_directory(name):
    def damage(out, cfg):
        _directory_in_place(out / name)

    return damage


def _truncate(name):
    def damage(out, cfg):
        blob = (out / name).read_bytes()
        (out / name).write_bytes(blob[:-5])

    return damage


def _overflow_dims(out, cfg):
    # dims whose product passes 2^63: a numpy int64 product would wrap around.
    name = b"enc0.w"
    header = struct.pack("<H", len(name)) + name + struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1)
    (out / "vae.pypt").write_bytes(ad.MAGIC_PARAMS + header + bytes(64))


def _duplicate_first_tensor(out, cfg):
    blob = (out / "vae.pypt").read_bytes()
    # First record after the magic: name length, name, rank, dims, float32 payload.
    (nlen,) = struct.unpack_from("<H", blob, 8)
    (rank,) = struct.unpack_from("<B", blob, 10 + nlen)
    dims = struct.unpack_from(f"<{rank}I", blob, 11 + nlen)
    end = 11 + nlen + 4 * rank + 4 * math.prod(dims)
    (out / "vae.pypt").write_bytes(blob + blob[8:end])


def _other_hidden(out, cfg):
    wider = {**cfg, "diffusion": {**cfg["diffusion"], "hidden": cfg["diffusion"]["hidden"] + 2}}
    ad.save_params(pipeline.build_denoiser(wider, 0).params, out / "denoiser.pypt")


@pytest.mark.parametrize(
    "damage, culprit, message",
    [
        (_truncate("vae.pypt"), "vae.pypt", "truncated tensor"),
        (_truncate("mae.pypt"), "mae.pypt", "truncated tensor"),
        (_other_hidden, "denoiser.pypt", "tensor proj.w: shape"),
        (_overflow_dims, "vae.pypt", "truncated tensor enc0.w payload"),
        (_duplicate_first_tensor, "vae.pypt", "duplicate tensor enc0.w"),
        (_as_directory("vae.pypt"), "vae.pypt", "cannot read it"),
        (_as_directory("mae.pypt"), "mae.pypt", "cannot read it"),
        (_as_directory("denoiser.pypt"), "denoiser.pypt", "cannot read it"),
    ],
    ids=[
        "truncated-vae", "truncated-mae", "denoiser-shape", "overflowing-dims-vae", "duplicate-vae",
        "directory-vae", "directory-mae", "directory-denoiser",
    ],
)
def test_bad_checkpoint_exits_3_naming_file(trained, tmp_path, damage, culprit, message, caplog):
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    damage(tmp_path, cli.load_config(str(config)))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"numeric failure: {tmp_path / culprit}: {message}" in caplog.text
    if culprit == "denoiser.pypt":
        assert "byte offset" not in caplog.text


def _first(key, value):
    """The trained edm_config.json with the first entry of list ``key`` set to ``value``."""
    return lambda saved: {**saved, key: [value] + saved[key][1:]}


@pytest.mark.parametrize(
    "content, message",
    [
        ("{not json", "is not valid JSON"),
        ("[0.5]", "sigma_data must be"),
        ("{}", "sigma_data must be"),
        ('{"sigma_data": "x"}', "sigma_data must be"),
        ('{"sigma_data": -1}', "sigma_data must be"),
        ('{"sigma_data": NaN}', "sigma_data must be"),
        (None, "cannot read it"),
        (
            lambda saved: {"sigma_data": saved["sigma_data"]},
            "is missing training statistics (variables, state_mean, state_std, resid_mean, "
            "resid_std); re-run `nimbus train-diffusion` to write them",
        ),
        (_first("state_std", math.nan), "state_std must be a list of 3 of entries each a finite number > 0"),
        (_first("resid_std", 0.0), "resid_std must be a list of 3 of entries each a finite number > 0"),
        (_first("state_std", -1.0), "state_std must be a list of 3 of entries"),
        (_first("resid_mean", math.inf), "resid_mean must be a list of 3 of entries each a finite number"),
        (
            lambda saved: {k: v[:2] if isinstance(v, list) else v for k, v in saved.items()},
            "variables must list the dataset's 3 variable names, got ['var0', 'var1']",
        ),
        (_first("variables", "rain"), "holds statistics of variable 'rain' where the dataset has 'var0'"),
    ],
    ids=[
        "not-json", "not-object", "no-sigma", "sigma-str", "sigma-negative", "sigma-nan", "directory",
        "no-statistics", "state-std-nan", "resid-std-zero", "state-std-negative", "resid-mean-inf",
        "variable-count", "variable-name",
    ],
)
@pytest.mark.parametrize("command", ["forecast", "diagnose"])
def test_malformed_edm_config_exits_3(trained, tmp_path, content, message, command, caplog):
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "edm_config.json"
    if content is None:
        _directory_in_place(path)
    elif callable(content):
        path.write_text(json.dumps(content(json.loads(path.read_text()))))
    else:
        path.write_text(content)
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"numeric failure: {path}: {message}" in caplog.text


def test_forecast_standardizes_with_the_training_statistics(trained, tmp_path):
    # The statistics travel with the checkpoints: a dataset whose training
    # frames are rescaled, init window and truth untouched, forecasts the same bytes.
    out, config, _ = trained
    members = {}
    for name in ("original", "rescaled"):
        run = tmp_path / name
        shutil.copytree(out, run)
        if name == "rescaled":
            data = grid.read_fields(run / "dataset.pyld")
            frames = data.data.copy()
            train = TINY["forecast"]["train_frames"]
            frames[:train] = 3 * frames[:train] + 2
            grid.write_fields(dataclasses.replace(data, data=frames), run / "dataset.pyld")
        assert cli.main(["forecast", "--config", str(config), "--out", str(run)]) == 0
        fc = run / "forecast"
        members[name] = [(fc / f"member_{m:03d}.pyld").read_bytes() for m in range(2)]
    assert members["rescaled"] == members["original"]
    # The member headers hold the training state statistics.
    cfg = cli.load_config(str(config))
    bundle = pipeline.split_dataset(
        grid.read_fields(out / "dataset.pyld"), cfg["forecast"]["train_frames"], cfg["mae"]["k"]
    )
    assert grid.read_fields(tmp_path / "rescaled" / "forecast" / "member_000.pyld").specs == (
        bundle.state_specs
    )


def test_each_stage_fits_only_the_statistics_it_reads(trained, tmp_path, monkeypatch):
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    calls = []
    for name in ("fit_specs", "residual_specs"):
        fit = getattr(grid, name)

        def counted(*args, name=name, fit=fit):
            calls.append((stage, name))
            return fit(*args)

        monkeypatch.setattr(grid, name, counted)
    stages = ("train-vae", "train-mae", "train-diffusion", "forecast", "evaluate", "diagnose")
    for stage in stages:
        assert cli.main([stage, "--config", str(config), "--out", str(tmp_path)]) == 0
    # residual_specs fits through fit_specs; forecast, evaluate and diagnose fit nothing.
    assert sorted(calls) == sorted(
        [
            ("train-vae", "residual_specs"), ("train-vae", "fit_specs"),
            ("train-mae", "fit_specs"),
            ("train-diffusion", "residual_specs"), ("train-diffusion", "fit_specs"),
            ("train-diffusion", "fit_specs"),
        ]
    )


def test_evaluate_fits_nothing(trained, tmp_path, monkeypatch):
    out, config, _ = trained
    _dataset_and_forecast(out, tmp_path)
    argv = ["evaluate", "--config", str(config), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    expected = (tmp_path / "metrics.json").read_bytes()
    (tmp_path / "metrics.json").unlink()

    def forbidden(*args):
        raise AssertionError("evaluate fitted statistics")

    monkeypatch.setattr(grid, "fit_specs", forbidden)
    assert cli.main(argv) == 0
    assert (tmp_path / "metrics.json").read_bytes() == expected


@pytest.mark.parametrize("integer_valued", [False, True], ids=["continuous", "ties"])
def test_evaluate_outputs_do_not_depend_on_workers(trained, tmp_path, integer_valued):
    # 4 members x 3 leads x 3 variables: 9 (lead, variable) slabs, split
    # unevenly at 2 workers and evenly at 3.
    out, config, _ = trained
    data = grid.read_fields(out / "dataset.pyld")
    if integer_valued:
        data = dataclasses.replace(data, data=np.round(data.data))
    grid.write_fields(data, tmp_path / "dataset.pyld")
    cfg = cli.load_config(str(config))
    truth = pipeline.split_dataset(data, cfg["forecast"]["train_frames"], cfg["mae"]["k"]).truth[:3]
    rng = np.random.default_rng(5)
    if integer_valued:
        members = truth + rng.integers(-1, 2, (4,) + truth.shape)
    else:
        members = truth + rng.standard_normal((4,) + truth.shape)
    members = members.astype(np.float32)
    seeds = [[0, m] for m in range(4)]
    ens = forecast.EnsembleForecast(members, seeds, data.lat, data.lon, data.specs)
    forecast.write_forecast(ens, tmp_path / "forecast")
    names = ("metrics.csv", "metrics.json", "rmse.svg", "rank_histogram.svg")
    files = {}
    for workers in ("1", "2", "3"):
        argv = ["evaluate", "--config", str(config), "--out", str(tmp_path), "--workers", workers]
        assert cli.main(argv) == 0
        files[workers] = {name: (tmp_path / name).read_bytes() for name in names}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert files["2"] == files["3"] == files["1"]
    # The whole-array rule: each tie drawn from one seed-0 stream in the truth's C order.
    below = (members < truth).sum(axis=0)
    ties = (members == truth).sum(axis=0)
    ranks = below + np.random.default_rng(0).integers(0, ties + 1)
    counts = json.loads(files["1"]["metrics.json"])["rank_counts"]
    assert counts == np.bincount(ranks.ravel(), minlength=5).tolist()
    assert (ties.mean() > 1) == integer_valued


@pytest.mark.parametrize("s_churn", [0.0, 2.5])
@pytest.mark.parametrize("command", ["forecast", "diagnose", "ablate"])
def test_sampling_command_honours_sampler_section(trained, tmp_path, command, s_churn, monkeypatch):
    # Every sample a command draws goes through edm.sample_stochastic with the config's churn.
    out, _, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    cfg = {
        **TINY,
        "sampler": {**TINY["sampler"], "s_churn": s_churn},
        "ablate": {"conds": ["none"], "strategies": ["none"], "replicates": 1, "members": 2},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    seen = []
    sample = edm.sample_stochastic

    def recording(denoise, shape, rng, config):
        seen.append(config.s_churn)
        return sample(denoise, shape, rng, config)

    monkeypatch.setattr(edm, "sample_stochastic", recording)
    argv = [command, "--config", str(config), "--out", str(tmp_path), "--workers", "1"]
    assert cli.main(argv) == 0
    assert seen and set(seen) == {s_churn}


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(tmp_path, workers, caplog):
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        argv = ["forecast", "--out", str(tmp_path), "--workers", workers, "--dry-run"]
        assert cli.main(argv) == 2
    assert f"--workers must be at least 1, got {workers}" in caplog.text


@pytest.mark.parametrize("command", ["gen-data", "forecast"])
def test_seed_below_zero_exits_2(tmp_path, command, caplog):
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        argv = [command, "--out", str(tmp_path / "out"), "--seed", "-1"]
        assert cli.main(argv) == 2
    assert "--seed must be at least 0, got -1" in caplog.text
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("forecast", "members", 2.5),
        ("vae", "batch", 1.5),
        ("vae", "regularizer", "bogus"),
        ("vae", "iters", -1),
        ("vae", "batch", 0),
        ("sampler", "steps", 2.5),
        ("forecast", "members", 0),
        ("forecast", "t_lead", 0),
        ("diffusion", "cond_mode", "bogus"),
        ("diffusion", "blocks", True),
        # pytest numbers the list-valued cases by position, so a case taken
        # out above them would rename each one after it.
        ("diffusion", "lr", -0.5),
        ("diffusion", "hidden", "bogus"),
        ("ablate", "strategies", ["se", "bogus"]),
        ("ablate", "conds", ["2d", "bogus"]),
        ("sampler", "rho", 0),
        ("sampler", "sigma_min", -1),
        ("sampler", "sigma_min", 0),
        ("sampler", "sigma_max", 0.001),
        ("sampler", "s_noise", float("inf")),
        ("vae", "lr", float("nan")),
        ("data", "h", 18),
        ("data", "w", 30),
        ("verify", "bands", [0.5, 0.2]),
        ("verify", "bands", [0.0, 0.5, 1.0]),
        ("diffusion", "cond_mode", "2d"),
        ("mae", "channels", ["a", "b"]),
        ("mae", "channels", [0, 8]),
        ("mae", "channels", [6]),
        ("mae", "spatial_strides", [2, 2, 1]),
        ("mae", "spatial_strides", [3, 2]),
        ("mae", "spatial_strides", [1, 1]),
        ("mae", "spatial_strides", [2.0, 2]),
        ("data", "advection", [[1]]),
        ("data", "advection", [1, 2]),
        ("data", "advection", [[0, 1], [1, 0]]),
        ("data", "slopes", ["a"]),
        ("data", "slopes", [1.0, 2.0]),
        ("data", "h", 4),
        ("data", "w", 4),
        ("mae", "k", 3),
        ("vae", "beta", -1.0),
        ("data", "forcing", -0.5),
        ("sampler", "s_churn", -1.0),
        ("sampler", "s_noise", -0.5),
        ("sampler", "s_max", 0.5),
        # The schedule rounds its last entry to 0, comes out flat, or overflows.
        ("sampler", "sigma_min", 1e-300),
        ("sampler", "sigma_max", 0.002000000000000001),
        ("sampler", "rho", 0.001),
        # An empty list runs no cell, and a repeated entry trains and scores its cells twice.
        ("ablate", "conds", []),
        ("ablate", "strategies", []),
        ("ablate", "conds", ["2d", "none", "2d"]),
        ("ablate", "strategies", ["se", "se"]),
    ],
)
@pytest.mark.parametrize("dry_run", [True, False])
def test_bad_config_value_exits_2(tmp_path, section, key, value, dry_run, caplog):
    cfg = {name: dict(entries) for name, entries in TINY.items()}
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    flags = ["--dry-run"] if dry_run else []
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        argv = ["gen-data", "--config", str(path), "--out", str(tmp_path / "out"), *flags]
        assert cli.main(argv) == 2
    assert f"configuration error: {section}.{key} " in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("forecast", "streaming", False),
        ("mae", "warmup_frac", 0.25),
        # --seed seeds every draw, sigma_data is always measured, and rank
        # ties are broken by one fixed stream: no key sets any of them.
        ("data", "seed", 5),
        ("diffusion", "sigma_data", 0.5),
        ("verify", "rank_seed", 0),
    ],
)
def test_unknown_config_key_exits_2(tmp_path, section, key, value, caplog):
    cfg = {name: dict(entries) for name, entries in TINY.items()}
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(path), "--dry-run"]) == 2
    assert f"unknown config keys under {section}: ['{key}']" in caplog.text


@pytest.mark.parametrize(
    "section, key", [(name, key) for name, keys in cli.DEFAULT_CONFIG.items() for key in keys]
)
def test_object_value_exits_2_naming_key(tmp_path, section, key, caplog):
    # No key accepts a JSON object, so every key's rule must refuse one.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: {}}}))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(path), "--dry-run"]) == 2
    assert f"configuration error: {section}.{key} " in caplog.text


def test_config_hashes_are_pinned(tmp_path):
    # Manifests and forecast directories record these hashes: a changed default
    # or a change in how a config is merged over the defaults moves them.
    assert cli.config_hash(cli.load_config()) == "b6f5cccb396f69f7"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    assert cli.config_hash(cli.load_config(str(path))) == "32a0e462d91e3eba"


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            {"forecast": {"train_frames": 4}, "mae": {"k": 4}},
            "forecast.train_frames must be at least k + 2 = 6",
        ),
        (
            {"data": {"h": 4096, "w": 8192}},
            f"data.t * data.v * data.h * data.w must be at most {grid.MAX_ELEMENTS}",
        ),
    ],
    ids=["train-frames", "elements"],
)
def test_dry_run_refuses_what_a_stage_would(tmp_path, cfg, message, caplog):
    # split_dataset refuses the first after reading the dataset, and read_fields
    # the second; gen-data would first try to allocate it, so this runs dry only.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        argv = ["gen-data", "--config", str(path), "--out", str(tmp_path / "out"), "--dry-run"]
        assert cli.main(argv) == 2
    assert f"configuration error: {message}" in caplog.text


@pytest.mark.parametrize("dry_run", [True, False])
def test_gen_data_refuses_too_few_frames_for_the_split(tmp_path, dry_run, caplog):
    # The default split needs forecast.train_frames 72 + mae.k 4 + 2 = 78 frames.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"data": {"t": 40}}))
    flags = ["--dry-run"] if dry_run else []
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        argv = ["gen-data", "--config", str(path), "--out", str(tmp_path / "out"), *flags]
        assert cli.main(argv) == 2
    assert "configuration error: data.t must be at least" in caplog.text
    assert "= 78 frames for the split, got 40" in caplog.text
    assert not (tmp_path / "out").exists()
    # Other commands may read a dataset written under another config.
    assert cli.main(["forecast", "--config", str(path), "--dry-run"]) == 0


def test_dataset_size_limit_is_read_fields_limit(tmp_path):
    # t * v * h * w = MAX_ELEMENTS exactly passes, one more frame does not.
    path = tmp_path / "config.json"
    side = 1 << 14
    for t, ok in ((grid.MAX_ELEMENTS // side**2, True), (grid.MAX_ELEMENTS // side**2 + 1, False)):
        path.write_text(json.dumps({"data": {"t": t, "v": 1, "h": side, "w": side}}))
        if ok:
            cli.load_config(str(path))
        else:
            with pytest.raises(ConfigError, match="data.t \\* data.v"):
                cli.load_config(str(path))


def test_gen_data_manifest_records_config_seed(tmp_path):
    # No config key seeds gen-data: without --seed it draws and records seed 0.
    cfg = {"data": TINY["data"], "forecast": TINY["forecast"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == 0
    d = cli.load_config(str(path))["data"]
    expected = grid.gen_synthetic(
        seed=0, h=d["h"], w=d["w"], v=d["v"], t=d["t"], forcing=d["forcing"]
    )
    np.testing.assert_array_equal(grid.read_fields(tmp_path / "dataset.pyld").data, expected.data)


def _file_at_out(tmp_path):
    (tmp_path / "out").write_text("")
    return tmp_path / "out", f"cannot make directory {tmp_path / 'out'}"


def _file_above_out(tmp_path):
    (tmp_path / "out").write_text("")
    return tmp_path / "out" / "sub", f"cannot make directory {tmp_path / 'out' / 'sub'}"


def _directory_at_manifest(tmp_path):
    (tmp_path / "out" / "manifest.json").mkdir(parents=True)
    return tmp_path / "out", f"cannot write {tmp_path / 'out' / 'manifest.json'}"


@pytest.mark.parametrize("block", [_file_at_out, _file_above_out, _directory_at_manifest])
def test_output_path_held_by_the_wrong_kind_exits_2(tmp_path, caplog, block):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    out, message = block(tmp_path)
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["gen-data", "--config", str(config), "--out", str(out)]) == 2
    assert f"configuration error: {message}" in caplog.text


def test_forecast_directory_held_by_a_file_exits_2(trained, tmp_path, caplog):
    out, config, _ = trained
    for name in ("dataset.pyld", "vae.pypt", "mae.pypt", "denoiser.pypt", "edm_config.json"):
        shutil.copy(out / name, tmp_path)
    (tmp_path / "forecast").write_text("")
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert f"cannot make directory {tmp_path / 'forecast'}" in caplog.text


def _joined_pyld(x):
    """The PYLD bytes of ``x`` as the writer once built them: tobytes() per part, one join."""
    t, v, h, w = x.data.shape
    parts = [grid.MAGIC_FIELDS, struct.pack("<4I", t, v, h, w)]
    for s in x.specs:
        name = s.name.encode("utf-8")
        level = math.nan if s.level is None else float(s.level)
        stats = struct.pack("<4d", s.mean, s.std, s.loss_weight, level)
        parts += [struct.pack("<H", len(name)), name, stats]
    for arr, dtype in ((x.lat, "<f8"), (x.lon, "<f8"), (x.data, "<f4")):
        parts.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return b"".join(parts)


def test_gen_data_writes_the_pinned_dataset(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    argv = ["gen-data", "--config", str(config), "--out", str(tmp_path), "--seed", "7"]
    assert cli.main(argv) == 0
    d = TINY["data"]
    blob = (tmp_path / "dataset.pyld").read_bytes()
    assert blob == _joined_pyld(grid.gen_synthetic(seed=7, h=d["h"], w=d["w"], v=d["v"], t=d["t"]))
    # The generator's own output: a change here changes every dataset `gen-data` makes.
    assert hashlib.sha256(blob).hexdigest() == (
        "557fdbb86925c915e81a307db8623581bb2a4c6ff3b1696e0d2f03a5baaf6704"
    )


def test_too_few_train_frames_exits_2(trained, tmp_path, caplog):
    # cond_mode none trains no 3D-MAE; the config check refuses k + 1 training
    # frames before the dataset is read, with split_dataset's message.
    out, _, _ = trained
    shutil.copy(out / "dataset.pyld", tmp_path)
    cfg = {**TINY, "diffusion": {**TINY["diffusion"], "cond_mode": "none"}}
    cfg["forecast"] = {**TINY["forecast"], "train_frames": 5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["train-diffusion", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "configuration error: forecast.train_frames must be at least k + 2 = 6" in caplog.text


def test_default_config_verifies_every_lead():
    cfg = cli.load_config()
    batch = grid.gen_synthetic(seed=0, h=8, w=8, v=1, t=cfg["data"]["t"])
    bundle = pipeline.split_dataset(batch, cfg["forecast"]["train_frames"], cfg["mae"]["k"])
    assert bundle.truth.shape[0] >= cfg["forecast"]["t_lead"]


def test_edm_config_records_the_measured_sigma_data(trained):
    # sigma_data is the std of the residual latents of the VAE the denoiser
    # learns from, so each regularizer's VAE gets its own.
    out, config, _ = trained
    cfg = cli.load_config(str(config))
    batch = grid.read_fields(out / "dataset.pyld")
    bundle = pipeline.split_dataset(batch, cfg["forecast"]["train_frames"], cfg["mae"]["k"])
    vae = pipeline.build_vae(bundle.train.shape[1], cfg["vae"], 0)
    ad.assign_params(vae.params, ad.load_params(out / "vae.pypt"))
    resid_std = grid.standardized_residuals(bundle.train, bundle.resid_specs)
    z_all = pipeline.residual_latents(vae, resid_std)
    saved = json.loads((out / "edm_config.json").read_text())
    assert saved["sigma_data"] == max(edm.estimate_sigma_data(z_all), 1e-3)


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


def _manifest(text):
    return lambda fc: (fc / "manifest.json").write_text(text)


def _truncate_member(fc):
    blob = (fc / "member_001.pyld").read_bytes()
    (fc / "member_001.pyld").write_bytes(blob[:-5])


def _reshape_member(fc):
    batch = grid.read_fields(fc / "member_001.pyld")
    grid.write_fields(dataclasses.replace(batch, data=batch.data[:1]), fc / "member_001.pyld")


def _regrid(change, members):
    """Rewrite the given members with ``change`` applied to their FieldBatch."""

    def damage(fc):
        for m in members:
            path = fc / f"member_{m:03d}.pyld"
            grid.write_fields(change(grid.read_fields(path)), path)

    return damage


def _rename(b):
    specs = tuple(dataclasses.replace(s, name=s.name + "x") for s in b.specs)
    return dataclasses.replace(b, specs=specs)


def _flip_lat(b):
    return dataclasses.replace(b, lat=b.lat[::-1])


def _shift_lon(b):
    return dataclasses.replace(b, lon=b.lon + 1.0)


@pytest.mark.parametrize(
    "damage, culprit, message",
    [
        (_manifest("{not json"), "manifest.json", "is not valid JSON"),
        (_manifest('{"member_seeds": []}'), "manifest.json", "members must be an integer >= 1"),
        (_manifest('{"members": "2"}'), "manifest.json", "members must be an integer >= 1"),
        (_manifest('{"members": 0}'), "manifest.json", "members must be an integer >= 1"),
        (_manifest("[2]"), "manifest.json", "members must be an integer >= 1"),
        (
            _manifest('{"members": 2, "member_seeds": [[0, 0]]}'),
            "manifest.json",
            "member_seeds must be a list of 2 entries",
        ),
        (_truncate_member, "member_001.pyld", "truncated payload"),
        (_reshape_member, "member_001.pyld", "has shape"),
        # One member on another grid than member 0.
        (_regrid(_rename, [1]), "member_001.pyld", "variable names differ from member_000"),
        (_regrid(_flip_lat, [1]), "member_001.pyld", "latitudes differ from member_000"),
        (_regrid(_shift_lon, [1]), "member_001.pyld", "longitudes differ from member_000"),
        # The whole ensemble on another grid than the dataset.
        (_regrid(_rename, [0, 1]), "member_000.pyld", "variable names differ from the dataset's"),
        (_regrid(_flip_lat, [0, 1]), "member_000.pyld", "latitudes differ from the dataset's"),
        (_regrid(_shift_lon, [0, 1]), "member_000.pyld", "longitudes differ from the dataset's"),
        (lambda fc: _directory_in_place(fc / "manifest.json"), "manifest.json", "cannot read it"),
        (lambda fc: _directory_in_place(fc / "member_001.pyld"), "member_001.pyld", "cannot read it"),
    ],
    ids=[
        "not-json", "no-members", "members-str", "members-0", "not-object", "seeds-short",
        "truncated-member", "member-shape", "member-names", "member-lat", "member-lon",
        "ensemble-names", "ensemble-lat", "ensemble-lon", "directory-manifest", "directory-member",
    ],
)
def test_evaluate_malformed_forecast_exits_3(trained, tmp_path, damage, culprit, message, caplog):
    out, config, _ = trained
    shutil.copy(out / "dataset.pyld", tmp_path)
    data = grid.read_fields(tmp_path / "dataset.pyld")
    ens = forecast.EnsembleForecast(
        np.stack([data.data[-2:]] * 2), [[0, 0], [0, 1]], data.lat, data.lon, data.specs
    )
    forecast.write_forecast(ens, tmp_path / "forecast")
    damage(tmp_path / "forecast")
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"numeric failure: {tmp_path / 'forecast' / culprit}" in caplog.text
    assert message in caplog.text
    assert not (tmp_path / "metrics.csv").exists()


def _dataset_and_forecast(out, tmp_path, leads=2):
    """Copy the run's dataset to tmp_path with a 2-member forecast of its last ``leads`` frames."""
    shutil.copy(out / "dataset.pyld", tmp_path)
    data = grid.read_fields(tmp_path / "dataset.pyld")
    ens = forecast.EnsembleForecast(
        np.stack([data.data[-leads:]] * 2), [[0, 0], [0, 1]], data.lat, data.lon, data.specs
    )
    forecast.write_forecast(ens, tmp_path / "forecast")


def test_evaluate_more_leads_than_truth_exits_2(trained, tmp_path, caplog):
    out, config, _ = trained
    n_truth = TINY["data"]["t"] - TINY["forecast"]["train_frames"] - 5
    _dataset_and_forecast(out, tmp_path, leads=n_truth + 1)
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert f"forecast has {n_truth + 1} leads" in caplog.text
    assert f"only {n_truth} truth frames" in caplog.text


def _zero_std(blob):
    # var0's std follows the 24-byte header, the u16 name length, "var0" and its mean.
    return blob[:38] + struct.pack("<d", 0.0) + blob[46:]


@pytest.mark.parametrize(
    "damage, message",
    [
        (_zero_std, "variable 'var0': std must be > 0"),
        (lambda blob: blob.replace(b"var1", b"var0", 1), "variable names must be unique"),
        (lambda blob: blob[:-4] + struct.pack("<f", np.nan), "field data contains non-finite"),
        (None, "cannot read it"),
    ],
    ids=["std-0", "duplicate-name", "nan-payload", "directory"],
)
@pytest.mark.parametrize("target", ["dataset", "member"])
def test_corrupt_field_file_exits_3_naming_it(trained, tmp_path, damage, message, target, caplog):
    out, config, _ = trained
    _dataset_and_forecast(out, tmp_path)
    culprit = tmp_path / ("dataset.pyld" if target == "dataset" else "forecast/member_001.pyld")
    if damage is None:
        _directory_in_place(culprit)
    else:
        culprit.write_bytes(damage(culprit.read_bytes()))
    command = "train-vae" if target == "dataset" else "evaluate"
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"numeric failure: {culprit}: {message}" in caplog.text


@pytest.mark.parametrize("frame", [0, -1], ids=["train-slice", "truth"])
def test_forecast_nan_outside_the_init_window_exits_3(trained, tmp_path, frame, caplog):
    # forecast holds only its init window, but reads and checks every frame.
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "dataset.pyld"
    data = np.array(grid.read_fields(path).data)
    data[frame, 0, 0, 0] = np.nan
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - data.nbytes] + data.tobytes())
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert f"numeric failure: {path}: field data contains non-finite values" in caplog.text


def test_forecast_on_too_few_frames_exits_2_with_the_split_message(trained, tmp_path, caplog):
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "dataset.pyld"
    cfg = cli.load_config(str(config))
    need = pipeline.frames_needed(cfg["forecast"]["train_frames"], cfg["mae"]["k"])
    batch = grid.read_fields(path)
    grid.write_fields(dataclasses.replace(batch, data=batch.data[: need - 1]), path)
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["forecast", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert f"dataset has {need - 1} frames; need at least {need}" in caplog.text


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
    # One row per (variable, lead, metric) of the one cell.
    assert len(rows[0]) == TINY["data"]["v"] * a["t_lead"] * len(METRICS)
    assert rows[0] == rows[1]


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _ablate_config(tmp_path, out, **ablate):
    """TINY with an ``ablate`` section, beside a copy of the run's dataset."""
    shutil.copy(out / "dataset.pyld", tmp_path)
    cfg = {**TINY, "ablate": {"conds": ["none"], "strategies": ["none"], "replicates": 1, **ablate}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    return config


@pytest.mark.parametrize("members", [1, 2])
def test_ablate_cell_rows_equal_evaluate_metrics(trained, tmp_path, members, monkeypatch):
    out, _, _ = trained
    config = _ablate_config(tmp_path, out, members=members, t_lead=2)
    ensembles = []
    rollout = forecast.rollout

    def recording(*args, **kwargs):
        ensembles.append(rollout(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(forecast, "rollout", recording)
    assert cli.main(["ablate", "--config", str(config), "--out", str(tmp_path)]) == 0
    ablation = _csv_rows(tmp_path / "ablation.csv")
    assert ablation[0] == ["seed", "cond", "strategy", "variable", "lead_hours", "metric", "value"]
    assert {tuple(row[:3]) for row in ablation[1:]} == {("0", "none", "none")}

    scored = tmp_path / "evaluate"
    scored.mkdir()
    shutil.copy(out / "dataset.pyld", scored)
    (ens,) = ensembles
    forecast.write_forecast(ens, scored / "forecast")
    assert cli.main(["evaluate", "--config", str(config), "--out", str(scored)]) == 0
    metrics = _csv_rows(scored / "metrics.csv")
    assert len(metrics) == 1 + TINY["data"]["v"] * 2 * len(METRICS)
    assert [row[3:] for row in ablation] == metrics


def test_ablate_t_lead_beyond_truth_exits_2_before_training(trained, tmp_path, monkeypatch, caplog):
    out, _, _ = trained
    n_truth = TINY["data"]["t"] - TINY["forecast"]["train_frames"] - 5
    config = _ablate_config(tmp_path, out, t_lead=n_truth + 1)
    calls = []
    vae_loss = models.vae_loss
    monkeypatch.setattr(models, "vae_loss", lambda *a, **k: calls.append(1) or vae_loss(*a, **k))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["ablate", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert f"ablate has {n_truth + 1} leads" in caplog.text
    assert f"only {n_truth} truth frames" in caplog.text
    assert "lower ablate.t_lead" in caplog.text
    assert calls == []


def test_ablate_encoder_channel_mismatch_exits_2_before_training(
    trained, tmp_path, monkeypatch, caplog
):
    # The 2D mode is the 3D-MAE with no temporal mixing: it needs mae.latent_channels
    # equal to vae's 4.
    out, _, _ = trained
    shutil.copy(out / "dataset.pyld", tmp_path)
    cfg = {**TINY, "mae": {**TINY["mae"], "latent_channels": 6}}
    cfg["ablate"] = {"conds": ["2d"], "strategies": ["none"], "replicates": 1}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    calls = []
    vae_loss = models.vae_loss
    monkeypatch.setattr(models, "vae_loss", lambda *a, **k: calls.append(1) or vae_loss(*a, **k))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["ablate", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "mae.latent_channels is 6 but vae.latent_channels is 4" in caplog.text
    assert "ablate.conds '2d'" in caplog.text
    assert calls == []


def test_train_diffusion_encoder_channel_mismatch_exits_2(trained, tmp_path, caplog):
    out, _, _ = trained
    for name in ("dataset.pyld", "vae.pypt", "mae.pypt"):
        shutil.copy(out / name, tmp_path)
    cfg = {**TINY, "mae": {**TINY["mae"], "latent_channels": 6}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["train-diffusion", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "mae.latent_channels is 6 but vae.latent_channels is 4" in caplog.text
    assert "diffusion.cond_mode '3dmae'" in caplog.text
    assert not (tmp_path / "denoiser.pypt").exists()


def test_ablate_scores_every_conditioning_and_trains_each_model_once_per_seed(
    trained, tmp_path, monkeypatch
):
    out, _, _ = trained
    conds, strategies = ["none", "2d", "3dmae"], ["none", "se"]
    config = _ablate_config(
        tmp_path, out, conds=conds, strategies=strategies, replicates=2, members=2, t_lead=2
    )
    trains = {name: [] for name in ("train_vae", "train_mae")}

    def counting(name):
        train = getattr(pipeline, name)

        def counted(*args, **kwargs):
            # The seed, and the 3D-MAE's temporal extent kt; workers and kt are passed by keyword.
            trains[name].append((args[-1], kwargs.get("kt")))
            return train(*args, **kwargs)

        return counted

    for name in trains:
        monkeypatch.setattr(pipeline, name, counting(name))
    assert cli.main(["ablate", "--config", str(config), "--out", str(tmp_path)]) == 0
    # One VAE per (seed, regularizer) and one 3D-MAE per (seed, mode), not one per
    # cell: "2d" builds it with temporal extent 1, "3dmae" with 2.
    assert trains == {
        "train_vae": [(0, None), (0, None), (1, None), (1, None)],
        "train_mae": [(0, 1), (0, 2), (1, 1), (1, 2)],
    }
    keys = {
        (f"var{v}", str(lead), metric)
        for v in range(TINY["data"]["v"])
        for lead in (6, 12)
        for metric in METRICS
    }
    cells = {}
    for seed, cond, strategy, *row in _csv_rows(tmp_path / "ablation.csv")[1:]:
        assert np.isfinite(float(row[-1]))
        cells.setdefault((seed, cond, strategy), []).append(tuple(row[:-1]))
    assert sorted(cells) == sorted(
        (str(s), c, r) for s in (0, 1) for c in conds for r in strategies
    )
    for cell, rows in cells.items():
        assert sorted(rows) == sorted(keys), cell


def test_stages_standardize_states_once(trained, tmp_path, monkeypatch):
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    # standardized_residuals makes one of the two standardize_array calls.
    counts = {(grid, "standardize_array"): {}, (grid, "standardized_residuals"): {}}

    def counting(owner, name):
        frames = getattr(owner, name)

        def counted(*args):
            counts[owner, name][stage] = counts[owner, name].get(stage, 0) + 1
            return frames(*args)

        return counted

    for owner, name in counts:
        monkeypatch.setattr(owner, name, counting(owner, name))
    for stage in ("train-diffusion", "diagnose"):
        assert cli.main([stage, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert counts[grid, "standardize_array"] == {"train-diffusion": 2, "diagnose": 2}
    assert counts[grid, "standardized_residuals"] == {"train-diffusion": 1, "diagnose": 1}


@pytest.mark.parametrize("stage", ["train-vae", "train-mae", "train-diffusion"])
def test_train_stages_free_the_raw_dataset_before_the_fit(trained, tmp_path, monkeypatch, stage):
    out, config, _ = trained
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    read, fit = grid.read_fields, ad.fit
    raw, freed = [], []

    def reading(*args, **kwargs):
        batch = read(*args, **kwargs)
        raw.append(weakref.ref(batch.data))
        return batch

    def fitting(*args, **kwargs):
        freed.append([ref() is None for ref in raw])
        return fit(*args, **kwargs)

    monkeypatch.setattr(grid, "read_fields", reading)
    monkeypatch.setattr(ad, "fit", fitting)
    assert cli.main([stage, "--config", str(config), "--out", str(tmp_path)]) == 0
    # One dataset read, gone by the stage's one fit.
    assert len(raw) == 1 and freed == [[True]]


def test_non_utf8_variable_name_exits_3(trained, tmp_path, caplog):
    out, config, _ = trained
    blob = (out / "dataset.pyld").read_bytes()
    (tmp_path / "dataset.pyld").write_bytes(blob.replace(b"var1", b"\xffar1", 1))
    with caplog.at_level(logging.ERROR, logger="nimbus"):
        assert cli.main(["train-vae", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert "variable name is not valid UTF-8" in caplog.text
    assert str(tmp_path / "dataset.pyld") in caplog.text


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
