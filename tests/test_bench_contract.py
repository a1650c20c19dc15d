"""The benchmark's tracer still finds every name it wraps in ``nimbus``."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nimbus import cli, grid, pipeline
from nimbus.regularize import Strategy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs():
    # perfbench/layers.py patches module functions and methods by name; a
    # deleted or renamed one makes install() raise AttributeError.
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install()"],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_io_path_argument_positions():
    # make_io in perfbench/layers.py times grid.read_fields and grid.write_fields
    # and reads os.path.getsize(args[i]): the path is positional argument 0 of
    # read_fields and 1 of write_fields.
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for fn, index in ((grid.read_fields, 0), (grid.write_fields, 1)):
        params = list(inspect.signature(fn).parameters.values())
        assert params[index].name == "path", fn.__name__
        assert params[index].kind in positional, fn.__name__


def _bench_configs():
    """TRAIN_CONFIG and FORECAST_CONFIG, read from perfbench/run.py without importing it."""
    with open(os.path.join(ROOT, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("TRAIN_CONFIG", "FORECAST_CONFIG")
    }


# The config keys that perfbench/stage.py reads from cli.load_config's result.
STAGE_KEYS = (
    "forecast.train_frames",
    "mae.k",
    "mae.iters",
    "vae.regularizer",
    "vae.latent_channels",
    "vae.iters",
    "diffusion.hidden",
    "diffusion.blocks",
    "diffusion.emb_dim",
    "sampler.sigma_min",
    "sampler.sigma_max",
    "sampler.rho",
    "sampler.steps",
)


@pytest.mark.parametrize("name", ["TRAIN_CONFIG", "FORECAST_CONFIG"])
def test_bench_configs_load(tmp_path, name):
    # The benchmark writes these configs and its stages load them through
    # cli.load_config, then read STAGE_KEYS from the result.
    configs = _bench_configs()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(configs[name]))
    cfg = cli.load_config(str(path))
    for key in STAGE_KEYS:
        section, entry = key.split(".")
        assert entry in cfg[section], key


def test_check_train_reuses_one_bundle(tmp_path):
    # perfbench/stage.py's check_train trains a VAE and then a 3D-MAE at
    # iters 0 on one bundle, then reads the bundle's data, train slice, lat
    # and variable weights and both fitted spec tuples. The trainers may drop
    # their own reference to the bundle, but must leave it as it was.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_bench_configs()["TRAIN_CONFIG"]))
    cfg = cli.load_config(str(path))
    train, k = 24, cfg["mae"]["k"]
    batch = grid.gen_synthetic(seed=3, h=16, w=32, v=3, t=train + k + 4)
    data = batch.data.copy()
    bundle = pipeline.split_dataset(batch, train, k)
    pipeline.train_vae(bundle, {**cfg["vae"], "iters": 0}, Strategy(cfg["vae"]["regularizer"]), 0)
    pipeline.train_mae(bundle, {**cfg["mae"], "iters": 0}, 0)
    assert bundle.full is batch
    np.testing.assert_array_equal(bundle.full.data, data)
    np.testing.assert_array_equal(bundle.train, data[:train])
    np.testing.assert_array_equal(bundle.lat_w, grid.lat_weights(batch.lat))
    np.testing.assert_array_equal(bundle.var_w, [s.loss_weight for s in batch.specs])
    copy = pipeline.split_dataset(dataclasses.replace(batch, data=data), train, k)
    assert bundle.state_specs == copy.state_specs
    assert bundle.resid_specs == copy.resid_specs


VAMFM_LOSS_UNDER_TRACER = """
import numpy as np
import layers
from nimbus import models
from nimbus.regularize import Strategy

tracer = layers.install()
vae = models.Vae(2, models.VaeConfig(latent_channels=2, base_channels=4), np.random.default_rng(0))
batch = np.random.default_rng(1).standard_normal((1, 2, 16, 16)).astype(np.float32)
models.vae_loss(vae, batch, Strategy.VAMFM, 0.5, np.random.default_rng(2), np.ones(16), np.ones(2))
print(tracer.summary()["spans"].get("models.build_targets", [0])[0])
"""


def test_vae_loss_builds_targets_through_the_module_global():
    # models.vamfm_targets_ms times models.build_targets through the name
    # vae_loss looks up at call time; a target build inlined into vae_loss
    # would leave the span empty and the metric at 0.
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", VAMFM_LOSS_UNDER_TRACER],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "1"


EVALUATE_UNDER_TRACER = """
import json
import os
import sys

import numpy as np
import layers
from nimbus import cli, forecast, grid

tracer = layers.install()
out = sys.argv[1]
config = os.path.join(out, "config.json")
with open(config, "w") as fh:
    json.dump({"data": {"h": 16, "w": 32, "v": 3, "t": 40}, "forecast": {"train_frames": 24}}, fh)
assert cli.main(["gen-data", "--config", config, "--out", out]) == 0
data = grid.read_fields(os.path.join(out, "dataset.pyld"))
ens = forecast.EnsembleForecast(
    np.stack([data.data[-2:]] * 2), [[0, 0], [0, 1]], data.lat, data.lon, data.specs
)
forecast.write_forecast(ens, os.path.join(out, "forecast"))
assert cli.main(["evaluate", "--config", config, "--out", out, "--workers", "2"]) == 0
spans = tracer.summary()["spans"]
print(spans["verify.crps"][0], spans["verify.rank_histogram"][0])
"""


def test_evaluate_calls_the_scorers_in_the_calling_process(tmp_path):
    # perfbench/run.py's per_layer divides the verify.crps and
    # verify.rank_histogram spans by their calls in the stage process; with
    # the (lead, variable) slabs split across worker processes, the calling
    # process must still score a slab and draw the ties, or a traced score
    # run ends in ZeroDivisionError.
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", EVALUATE_UNDER_TRACER, str(tmp_path)],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    crps_calls, rank_calls = map(int, proc.stdout.split()[-2:])
    assert crps_calls >= 1
    assert rank_calls >= 1
