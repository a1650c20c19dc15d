"""The benchmark's tracer still finds every name it wraps in ``nimbus``."""

import ast
import inspect
import json
import os
import subprocess
import sys

import pytest

from nimbus import cli, grid

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
