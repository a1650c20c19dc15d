"""The benchmark's tracer still finds every name it wraps in ``nimbus``."""

import inspect
import os
import subprocess
import sys

from nimbus import grid

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
