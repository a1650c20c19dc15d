"""The benchmark's tracer still finds every name it wraps in ``nimbus``."""

import os
import subprocess
import sys

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
