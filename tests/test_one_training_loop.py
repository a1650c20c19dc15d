"""Every model trains through ``autodiff.fit``.

``fit`` is the one place in ``src/`` that builds the optimizer or takes a
training step: an ``AdamW(...)`` or ``mean_grad_step(...)`` call anywhere
else, called as a name or an attribute, is a second training loop.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAINING_CALLS = {"AdamW", "mean_grad_step"}


def _calls(node, where):
    """(where, name) for each training call under ``node``; ``where`` names the enclosing def."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in TRAINING_CALLS:
                yield where, name
        yield from _calls(child, inner)


def test_only_fit_builds_the_optimizer_or_steps_it():
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "nimbus", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.basename(path)[: -len(".py")]
        found += list(_calls(tree, module))
    assert sorted(found) == [("autodiff.fit", "AdamW"), ("autodiff.fit", "mean_grad_step")]
