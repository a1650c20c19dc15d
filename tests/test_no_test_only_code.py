"""Every definition in ``src/`` has a caller that is not a test.

A module-level function or class, or a method, counts as called when code in
``src/nimbus/`` or in the benchmark's ``perfbench/`` (its own tests aside)
names it, as a name or an attribute, outside the definition itself. Names are
matched bare, so a definition that shares its name with anything else in use
passes: the scan finds code that nothing names at all. Dunder methods are
called by the language and are exempt.
"""

import ast
import collections
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(paths):
    trees = {}
    for path in paths:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
    return trees


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def _names(tree):
    """How often each Name id and Attribute attr occurs in ``tree``."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_src_definition_has_a_caller_outside_the_tests():
    src = sorted(glob.glob(os.path.join(ROOT, "src", "nimbus", "*.py")))
    bench = [
        path
        for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
        if not os.path.basename(path).startswith("test_")
    ]
    assert src and bench
    trees = _parse(src + bench)
    everywhere = sum(map(_names, trees.values()), collections.Counter())
    uncalled = []
    for path in src:
        for qualname, node in _definitions(trees[path]):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            # Its own body may name it (recursion); that is not a caller.
            if everywhere[node.name] == _names(node)[node.name]:
                uncalled.append(f"{os.path.basename(path)}: {qualname}")
    assert not uncalled, f"defined in src/ but called only from tests, if at all: {uncalled}"
