"""The runtime imports nothing outside the standard library and numpy."""

import ast
import pathlib
import sys

import ballschwarz

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ballschwarz"}


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_is_numpy_only():
    sources = sorted(pathlib.Path(ballschwarz.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = {(path.name, root) for path in sources for root in _imported_roots(path) if root not in ALLOWED}
    assert not foreign
