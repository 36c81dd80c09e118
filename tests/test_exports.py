"""Every name a module exports has a caller in the package itself, and every private function the
benchmark's tracer wraps is defined in the module where the tracer looks for it."""

import ast
import importlib
import inspect
import pathlib

import ballschwarz

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _modules():
    sources = sorted(pathlib.Path(ballschwarz.__file__).parent.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sources if path.stem != "__init__"}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _definition_lines(tree, name):
    """Line span of the module-level def or class of that name, empty if it has none."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def _has_caller(modules, exporter, name):
    own = _definition_lines(modules[exporter], name)
    for module, tree in modules.items():
        for node in ast.walk(tree):
            named = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if named == name and (module != exporter or node.lineno not in own):
                return True
    return False


def test_every_export_has_a_caller_in_the_package():
    modules = _modules()
    exports = [(exporter, name) for exporter, tree in modules.items() for name in _exports(tree)]
    assert len(exports) > len(modules)
    assert {name for exporter, name in exports if not _has_caller(modules, exporter, name)} == set()


def test_the_hopf_scan_is_the_one_caller_of_the_decay_coefficient():
    # a Hopf row takes T and d_n from one cap, so no other code pairs the scan with its own d_n
    callers = {(module, func.name) for module, tree in _modules().items() for func in tree.body
               if isinstance(func, ast.FunctionDef) for node in ast.walk(func) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "hyperbolic_decay_coefficient"}
    assert callers == {("verify", "hopf_failure_scan")}


def test_the_one_private_import_between_modules_is_the_radius_convention():
    # poisson and verify take the radius check and the result shape from envelope, and poisson the axis
    # kernel with its peak already taken; the integer, unit-vector and base-value rules come from errors,
    # and the engine's rounding floor from quadrature; no other private name crosses a module
    imported = {(module, node.module, alias.name) for module, tree in _modules().items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if alias.name.startswith("_")}
    assert imported == {
        ("poisson", "envelope", "_radii"), ("poisson", "envelope", "_shaped"), ("poisson", "envelope", "_axis_kernel"),
        ("verify", "envelope", "_radii"), ("verify", "envelope", "_shaped"),
        ("envelope", "quadrature", "_ROUNDING_FLOOR"),
        ("cli", "errors", "_integer"), ("envelope", "errors", "_integer"), ("poisson", "errors", "_integer"),
        ("specfn", "errors", "_integer"), ("verify", "errors", "_integer"),
        ("hilbert_ball", "errors", "_unit"), ("poisson", "errors", "_unit"), ("verify", "errors", "_unit"),
        ("disc", "errors", "_base_value"), ("envelope", "errors", "_base_value"), ("verify", "errors", "_base_value"),
    }


def test_every_private_traced_function_is_defined_where_the_tracer_looks():
    # the tracer wraps ``PRIVATE_TRACED[layer]`` only where ``fn.__module__`` is ``ballschwarz.<layer>``: a
    # function moved to another module (or a name bound there by import) is skipped without a word, and its
    # counts read 0
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    traced = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "PRIVATE_TRACED" for t in node.targets)]
    assert len(traced) == 1 and traced[0]
    for layer, names in traced[0].items():
        module = importlib.import_module(f"ballschwarz.{layer}")
        for name in names:
            fn = getattr(module, name)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (layer, name)
