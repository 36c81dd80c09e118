"""Every name a module exports has a caller in the package itself."""

import ast
import pathlib

import ballschwarz

# exported with no caller yet, and why it stays
UNCALLED = {
    "envelope_lower": "the public m_c^n(r) = M_c^n(-r); the CLI and the sandwich take M and m from one "
                      "envelope_upper call over the radii and their reflections",
}


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
    assert {name for exporter, name in exports if not _has_caller(modules, exporter, name)} == set(UNCALLED)


def test_the_hopf_scan_is_the_one_caller_of_the_decay_coefficient():
    # a Hopf row takes T and d_n from one cap, so no other code pairs the scan with its own d_n
    callers = {(module, func.name) for module, tree in _modules().items() for func in tree.body
               if isinstance(func, ast.FunctionDef) for node in ast.walk(func) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "hyperbolic_decay_coefficient"}
    assert callers == {("verify", "hopf_failure_scan")}


def test_the_one_private_import_between_modules_is_the_radius_convention():
    # poisson takes the radius check, the result shape and the axis kernel with its peak already taken
    # from envelope; every module that takes an integer argument takes the one integer rule from errors;
    # no other private name crosses a module
    imported = {(module, node.module, alias.name) for module, tree in _modules().items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if alias.name.startswith("_")}
    integer_rule = {(module, "errors", "_integer") for module in ("cli", "envelope", "poisson", "specfn", "verify")}
    assert imported == {("poisson", "envelope", "_radii"), ("poisson", "envelope", "_shaped"),
                        ("poisson", "envelope", "_axis_kernel"), *integer_rule}
