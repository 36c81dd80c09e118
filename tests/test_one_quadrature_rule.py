"""Every fixed quadrature rule of the package comes from ``quadrature.kronrod_rule``."""

import ast
import pathlib
import re

import ballschwarz

# node builders of numpy and scipy: the Gauss rules of numpy.polynomial (leggauss, chebgauss, hermgauss,
# hermegauss, laggauss), scipy.special's roots_* and scipy.integrate's fixed-order and sampled rules
_NODE_BUILDER = re.compile(r"^(leg|cheb|herm|herme|lag)gauss$|^roots_|^(fixed_quad|trapezoid|trapz|simpson|romb)$")


def _modules():
    sources = sorted(pathlib.Path(ballschwarz.__file__).parent.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sources}


def _names(tree):
    """Every name, attribute and imported module path or name in a parsed module, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((part, node.lineno) for part in (node.module or "").split("."))
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((part, node.lineno) for alias in node.names for part in alias.name.split("."))


def _leaves(node):
    """The entries of a (nested) list or tuple literal, a unary minus taken off its operand."""
    for elt in node.elts:
        if isinstance(elt, (ast.List, ast.Tuple)):
            yield from _leaves(elt)
        else:
            yield elt.operand if isinstance(elt, ast.UnaryOp) else elt


def _float_tables(tree):
    """Lines of list or tuple literals of 5 or more float constants, some of them written to 12 digits or
    more: a rule's nodes or weights written out (a grid such as [-0.8, -0.4, 0.0, 0.4, 0.8] is not one)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.List, ast.Tuple)):
            leaves = list(_leaves(node))
            if (len(leaves) >= 5 and all(isinstance(v, ast.Constant) and type(v.value) is float for v in leaves)
                    and any(len(repr(abs(v.value))) > 13 for v in leaves)):
                yield node.lineno


def test_no_module_but_quadrature_builds_quadrature_nodes():
    found = {(module, name, line) for module, tree in _modules().items() if module != "quadrature"
             for name, line in _names(tree) if name == "polynomial" or _NODE_BUILDER.search(name)}
    found |= {(module, "float table", line) for module, tree in _modules().items() if module != "quadrature"
              for line in _float_tables(tree)}
    assert found == set()


def test_the_engine_rule_is_written_out_once_and_the_fixed_rules_take_it():
    modules = _modules()
    # quadrature writes out the K21 nodes and weights and the G10 weights, which the guard above would see
    assert len(set(_float_tables(modules["quadrature"]))) == 2
    # the image rule of the harmonic tails and the plane-wave coefficients are the package's fixed rules
    takers = {module for module, tree in modules.items() if module not in ("quadrature", "__init__")
              for name, _ in _names(tree) if name == "kronrod_rule"}
    assert takers == {"envelope", "verify"}
