"""The package is stdlib-only and exact: every module imports only the
package itself or the standard library, none holds a float literal or
calls float(), and every true division has a Fraction on its left."""

import ast
import pathlib
import sys

import pytest

import qehrhart

MODULES = sorted(pathlib.Path(qehrhart.__file__).parent.rglob("*.py"))


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"halgebra", "harmonics", "jsonio",
                                         "linalg", "qseries", "polytope"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stdlib_only_and_no_floats(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            roots = []
        for root in roots:
            assert root == "qehrhart" or root in sys.stdlib_module_names, (
                f"{where}: non-stdlib import {root}")
        assert not (isinstance(node, ast.Constant)
                    and isinstance(node.value, float)), f"{where}: float literal"
        assert not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"), f"{where}: float() call"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_true_division_by_fractions_only(path):
    # a / b is exact only while a is a Fraction: with ints on both sides it
    # is a float, so the left operand of every / is a Fraction(...) call,
    # and /= (whose left operand is a plain name) is not used
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            left = getattr(node, "left", None)
            assert (isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Name)
                    and left.func.id == "Fraction"), (
                f"{where}: true division without a Fraction(...) left operand")
