"""The package is stdlib-only and exact: every module imports only the
package itself or the standard library, none holds a float literal or
calls float(), and every true division has a Fraction on its left.

It has one number rule: a value is an int, and a Fraction only where the
value is not an integer.  ``qseries._exact`` decides it, and every other
``Fraction(...)`` call divides."""

import ast
import pathlib
import sys
from fractions import Fraction

import pytest

import qehrhart
from qehrhart import LatticePolytope
from qehrhart.harmonics import gr_component, harmonic_basis
from qehrhart.linalg import Echelon, Mat, rref, solve

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fraction_calls_divide(path):
    # Fraction(x) of one argument converts, which is the helper's work alone;
    # elsewhere a Fraction is built only as a quotient: Fraction(a, b), or
    # Fraction(a) / b
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            allowed.add(id(node.left))
        if (path.name == "qseries.py" and isinstance(node, ast.FunctionDef)
                and node.name == "_exact"):
            allowed.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"):
            assert len(node.args) == 2 or id(node) in allowed, (
                f"{path.name}:{node.lineno}: Fraction(...) call that does "
                "not divide")


# -- the number rule on results -------------------------------------------

def kinds(values):
    """The set of "int" and "fraction" over exact values, each checked
    against the rule: no float, no Fraction with denominator 1."""
    out = set()
    for x in values:
        if type(x) is int:
            out.add("int")
        else:
            assert type(x) is Fraction and x.denominator != 1, repr(x)
            out.add("fraction")
    return out


# a locus whose dual space and graded ideal have both kinds of coefficient
MIXED = [(0, 0), (1, 1), (2, 3), (3, 1), (1, 3)]


def coefficients(polys):
    return [c for f in polys for c in f.terms.values()]


def test_harmonic_basis_over_q():
    assert kinds(coefficients(harmonic_basis(MIXED).elements())) == {
        "int", "fraction"}


def test_harmonic_basis_over_fp():
    assert kinds(coefficients(harmonic_basis(MIXED, 5).elements())) == {"int"}


def test_gr_component():
    comp, _ = gr_component(MIXED, 2)
    assert kinds(coefficients(comp)) == {"int", "fraction"}


def test_rref():
    ech, piv = rref(Mat([[2, 1, 4], [0, 3, 3], [0, 0, 0]]))
    assert piv == [0, 1]
    assert ech.entries == [[1, 0, Fraction(3, 2)], [0, 1, 1], [0, 0, 0]]
    assert kinds(x for row in ech.entries for x in row) == {"int", "fraction"}


def test_echelon_kernel():
    kernel = Echelon.of([[2, 1, 0]]).kernel(3)
    assert kernel == [[Fraction(-1, 2), 1, 0], [0, 0, 1]]
    assert kinds(x for v in kernel for x in v) == {"int", "fraction"}


def test_solve():
    x = solve(Mat([[2, 0], [0, 3]]), [1, Fraction(9, 3)])
    assert x == [Fraction(1, 2), 1]
    assert kinds(x) == {"int", "fraction"}


def test_hull_coords_rational():
    P = LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 2, 0)])  # in a plane
    u = P.hull_coords_rational((1, Fraction(1, 2), 0))
    v = P.hull_coords_rational((1, 1, 0), scale=2)
    assert kinds(u) == {"int", "fraction"} and kinds(v) == {"int"}
    assert P.hull_coords((1, 1, 0), scale=2) == tuple(v)
