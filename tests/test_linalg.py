import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qehrhart.linalg import Echelon, Mat, nullspace, rref, solve


def test_rref_identity():
    ech, piv = rref(Mat([[1, 0], [0, 1]]))
    assert piv == [0, 1]
    assert ech.entries == [[1, 0], [0, 1]]


def test_rref_rank_one():
    ech, piv = rref(Mat([[1, 1], [1, 1]]))
    assert piv == [0]
    assert Echelon.of([[1, 1], [1, 1]]).dim == 1


def test_vandermonde_rank():
    # determinant is the product of differences, 2 for {0,1,2}
    M = Mat([[z ** i for i in range(3)] for z in (0, 1, 2)])
    assert Echelon.of(M.entries).dim == 3


def test_nullspace_zero_matrix():
    ns = nullspace(Mat([[0, 0, 0]]))
    assert len(ns) == 3


def test_nullspace_line():
    ns = nullspace(Mat([[1, 1]]))
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and any(v)


def test_solve_inconsistent():
    assert solve(Mat([[1], [1]]), [1, 2]) is None


def test_solve_unique():
    x = solve(Mat([[2, 0], [0, 4]]), [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]


small = st.integers(-6, 6)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    M = Mat(rows)
    ns = nullspace(M)
    assert Echelon.of(M.entries).dim + len(ns) == M.cols
    for v in ns:
        assert all(x == 0 for x in M.mul_vec(v))


def test_echelon_rows_primitive_over_q():
    ech = Echelon.of([[2, 4, 0], [Fraction(3, 2), 0, 3], [6, 3, 12]])
    assert ech.dim == 3
    for _, row, _ in ech.pivots:
        assert gcd(*row) == 1


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rref_preserves_row_space(rows):
    M = Mat(rows)
    ech, piv = rref(M)
    before = Echelon()
    for r in M.entries:
        before.add(r)
    after = Echelon()
    for r in ech.entries:
        if any(r):
            after.add(r)
    assert before.dim == after.dim == len(piv)
    for r in ech.entries:
        assert before.contains(r)
    for r in M.entries:
        assert after.contains(r)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=10),
       st.fractions(min_value=-50, max_value=50, max_denominator=10))
@settings(max_examples=60, deadline=None)
def test_exact_arithmetic_round_trip(a, b):
    assert (a + b) - b == a


def strip_each_step_reduce(ech, v, combo=None):
    """Reference elimination: over Q combine as d*r - c*pivot and strip the
    content of the row and its combination after every step."""
    p = ech.p
    r = [x % p for x in v] if p else list(v)
    combo = None if combo is None else dict(combo)
    for pc, prow, pcombo in ech.pivots:
        c = r[pc]
        if not c:
            continue
        d = 1 if p else prow[pc]
        r = [d * a - c * b for a, b in zip(r, prow)]
        if combo is not None:
            combo = {m: d * x for m, x in combo.items()}
            for m, x in pcombo.items():
                combo[m] = combo.get(m, 0) - c * x
        if p:
            r = [a % p for a in r]
            if combo is not None:
                combo = {m: x % p for m, x in combo.items()}
            continue
        g = 0
        for a in r + ([] if combo is None else list(combo.values())):
            g = gcd(g, a)
        if g > 1:
            r = [a // g for a in r]
            if combo is not None:
                combo = {m: x // g for m, x in combo.items()}
    return r, combo


@pytest.mark.parametrize("p", [0, 5])
@pytest.mark.parametrize("track", [False, True])
def test_reduce_matches_strip_each_step(p, track):
    rng = random.Random(31 + p)
    for _ in range(80):
        k = rng.randint(1, 6)
        ech, ref = Echelon(p), Echelon(p)
        rows = []
        for i in range(rng.randint(1, 8)):
            if rows and rng.random() < 0.3:
                # a combination of earlier rows: dependent
                v = [sum(rng.randint(-3, 3) * r[j] for r in rows)
                     for j in range(k)]
            else:
                v = [rng.randint(-9, 9) for _ in range(k)]
            rows.append(v)
            combo = {i: 1} if track else None
            got = ech.reduce(v, combo)
            want = strip_each_step_reduce(ref, v, combo)
            assert got == want
            assert ech.push(*got) == ref.push(*want)
            assert ech.pivots == ref.pivots
