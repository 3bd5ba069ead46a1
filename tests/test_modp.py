import os
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from qehrhart import beta_bound, closure_check_modp, divided_mul, harmonic_basis_modp
from qehrhart.harmonics import (InconsistencyError, buchberger_moeller, gr_ideal,
                                harmonic_basis, ideal_rows, monomials_of_degree)
from qehrhart.linalg import Echelon
from qehrhart.modp import DividedPoly, PointCollisionError, binom_mod
from test_harmonics import assert_matches_monomial_rows, monomial_bm

HERE = os.path.dirname(__file__)

# planar loci, each with its prime; every locus is distinct mod its prime
GOLDEN_LOCI = (
    (2, [(0, 0), (1, 0), (0, 1)]),
    (2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
    (3, [(0, 0), (1, 1), (1, 2), (2, 1)]),
    (3, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 2)]),
    (5, [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2),
         (3, 3), (4, 2)]),
    (5, [(0, 0), (4, 1), (1, 3), (3, 3), (2, 0), (0, 4)]),
    (7, [(0, 0), (1, 2), (2, 1), (3, 5), (5, 3), (6, 6), (4, 0)]),
)


def golden_modp_lines():
    lines = []
    for p, pts in GOLDEN_LOCI:
        lines.append(f"# p={p} {pts}")
        for d, basis in enumerate(harmonic_basis_modp(pts, p)):
            lines.extend(f"{d}: {g!r}" for g in basis)
    return lines


def dp(p, n, terms):
    return DividedPoly(p, n, terms)


class TestDividedMul:
    def test_char_two_square(self):
        y = dp(2, 1, {(1,): 1})
        assert divided_mul(y, y).is_zero()

    def test_char_three(self):
        a = dp(3, 1, {(1,): 1})
        b = dp(3, 1, {(2,): 1})
        assert divided_mul(a, b).is_zero()  # binom(3,1) = 3 = 0

    def test_unit(self):
        g = dp(5, 2, {(2, 3): 4, (0, 1): 2})
        assert divided_mul(DividedPoly.one(5, 2), g) == g

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            divided_mul(dp(2, 1, {(1,): 1}), dp(3, 1, {(1,): 1}))

    def test_integral_scalars_reduce_mod_p(self):
        assert dp(5, 1, {(1,): Fraction(14, 2), (2,): -1}).terms == {
            (1,): 2, (2,): 4}

    def test_non_integer_scalar_refused(self):
        # refused, not truncated: 7/2 is 1 mod 5, and int() reads 3
        with pytest.raises(ValueError):
            dp(5, 1, {(1,): Fraction(7, 2)})

    def test_commutative_associative(self):
        rng = random.Random(2)
        for p in (2, 3, 5):
            for _ in range(10):
                polys = [dp(p, 2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                   rng.randint(1, p - 1) for _ in range(2)})
                         for _ in range(3)]
                a, b, c = polys
                assert divided_mul(a, b) == divided_mul(b, a)
                assert divided_mul(divided_mul(a, b), c) == divided_mul(
                    a, divided_mul(b, c))

    def test_beginners_binomial(self):
        # (a+b)^(d) = sum a^(d1) b^(d2) for degree-one a, b.  With a, b both
        # multiples of the same variable, the d-th divided power of c*y is
        # c^d y^(d), so the identity exercises the binomial multiplication
        # rule nontrivially.
        rng = random.Random(4)
        for p in (2, 3, 5):
            for _ in range(8):
                ca, cb = rng.randint(1, p - 1), rng.randint(1, p - 1)
                for d in range(1, 7):
                    lhs = dp(p, 1, {(d,): pow(ca + cb, d, p)})
                    rhs = dp(p, 1, {})
                    for d1 in range(d + 1):
                        term = divided_mul(dp(p, 1, {(d1,): pow(ca, d1, p)}),
                                           dp(p, 1, {(d - d1,): pow(cb, d - d1, p)}))
                        rhs = rhs + term
                    assert lhs == rhs, (p, ca, cb, d)


class TestHarmonicModP:
    def test_two_points_char_two(self):
        hb = harmonic_basis_modp([(0,), (1,)], 2)
        assert [len(b) for b in hb] == [1, 1]
        assert hb[1][0].terms == {(1,): 1}

    def test_single_point(self):
        hb = harmonic_basis_modp([(3, 4)], 7)
        assert [len(b) for b in hb] == [1]

    def test_segment_char_five(self):
        hb = harmonic_basis_modp([(0,), (1,), (2,)], 5)
        assert [len(b) for b in hb] == [1, 1, 1]
        assert hb[2][0].terms == {(2,): 1}

    def test_collision(self):
        with pytest.raises(PointCollisionError):
            harmonic_basis_modp([(0,), (2,)], 2)

    def test_field_pipeline_needs_reduced_points(self):
        # unreduced points would take the down-closed shortcut as they stand
        with pytest.raises(ValueError):
            harmonic_basis([(0,), (1,), (2,)], 2)

    def test_dimension_matches_size(self):
        rng = random.Random(9)
        for p in (3, 5, 7):
            for _ in range(8):
                pts = set()
                while len(pts) < rng.randint(1, min(6, p * p)):
                    pts.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
                hb = harmonic_basis_modp(sorted(pts), p)
                assert sum(len(b) for b in hb) == len(pts)

    def test_segment_family_matches_char_zero(self):
        # coordinate differences coprime to p keep the graded dimensions
        from qehrhart.harmonics import hilbert_qpoly
        for p in (5, 7):
            for v in (1, 2, 3):
                pts = [(k,) for k in range(v + 1)]
                dims = [len(b) for b in harmonic_basis_modp(pts, p)]
                char0 = hilbert_qpoly(pts)
                assert dims == [int(c) for c in char0.coeffs]

    def test_canonical_under_translation_and_order(self):
        # the free-column form is reduced echelon, so it depends only on the
        # dual space, which translation and point order leave unchanged
        rng = random.Random(4)
        for p in (2, 3, 5, 7):
            for _ in range(10):
                size = rng.randint(1, min(7, p * p))
                pts = set()
                while len(pts) < size:
                    pts.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
                pts = sorted(pts)
                want = [repr(b) for b in harmonic_basis_modp(pts, p)]
                t = (rng.randint(-9, 9), rng.randint(-9, 9))
                moved = [(x + t[0], y + t[1]) for x, y in pts]
                rng.shuffle(moved)
                assert [repr(b) for b in harmonic_basis_modp(moved, p)] == want

    def test_against_the_kernel_of_the_ideal_rows(self):
        # reference: top components of the vanishing ideal's basis, the
        # ideal rows of each degree and their kernel, without centring
        def reference(pts, p):
            gb = buchberger_moeller(pts, p)
            taus = [g.top_component().terms for g in gb.generators]
            n = gb.n
            out = []
            for d in range(max(sum(m) for m in gb.standard_monomials) + 1):
                mons = monomials_of_degree(n, d)
                kernel = Echelon.of(ideal_rows(taus, n, d), p).kernel(len(mons))
                out.append([DividedPoly(p, n, dict(zip(mons, v))) for v in kernel])
            return out

        rng = random.Random(12)
        for p in (2, 3, 5, 7, 11):
            for n in (1, 2, 3):
                for _ in range(6):
                    size = rng.randint(1, min(8, p ** n))
                    pts = set()
                    while len(pts) < size:
                        pts.add(tuple(rng.randrange(p) for _ in range(n)))
                    pts = sorted(pts)
                    assert harmonic_basis_modp(pts, p) == reference(pts, p), (p, pts)
                # a down-closed locus takes the monomial shortcut
                box = [z for z in iproduct(range(min(p, 3)), repeat=n)
                       if sum(z) <= 2]
                assert harmonic_basis_modp(box, p) == reference(box, p), (p, box)

    def test_golden_dump(self):
        with open(os.path.join(HERE, "golden", "modp_bases.txt")) as fh:
            assert fh.read().splitlines() == golden_modp_lines()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_graded_buchberger_moeller_is_top(p):
    rng = random.Random(p)
    for _ in range(40):
        n = rng.randint(1, 3)
        Z = sorted({tuple(rng.randrange(p) for _ in range(n))
                    for _ in range(rng.randint(1, min(p ** n, 12)))})
        full = buchberger_moeller(Z, p)
        graded = buchberger_moeller(Z, p, graded=True)
        assert graded.generators == [g.top_component() for g in full.generators]
        assert graded.standard_monomials == full.standard_monomials


@pytest.mark.parametrize("p", [2, 3, 5, 7])
class TestNewtonRowsModP:
    def test_random_loci(self, p):
        rng = random.Random(20 + p)
        for _ in range(40):
            n = rng.randint(1, 3)
            Z = sorted({tuple(rng.randrange(p) for _ in range(n))
                        for _ in range(rng.randint(1, min(p ** n, 12)))})
            rng.shuffle(Z)
            assert_matches_monomial_rows(Z, p)

    def test_constant_coordinate_and_collinear(self, p):
        for Z in ([(x, 1) for x in range(p)],
                  [(1, y, x) for x in range(p) for y in range(2)],
                  [(k, 2 * k % p) for k in range(p)],
                  [(k, 2 * k % p, k) for k in range(p)],
                  [(2 * k % p, k) for k in range(p)]):
            assert_matches_monomial_rows(Z, p)

    def test_loci_colliding_mod_p(self, p):
        rng = random.Random(30 + p)
        for _ in range(10):
            n = rng.randint(1, 3)
            Z = {tuple(rng.randrange(p) for _ in range(n))
                 for _ in range(rng.randint(1, min(p ** n, 8)))}
            z = rng.choice(sorted(Z))
            Z = sorted(Z | {tuple(x + p * rng.randint(-1, 1) for x in z[:-1])
                            + (z[-1] + p,)})
            for run in (monomial_bm, buchberger_moeller):
                with pytest.raises(InconsistencyError):
                    run(Z, p)
            with pytest.raises(InconsistencyError):
                gr_ideal(Z, p)


class TestEchelonModP:
    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_span(self, p):
        # dim and contains against the span listed by every combination
        rng = random.Random(p)
        for _ in range(60):
            k = rng.randint(1, 3)
            rows = [[rng.randrange(p) for _ in range(k)]
                    for _ in range(rng.randint(0, 3))]
            ech = Echelon(p)
            for r in rows:
                ech.add(r)
            span = {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p
                          for j in range(k))
                    for cs in iproduct(range(p), repeat=len(rows))}
            assert p ** ech.dim == len(span)
            for v in iproduct(range(p), repeat=k):
                assert ech.contains(list(v)) == (v in span)


class TestClosureModP:
    def test_trivial(self):
        assert closure_check_modp([(0,), (1,)], [(0,)], 5)

    def test_small(self):
        assert closure_check_modp([(0,), (1,)], [(0,), (1,)], 5)

    def test_randomized(self):
        rng = random.Random(1)
        for p in (2, 3, 5, 7):
            for _ in range(20):
                cap = min(5, p * p)
                A = set()
                while len(A) < rng.randint(1, cap):
                    A.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
                B = set()
                while len(B) < rng.randint(1, cap):
                    B.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
                assert closure_check_modp(sorted(A), sorted(B), p)


class TestBetaBound:
    def test_char_zero(self):
        for r in range(1, 9):
            for rp in range(1, 9):
                assert beta_bound(r, rp, 0) == r + rp - 1

    def test_char_two(self):
        assert beta_bound(2, 2, 2) == 2

    def test_r_one(self):
        for p in (0, 2, 3, 5):
            assert beta_bound(1, 4, p) == 4

    def test_lucas(self):
        from math import comb
        for p in (2, 3, 5):
            for n in range(12):
                for k in range(n + 1):
                    assert binom_mod(n, k, p) == comb(n, k) % p

    def test_sumset_bound_on_progressions(self):
        # every pair of arithmetic progressions in F_p realizes the bound
        for p in (2, 3, 5, 7):
            for r, rp in iproduct(range(1, min(6, p + 1)), repeat=2):
                for a, d, b, e in iproduct(range(p), range(1, p),
                                           range(p), range(1, p)):
                    Z = {(a + k * d) % p for k in range(r)}
                    Zp = {(b + k * e) % p for k in range(rp)}
                    if len(Z) < r or len(Zp) < rp:
                        continue
                    S = {(x + y) % p for x in Z for y in Zp}
                    assert len(S) >= beta_bound(r, rp, p)

    def test_bound_realized_in_dual_space(self):
        # one-variable dual spaces: top degree of the sumset space is its
        # size minus one, so the count bound is the degree bound
        p = 5
        Z = [(k % p,) for k in range(3)]
        S = sorted({((x[0] + y[0]) % p,) for x in Z for y in Z})
        hb = harmonic_basis_modp(S, p)
        assert len(hb) - 1 >= beta_bound(3, 3, p) - 1
