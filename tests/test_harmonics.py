import heapq
import os
import random
from fractions import Fraction
from math import prod

import pytest

from qehrhart import (LatticePolytope, MultiPoly, PointLocus, apolarity_pair,
                      buchberger_moeller, closure_check, divided_mul,
                      gr_component, gr_ideal, harmonic_basis,
                      harmonic_basis_modp, minkowski_sum)
from qehrhart.halgebra import component
from qehrhart.harmonics import (HarmonicBasis, InconsistencyError, coord_row,
                                dump_poly, grlex_key, hilbert_qpoly,
                                monomials_of_degree, span_products)
from qehrhart.linalg import Echelon
from qehrhart.qseries import QPoly
from oracle import TooLargeError, buchberger, product_gens_oracle

HERE = os.path.dirname(__file__)


def poly(n, terms):
    return MultiPoly(n, terms)


class TestBuchbergerMoeller:
    def test_segment_locus(self):
        gb = buchberger_moeller([(k,) for k in range(4)])
        assert gb.standard_monomials == [(0,), (1,), (2,), (3,)]
        [g] = gb.generators
        # x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
        assert g.terms == {(4,): Fraction(1), (3,): Fraction(-6),
                           (2,): Fraction(11), (1,): Fraction(-6)}

    def test_single_point(self):
        gb = buchberger_moeller([(5, 7)])
        assert gb.standard_monomials == [(0, 0)]
        assert sorted(dump_poly(g) for g in gb.generators) == ["x1 - 5", "x2 - 7"]

    def test_case_triangle_standard_monomials(self, case_triangle):
        gb = buchberger_moeller(case_triangle.lattice_points(1))
        assert sorted(gb.standard_monomials, key=grlex_key) == [
            (0, 0), (0, 1), (1, 0), (0, 2)]

    def test_generators_vanish(self, case_triangle):
        Z = list(case_triangle.lattice_points(2))
        gb = buchberger_moeller(Z)
        for g in gb.generators:
            assert all(g.evaluate(z) == 0 for z in Z)

    def test_reduced(self, case_triangle):
        gb = buchberger_moeller(case_triangle.lattice_points(2))
        lts = gb.leading_terms()
        for i, a in enumerate(lts):
            for j, b in enumerate(lts):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b))
        std = set(gb.standard_monomials)
        for g in gb.generators:
            tail = set(g.terms) - {g.leading_monomial()}
            assert tail <= std


def assert_graded_is_top(Z, p=0):
    full = buchberger_moeller(Z, p)
    graded = buchberger_moeller(Z, p, graded=True)
    assert graded.generators == [g.top_component() for g in full.generators]
    assert graded.standard_monomials == full.standard_monomials


class TestGradedBuchbergerMoeller:
    def test_random_loci(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(1, 3)
            Z = sorted({tuple(rng.randint(-4, 4) for _ in range(n))
                        for _ in range(rng.randint(1, 12))})
            assert_graded_is_top(Z)

    def test_case_triangle_dilates(self, case_triangle):
        for m in range(1, 5):
            assert_graded_is_top(list(case_triangle.lattice_points(m)))


def monomial_bm(points, p=0, graded=False):
    """Reference Buchberger-Moeller on monomial evaluation rows x^a at the
    points as given: (standard monomials, generators), the generators
    normalised as in ``buchberger_moeller``."""
    n = len(points[0])
    one = (0,) * n
    heap = [(grlex_key(one), one)]
    seen = {one}
    ech = Echelon(p)
    std, gens, lead_terms = [], [], []
    deg = 0
    while heap:
        (d, _), mono = heapq.heappop(heap)
        if any(all(x <= y for x, y in zip(lt, mono)) for lt in lead_terms):
            continue
        if graded and d > deg:
            deg = d
            for *_, pcombo in ech.pivots:
                pcombo.clear()
        vec = [prod(x ** e for x, e in zip(z, mono)) for z in points]
        vec, combo = ech.reduce(vec, {mono: 1})
        if not ech.push(vec, combo):
            lead_terms.append(mono)
            gens.append(MultiPoly(n, {m: Fraction(c, combo[mono])
                                      for m, c in combo.items() if c}))
            continue
        std.append(mono)
        for i in range(n):
            suc = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            if suc not in seen:
                seen.add(suc)
                heapq.heappush(heap, (grlex_key(suc), suc))
    if len(std) != len(points):
        raise InconsistencyError("standard monomial count differs from locus size")
    gens.sort(key=lambda g: grlex_key(g.leading_monomial()))
    return std, gens


def assert_matches_monomial_rows(Z, p=0):
    """Newton-row elimination against ``monomial_bm``: standard monomials,
    ungraded and graded generators, ``gr_ideal`` and, over Q, the count."""
    std, gens = monomial_bm(Z, p)
    _, tops = monomial_bm(Z, p, graded=True)
    for graded, want in ((False, gens), (True, tops)):
        gb = buchberger_moeller(Z, p, graded=graded)
        assert gb.standard_monomials == std, (Z, p, graded)
        assert gb.generators == want, (Z, p, graded)
    assert gr_ideal(Z, p).generators == tops, (Z, p)
    if not p:
        degrees = [sum(m) for m in std]
        assert hilbert_qpoly(Z).coeffs == [degrees.count(d) for d in
                                           range(max(degrees) + 1)]


# a constant coordinate, and collinear loci
SPECIAL_LOCI = ([(x, 3) for x in range(4)],
                [(1, y, x) for x in range(4) for y in range(2)],
                [(k, 2 * k) for k in range(4)],
                [(k, 2 * k, k) for k in range(4)],
                [(2 * k, k) for k in range(4)])


class TestNewtonRows:
    def test_random_loci(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 3)
            Z = sorted({tuple(rng.randint(-4, 4) for _ in range(n))
                        for _ in range(rng.randint(1, 14))})
            rng.shuffle(Z)
            assert_matches_monomial_rows(Z)

    def test_constant_coordinate_and_collinear(self):
        for Z in SPECIAL_LOCI:
            assert_matches_monomial_rows(Z)
            assert_matches_monomial_rows([tuple(-x for x in z) for z in Z])

    def test_case_triangle_dilates(self, case_triangle):
        for m in range(1, 9):
            assert_matches_monomial_rows(list(case_triangle.lattice_points(m)))

    def test_counts_invariant_under_translation_and_reflection(self, case_triangle):
        rng = random.Random(12)
        loci = [list(case_triangle.lattice_points(m)) for m in (3, 5)]
        for _ in range(30):
            n = rng.randint(1, 3)
            loci.append(sorted({tuple(rng.randint(-3, 3) for _ in range(n))
                                for _ in range(rng.randint(1, 12))}))
        for Z in loci:
            want = hilbert_qpoly(Z)
            n = len(Z[0])
            t = [rng.randint(-7, 7) for _ in range(n)]
            i = rng.randrange(n)
            moved = [tuple(x + s for x, s in zip(z, t)) for z in Z]
            flipped = [z[:i] + (-z[i],) + z[i + 1:] for z in Z]
            assert hilbert_qpoly(moved) == want, Z
            assert hilbert_qpoly(flipped) == want, Z

    def test_large_case_triangle_dilates(self, case_triangle):
        # pinned from monomial-row elimination: 1, 2, ..., 3m/2, then
        # 3m/2, 3m/2 - 3, ..., 3, then 1
        for m, N in ((16, 409), (24, 901)):
            Z = list(case_triangle.lattice_points(m))
            assert len(Z) == N
            top = 3 * m // 2
            want = list(range(1, top + 1)) + list(range(top, 0, -3)) + [1]
            assert hilbert_qpoly(Z).coeffs == want


class TestGrIdeal:
    def test_segment(self):
        gr = gr_ideal([(k,) for k in range(3)])
        assert [g.terms for g in gr.generators] == [{(3,): Fraction(1)}]

    def test_case_triangle_ideal(self, case_triangle):
        gr = gr_ideal(case_triangle.lattice_points(1))
        got = {dump_poly(g) for g in gr.generators}
        # ideal equality with (x1^2 - x2^2, 2 x1 x2 - x2^2, x2^3): the
        # reduced basis scales the middle generator monic
        assert got == {"x1^2 - x2^2", "x1*x2 - 1/2*x2^2", "x2^3"}

    def test_shifted_monomial(self, unit_triangle):
        gr = gr_ideal(unit_triangle.lattice_points(1))
        assert all(len(g.terms) == 1 for g in gr.generators)

    def test_component_dims(self):
        # segment of length 2: degree-3 piece is spanned by x^3 alone
        basis, mons = gr_component([(k,) for k in range(3)], 3)
        assert len(basis) == 1 and basis[0].terms == {(3,): Fraction(1)}
        basis2, _ = gr_component([(0, 0), (1, 1), (2, 1), (1, 2)], 2)
        assert len(basis2) == 2
        basis0, _ = gr_component([(0, 0), (1, 1)], 0)
        assert basis0 == []

    def test_oracle_same_standard_monomials(self, case_triangle):
        for m in (1, 2):
            Z = case_triangle.lattice_points(m)
            assert (gr_ideal(Z).standard_monomials
                    == buchberger_moeller(list(Z)).standard_monomials)


class TestHarmonicBasis:
    def test_case_triangle_grade1(self, case_triangle):
        hb = harmonic_basis(case_triangle.lattice_points(1))
        flat = [dump_poly(g, names=["y1", "y2"]) for g in hb.elements()]
        assert flat == ["1", "y1", "y2", "y1^2 + y1*y2 + y2^2"]

    def test_case_triangle_grade2(self, case_triangle):
        hb = harmonic_basis(case_triangle.lattice_points(2))
        assert [len(b) for b in hb.by_degree] == [1, 2, 3, 3, 1]
        quartic = hb.by_degree[4][0]
        assert quartic.terms == {(4, 0): 1, (3, 1): 2, (2, 2): 3,
                                 (1, 3): 2, (0, 4): 1}

    def test_shifted_monomial_basis(self, unit_triangle):
        hb = harmonic_basis(unit_triangle.lattice_points(2))
        assert all(len(g.terms) == 1 for g in hb.elements())
        assert hb.dimension() == 6

    def test_golden_dump(self, case_triangle):
        lines = []
        for m in (0, 1, 2):
            hb = harmonic_basis(case_triangle.lattice_points(m))
            lines.append(f"# grade {m}")
            for basis in hb.by_degree:
                for g in basis:
                    lines.append(dump_poly(g, names=["y1", "y2"]))
        with open(os.path.join(HERE, "golden", "case_triangle_bases.txt")) as fh:
            assert fh.read().splitlines() == lines

    def test_hilbert_consistency(self, case_triangle):
        rng = random.Random(3)
        loci = [case_triangle.lattice_points(m) for m in (1, 2)]
        for _ in range(6):
            pts = {(rng.randint(-3, 3), rng.randint(-3, 3))
                   for _ in range(rng.randint(1, 7))}
            loci.append(PointLocus(2, sorted(pts)))
        for Z in loci:
            hb = harmonic_basis(Z)
            assert hb.hilbert()(1) == len(Z)
            assert hb.hilbert() == hilbert_qpoly(Z)
            # degree bound: top degree at most |Z| - 1
            assert len(hb.by_degree) - 1 <= len(Z) - 1

    def test_perp_consistency(self, case_triangle):
        Z = case_triangle.lattice_points(1)
        hb = harmonic_basis(Z)
        for d in range(len(hb.by_degree)):
            comp, _ = gr_component(Z, d)
            for f in comp:
                for g in hb.by_degree[d]:
                    assert apolarity_pair(f, g) == 0

    def test_nesting(self):
        rng = random.Random(11)
        for _ in range(5):
            big = sorted({(rng.randint(-2, 2), rng.randint(-2, 2))
                          for _ in range(rng.randint(2, 6))})
            small = big[: rng.randint(1, len(big))]
            Vb = harmonic_basis(PointLocus(2, big))
            Vs = harmonic_basis(PointLocus(2, small))
            # every basis element of the small space lies in the big one
            from qehrhart.linalg import Echelon
            for d, basis in enumerate(Vs.by_degree):
                mons = sorted(monomials_of_degree(2, d), key=grlex_key,
                              reverse=True)
                idx = {m: i for i, m in enumerate(mons)}
                ech = Echelon()
                if d < len(Vb.by_degree):
                    for g in Vb.by_degree[d]:
                        row = [Fraction(0)] * len(mons)
                        for mo, c in g.terms.items():
                            row[idx[mo]] = c
                        ech.add(row)
                for g in basis:
                    row = [Fraction(0)] * len(mons)
                    for mo, c in g.terms.items():
                        row[idx[mo]] = c
                    assert ech.contains(row)


class TestApolarity:
    def test_examples(self):
        assert apolarity_pair(poly(2, {(2, 0): 1}), poly(2, {(2, 0): 1})) == 2
        assert apolarity_pair(poly(2, {(2, 0): 1}), poly(2, {(1, 1): 1})) == 0
        assert apolarity_pair(poly(2, {(1, 1): 1}), poly(2, {(1, 1): 1})) == 1

    def test_bilinear(self):
        f = poly(2, {(2, 0): 2, (0, 2): 3})
        g = poly(2, {(2, 0): 1, (1, 1): 5})
        h = poly(2, {(0, 2): 7})
        lhs = apolarity_pair(f, g + h)
        assert lhs == apolarity_pair(f, g) + apolarity_pair(f, h)


class TestClosure:
    def test_self_sum_case_triangle(self, case_triangle):
        # containment holds; the products span one dimension less in degree 3
        Z = case_triangle.lattice_points(1)
        holds, proper, witness = closure_check(Z, Z)
        assert holds and witness is None
        assert proper

    def test_worked_pair(self):
        Za = PointLocus(2, [(0, 0), (1, 0), (0, 1)])
        Zb = PointLocus(2, [(0, 0), (1, 0), (1, 1)])
        holds, proper, _ = closure_check(Za, Zb)
        assert holds and proper  # 6-dimensional products in a 7-dimensional space

    def test_sum_with_origin(self):
        Z = PointLocus(2, [(0, 0), (1, 2), (2, 1)])
        holds, proper, _ = closure_check(Z, PointLocus(2, [(0, 0)]))
        assert holds and not proper

    def test_randomized(self):
        rng = random.Random(0)
        for _ in range(25):
            A = {(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 6))}
            B = {(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 6))}
            holds, _, _ = closure_check(PointLocus(2, sorted(A)),
                                        PointLocus(2, sorted(B)))
            assert holds

    def test_span_products_escape(self):
        one = poly(2, {(0, 0): 1})
        x, y = poly(2, {(1, 0): 1}), poly(2, {(0, 1): 1})
        span = span_products([[one]], [[], [x, y]])
        assert HarmonicBasis(2, [[one], [x]]).first_outside(span) == y
        assert span[1][1] == [x, y] and span[1][0].dim == 2


def reference_degree_echelon(polys, d, p=0):
    """Reference: echelon of the coordinate rows of degree-d polynomials."""
    return Echelon.of((coord_row(f, d) for f in polys), p)


def _by_degree(polys):
    return polys.items() if isinstance(polys, dict) else enumerate(polys)


def reference_span_products(A, B, target=None, mul=MultiPoly.__mul__, p=0,
                            span=None):
    """Reference: the fused span and membership test.  Returns (span,
    escape), escape being the first product outside ``target``; with
    ``target`` and no ``span`` only membership is tested, up to the first
    escape."""
    collect = span is not None or target is None
    if span is None:
        span = {}
    if target is not None:
        target = dict(_by_degree(target))
        tspans = {}
    escape = None
    for d1, fs in _by_degree(A):
        for d2, gs in _by_degree(B):
            d = d1 + d2
            for f in fs:
                for g in gs:
                    prod = mul(f, g)
                    if prod.is_zero():
                        continue
                    row = coord_row(prod, d)
                    if target is not None and escape is None:
                        if d not in tspans:
                            tspans[d] = reference_degree_echelon(
                                target.get(d, ()), d, p)
                        if not tspans[d].contains(row):
                            escape = prod
                            if not collect:
                                return span, escape
                    if not collect:
                        continue
                    if d not in span:
                        span[d] = (Echelon(p), [])
                    ech, kept = span[d]
                    if ech.add(row):
                        kept.append(prod)
    return span, escape


def random_locus(rng, p=0):
    lo, hi = (0, p - 1) if p else (-2, 2)
    return sorted({(rng.randint(lo, hi), rng.randint(lo, hi))
                   for _ in range(rng.randint(1, 6))})


class TestSpanMembershipDifferential:
    """``span_products`` then ``HarmonicBasis.first_outside`` against the
    fused reference, and ``HarmonicBasis.contains`` against the reference
    echelon, over Q, over F_p and on components."""

    def assert_same(self, A, B, targets, mul=MultiPoly.__mul__, p=0):
        """Returns how many targets a product escapes."""
        span = span_products(A, B, mul=mul, p=p)
        escapes = 0
        for new, ref in targets:
            ref_span, ref_escape = reference_span_products(
                A, B, target=ref, mul=mul, p=p, span={})
            assert ({d: kept for d, (_, kept) in span.items()}
                    == {d: kept for d, (_, kept) in ref_span.items()})
            assert ({d: ech.dim for d, (ech, _) in span.items()}
                    == {d: ech.dim for d, (ech, _) in ref_span.items()})
            escape = new.first_outside(span)
            assert (escape is None) == (ref_escape is None)
            assert (escape is None) == (reference_span_products(
                A, B, target=ref, mul=mul, p=p)[1] is None)
            if escape is not None:
                assert not new.contains(escape)
                escapes += 1
        return escapes

    def assert_membership(self, V, rng):
        p, n = V.p, V.n
        assert V.contains(MultiPoly(n))
        for d in range(len(V.by_degree) + 1):
            basis = V.by_degree[d] if d < len(V.by_degree) else []
            ref = reference_degree_echelon(basis, d, p)
            if basis:
                combo = MultiPoly(n)
                for g in basis:
                    combo = combo + g * rng.randint(1, 4)
                if p:
                    combo = MultiPoly(n, {m: c % p
                                          for m, c in combo.terms.items()})
                assert V.contains(combo)
                assert ref.contains(coord_row(combo, d))
            for m in monomials_of_degree(n, d):
                mono = MultiPoly(n, {m: 1})
                assert V.contains(mono) == ref.contains(coord_row(mono, d))

    def test_over_q(self):
        rng = random.Random(17)
        strays = escapes = 0
        for _ in range(30):
            Z = PointLocus(2, random_locus(rng))
            Zp = PointLocus(2, random_locus(rng))
            A, B = harmonic_basis(Z), harmonic_basis(Zp)
            V = harmonic_basis(minkowski_sum(Z, Zp))
            # the sumset's space holds every product; the first factor's
            # space is a target with escapes
            escapes += self.assert_same(A.by_degree, B.by_degree,
                                        [(V, V.by_degree), (A, A.by_degree)])
            self.assert_membership(V, rng)
            strays += any(not V.contains(MultiPoly(2, {m: 1}))
                          for d in range(len(V.by_degree))
                          for m in monomials_of_degree(2, d))
        assert strays and escapes

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_over_fp(self, p):
        rng = random.Random(p)
        escapes = 0
        for _ in range(12):
            pts1, pts2 = random_locus(rng, p), random_locus(rng, p)
            Zsum = sorted({tuple((a + b) % p for a, b in zip(z, zp))
                           for z in pts1 for zp in pts2})
            A = harmonic_basis_modp(pts1, p)
            B = harmonic_basis_modp(pts2, p)
            V, W = harmonic_basis(Zsum, p), harmonic_basis(pts1, p)
            assert V.p == W.p == p
            escapes += self.assert_same(
                A, B, [(V, harmonic_basis_modp(Zsum, p)), (W, A)],
                mul=divided_mul, p=p)
            self.assert_membership(V, rng)
        assert escapes

    def test_components(self, case_triangle, unit_square):
        rng = random.Random(5)
        escapes = 0
        for P in (case_triangle, unit_square,
                  LatticePolytope([(0, 0), (1, 2), (3, 1)])):
            for m in (1, 2):
                for mp in (1, 2):
                    A, B = component(P, m), component(P, mp)
                    C = component(P, m + mp)
                    escapes += self.assert_same(
                        A.by_degree, B.by_degree,
                        [(C, C.by_degree), (A, A.by_degree)])
                self.assert_membership(component(P, m), rng)
        assert escapes


class TestProductOracle:
    def test_two_points(self):
        gens = product_gens_oracle([(0, 0), (2, 2)])
        got = {dump_poly(g) for g in gens}
        assert got == {"x1^2 - 2*x1", "x1*x2 - 2*x1", "x1*x2 - 2*x2",
                       "x2^2 - 2*x2"}

    def test_single_point(self):
        gens = product_gens_oracle([(3, 4)])
        assert {dump_poly(g) for g in gens} == {"x1 - 3", "x2 - 4"}

    def test_segment(self):
        gens = product_gens_oracle([(0,), (1,)])
        assert [dump_poly(g) for g in gens] == ["x1^2 - x1"]

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            product_gens_oracle([(k,) for k in range(7)])

    def test_buchberger_agrees(self):
        rng = random.Random(5)
        for _ in range(8):
            pts = sorted({(rng.randint(-2, 2), rng.randint(-2, 2))
                          for _ in range(rng.randint(1, 5))})
            red = buchberger(product_gens_oracle(pts))
            bm = buchberger_moeller(pts)
            assert [g.terms for g in red] == [g.terms for g in bm.generators]
