import random

import pytest

from qehrhart import (LatticePolytope, PointLocus, QPoly, check_dilation,
                      check_join, check_product, classical_check, guess, iq,
                      iq_interior, reciprocity_check, series_E, series_Ebar,
                      simplex_numerators, weight_series_W, weight_series_Wbar)
from qehrhart import ehrhart
from qehrhart.corpora import CORPORA
from qehrhart.ehrhart import (NotASimplexError, clear_memo, memo_stats,
                              verify_guess_expansion, weight_reciprocity_check)
from qehrhart.harmonics import hilbert_qpoly
from qehrhart.linalg import Mat, solve
from qehrhart.qseries import BivarPoly, RatFun2, TQSeries
from conftest import distinct_corpus_polytopes, segment


def hull_locus(P, m, interior=False):
    """The dilate's lattice points in hull coordinates, by exact solves."""
    locus = P.interior_lattice_points(m) if interior else P.lattice_points(m)
    return [P.hull_coords(z, scale=m) for z in locus]


def eliminated(P, m, interior=False):
    """The graded count by elimination, bypassing every shortcut."""
    pts = hull_locus(P, m, interior)
    return hilbert_qpoly(pts) if pts else QPoly.zero()


def solved_simplex_numerators(P):
    """Reference: one Fraction solve in the lifted vertex basis per lattice
    point of the dilates 0..dim+1."""
    d, n = P.dim, P.ambient_dim
    cols = [(1,) + v for v in P.vertices]
    M = Mat([[cols[j][i] for j in range(d + 1)] for i in range(n + 1)])

    def collect(kmin, kmax, lo_ok, hi_ok):
        terms = {}
        for k in range(kmin, kmax + 1):
            for z in P.lattice_points(k) if k else [(0,) * n]:
                c = solve(M, [k] + list(z))
                if all(lo_ok(x) and hi_ok(x) for x in c):
                    terms[(k, sum(z))] = terms.get((k, sum(z)), 0) + 1
        return BivarPoly(terms)

    return (collect(0, d, lambda x: x >= 0, lambda x: x < 1),
            collect(1, d + 1, lambda x: x > 0, lambda x: x <= 1),
            tuple(sorted((1, sum(v)) for v in P.vertices)))


def corner_image(P):
    """The vertices of Binv (P - v) in hull coordinates, for P's corner map."""
    v, Binv = P.corner_map()
    return [tuple(sum(r * (x - y) for r, x, y in zip(row, u, v)) for row in Binv)
            for u in (P.hull_coords(w) for w in P.vertices)]


class TestIq:
    def test_segments_any_base(self):
        for a in (0, -2, 3):
            for v in (1, 2, 3):
                P = segment(a, v)
                for m in range(6):
                    assert iq(P, m) == QPoly.q_integer(m * v + 1)

    def test_case_triangle(self, case_triangle):
        assert iq(case_triangle, 2) == QPoly([1, 2, 3, 3, 1])
        assert iq(case_triangle, 3) == QPoly([1, 2, 3, 4, 5, 3, 1])

    def test_cross_polytope(self):
        cross = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert iq(cross, 1) == QPoly([1, 2, 2])

    def test_interior(self, unit_triangle):
        for v in (1, 2, 3):
            P = segment(0, v)
            for m in (1, 2, 3):
                assert iq_interior(P, m) == QPoly.q_integer(m * v - 1)
        assert iq_interior(unit_triangle, 1).is_zero()
        assert iq_interior(unit_triangle, 2).is_zero()
        assert iq_interior(unit_triangle, 3) == QPoly([1])

    def test_antiblocking_path_matches_general(self, unit_square):
        assert unit_square.is_antiblocking()
        for m in range(1, 5):
            assert iq(unit_square, m) == eliminated(unit_square, m)
            assert iq_interior(unit_square, m) == eliminated(unit_square, m, True)


def det(A):
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * det([r[:j] + r[j + 1:] for r in A[1:]])
               for j in range(len(A)))


def random_unimodular(rng, n):
    """A random integer matrix with entries in [-2, 2] and det +-1."""
    while True:
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if det(A) in (1, -1):
            return A


class TestRoutes:
    def test_shortcuts_match_elimination_on_corpus(self):
        clear_memo()
        shortcut = 0
        for P in distinct_corpus_polytopes():
            if not P.is_antiblocking() and P.corner_map() is None:
                continue
            shortcut += 1
            for m in range(1, 5):
                for interior, count in ((False, iq), (True, iq_interior)):
                    if len(hull_locus(P, m, interior)) > 150:
                        continue
                    assert count(P, m) == eliminated(P, m, interior), (
                        P.name, m, interior)
        assert shortcut >= 40
        assert memo_stats()["misses"] == 0   # no shortcut row reached BM

    def test_corner_map_image_is_antiblocking(self):
        for P in distinct_corpus_polytopes():
            if P.corner_map() is not None:
                assert LatticePolytope(corner_image(P)).is_antiblocking(), P.name

    def test_seeded_unimodular_images(self):
        rng = random.Random(6)
        sources = [P for P in distinct_corpus_polytopes()
                   if P.is_antiblocking() and P.dim == P.ambient_dim in (2, 3)]
        sources += [LatticePolytope(v) for v in (
            [(0, 0), (2, 0), (2, 1), (0, 2)],
            [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)],
            [(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 2, 0), (0, 0, 1)])]
        assert len(sources) >= 10 and all(P.is_antiblocking() for P in sources)
        for _ in range(12):
            P = rng.choice(sources)
            n = P.ambient_dim
            A = random_unimodular(rng, n)
            b = [rng.randint(-3, 3) for _ in range(n)]
            Q = P.affine_image(A, b)
            assert Q.corner_map() is not None, (P.name, A, b)
            for m in range(1, 4 if n == 2 else 3):
                assert iq(Q, m) == eliminated(Q, m) == iq(P, m), (P.name, A, b, m)
                assert (iq_interior(Q, m) == eliminated(Q, m, True)
                        == iq_interior(P, m)), (P.name, A, b, m)

    def test_case_triangle_has_no_corner_map(self, case_triangle):
        # every vertex's two primitive edge directions span index 3
        assert case_triangle.corner_map() is None
        assert not case_triangle.is_antiblocking()

    def test_lower_dimensional_simplex_in_hull_coordinates(self):
        simplex = LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert simplex.dim == 2 and not simplex.is_antiblocking()
        assert simplex.corner_map() is not None
        for m in range(1, 5):
            assert iq(simplex, m) == eliminated(simplex, m)
            assert iq_interior(simplex, m) == eliminated(simplex, m, True)


class TestFastPath:
    """Weight and corner counts come from fibre histograms, not point sets."""

    def test_weight_and_corner_routes_build_no_points(self, unit_square,
                                                      monkeypatch):
        image = unit_square.affine_image([[2, 1], [1, 1]], [3, -1])
        assert unit_square.is_antiblocking()
        assert not image.is_antiblocking() and image.corner_map() is not None
        cases = [(P, m, interior) for P in (unit_square, image)
                 for m in range(1, 5) for interior in (False, True)]
        want = [eliminated(*case) for case in cases]

        def refuse(self, *args):
            raise AssertionError("a point locus was built")
        monkeypatch.setattr(PointLocus, "__init__", refuse)
        clear_memo()
        assert [(iq_interior if interior else iq)(P, m)
                for P, m, interior in cases] == want

    def test_elimination_enumerates(self, case_triangle, monkeypatch):
        # the benchmark's dilates workload pins both enumeration layers
        assert case_triangle.dim == case_triangle.ambient_dim
        assert case_triangle.corner_map() is None
        calls = []
        for name in ("lattice_points", "interior_lattice_points"):
            def spy(self, m, enum=getattr(LatticePolytope, name), name=name):
                calls.append((name, m))
                return enum(self, m)
            monkeypatch.setattr(LatticePolytope, name, spy)
        clear_memo()
        iq(case_triangle, 2)
        iq_interior(case_triangle, 3)
        assert calls == [("lattice_points", 2), ("interior_lattice_points", 3)]


class TestMemo:
    def test_dilation_against_a_cleared_memo(self, case_triangle):
        for P, d, T in ((case_triangle, 2, 4),
                        (LatticePolytope([(1, 0), (0, 1)]), 3, 4)):
            lhs = series_E(P.dilate(d), T)
            clear_memo()
            rhs = TQSeries([iq(P, d * m) for m in range(T + 1)], T)
            assert lhs == rhs

    def test_check_dilation_hits_the_locus_key(self, case_triangle):
        clear_memo()
        assert check_dilation(case_triangle, 2, 3)
        stats = memo_stats()
        assert stats["hits"] >= 3 and stats["misses"] >= 3

    def test_cap_evicts_oldest_entries(self, case_triangle, monkeypatch):
        monkeypatch.setattr(ehrhart, "MEMO_CAP", 4)
        clear_memo()
        first = [iq(case_triangle, m) for m in range(1, 6)]
        assert len(ehrhart._memo) <= 4
        assert [iq(case_triangle, m) for m in range(1, 6)] == first
        assert memo_stats() == {"hits": 0, "misses": 10}

    def test_counts_do_not_depend_on_history(self, case_triangle):
        polys = [case_triangle, case_triangle.affine_image([[1, 0], [0, 1]], [-3, 1]),
                 case_triangle.dilate(2), case_triangle.affine_image([[0, 1], [1, 0]], [0, 0]),
                 LatticePolytope([(0, 0), (1, 0), (0, 1), (-2, 1)]), segment(-1, 2),
                 LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])]
        requests = [(i, m, interior) for i in range(len(polys))
                    for m in range(1, 4) for interior in (False, True)]

        def count(i, m, interior):
            return (iq_interior if interior else iq)(polys[i], m)

        fresh = {}
        for req in requests:
            clear_memo()
            fresh[req] = count(*req)
        rng = random.Random(11)
        for _ in range(2):
            rng.shuffle(requests)
            for req in requests:
                assert count(*req) == fresh[req], req


class TestSeries:
    def test_segment_series(self):
        S = series_E(segment(0, 2), 2)
        assert S.coeffs == [QPoly([1]), QPoly([1, 1, 1]), QPoly([1, 1, 1, 1, 1])]

    def test_simplex_pyramid_closed_form(self):
        pyr = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        form = RatFun2(BivarPoly({(0, 0): 1}), [(1, 0), (1, 1), (1, 1), (1, 1)])
        assert series_E(pyr, 5) == form.expand(5)

    def test_reeve2_closed_form(self, reeve2):
        num = BivarPoly({(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 3,
                         (4, 4): 2, (5, 5): 1})
        form = RatFun2(num, [(1, 0), (1, 1), (2, 3), (3, 4)])
        assert series_E(reeve2, 5) == form.expand(5)

    def test_interior_starts_at_one(self, unit_square):
        S = series_Ebar(unit_square, 3)
        assert S.coeffs[0].is_zero()
        assert S.coeffs[2] == QPoly([1])


class TestWeightSeries:
    def test_antiblocking_equivalence(self, unit_triangle, unit_square):
        for P in (unit_triangle, unit_square):
            T = 6
            assert weight_series_W(P, T) == series_E(P, T)
            Wbar = weight_series_Wbar(P, T)
            Ebar = series_Ebar(P, T)
            d = P.dim
            for m in range(T + 1):
                assert Wbar.coeffs[m] == Ebar.coeffs[m].shift(d) or (
                    Wbar.coeffs[m].is_zero() and Ebar.coeffs[m].is_zero())

    def test_not_antiblocking_differs(self):
        d1 = LatticePolytope([(1, 0), (0, 1)])
        W = weight_series_W(d1, 4)
        E = series_E(d1, 4)
        assert W != E
        for m in range(5):
            assert W.coeffs[m] == QPoly.monomial(m + 1, m)


class TestSimplexNumerators:
    def test_segment(self):
        N, Nbar, den = simplex_numerators(segment(0, 2))
        assert N == BivarPoly({(0, 0): 1, (1, 1): 1})
        assert den == ((1, 0), (1, 2))
        assert weight_reciprocity_check(N, Nbar, den, 1)

    def test_unimodular(self):
        d1 = LatticePolytope([(1, 0), (0, 1)])
        N, Nbar, den = simplex_numerators(d1)
        assert N == BivarPoly({(0, 0): 1})
        assert den == ((1, 1), (1, 1))

    def test_reeve_hstar(self):
        for v in (1, 2, 3):
            P = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, v)])
            N, _, _ = simplex_numerators(P)
            at_q1 = {}
            for (t, q), c in N.terms.items():
                at_q1[t] = at_q1.get(t, 0) + c
            expect = {0: 1, 2: v - 1} if v > 1 else {0: 1}
            assert at_q1 == expect

    def test_refuses_non_simplex(self, unit_square):
        with pytest.raises(NotASimplexError):
            simplex_numerators(unit_square)

    def test_matches_fraction_solves(self):
        # every corpus simplex with nonnegative vertex weights, and random
        # simplices with nonnegative vertices, lower-dimensional ones too
        rng = random.Random(9)
        cases = [r.polytope() for corpus in CORPORA.values() for r in corpus]
        cases = [P for P in cases
                 if P.is_simplex() and all(sum(v) >= 0 for v in P.vertices)]
        assert len(cases) >= 60
        assert any(P.dim < P.ambient_dim for P in cases)
        while len(cases) < 100:
            n = rng.randint(1, 4)
            P = LatticePolytope([tuple(rng.randint(0, 2) for _ in range(n))
                                 for _ in range(rng.randint(1, n + 1))])
            if P.is_simplex():
                cases.append(P)
        for P in cases:
            assert simplex_numerators(P) == solved_simplex_numerators(P)


class TestGuess:
    def test_unit_square(self, unit_square):
        g = guess(unit_square, T=10)
        assert g.denom_factors == ((1, 0), (1, 1), (1, 2))
        assert g.numerator == BivarPoly({(0, 0): 1, (1, 1): 1})
        assert verify_guess_expansion(unit_square, g, 10)

    def test_area3_quad(self):
        P = LatticePolytope([(0, 0), (1, 0), (0, 1), (-2, 1)])
        g = guess(P, T=10)
        expected = RatFun2(
            BivarPoly({(0, 0): 1, (1, 1): 1, (2, 2): -1, (2, 3): -1}),
            [(1, 0), (1, 1), (1, 2), (1, 2)])
        assert g.expand(10) == expected.expand(10)

    def test_cross_polytope(self):
        cross = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
        g = guess(cross, T=10)
        expected = RatFun2(BivarPoly({(0, 0): 1, (1, 1): 2, (2, 2): 1}),
                           [(1, 0), (1, 2), (1, 2)])
        assert g.expand(10) == expected.expand(10)


class TestReciprocity:
    def test_segments(self):
        for v in (1, 2, 3, 4):
            E = guess(segment(0, v), T=12)
            Ebar = guess(segment(0, v), T=12, interior=True)
            assert E is not None and Ebar is not None
            assert reciprocity_check(E, Ebar, 1)

    def test_trivial_zero(self):
        zero = RatFun2(BivarPoly({}), [(1, 0)])
        assert reciprocity_check(zero, zero, 3)

    def test_perturbed_fails(self):
        E = RatFun2(BivarPoly({(0, 0): 1, (1, 1): 1}), [(1, 0), (1, 2)])
        Ebar = RatFun2(BivarPoly({(1, 0): 1, (2, 1): 1}), [(1, 0), (1, 2)])
        assert reciprocity_check(E, Ebar, 1)
        bad = RatFun2(BivarPoly({(1, 0): 2, (2, 1): 1}), [(1, 0), (1, 2)])
        assert not reciprocity_check(E, bad, 1)


def ref_laurent_mul(A, B):
    out = {}
    for ka, va in A.items():
        for kb, vb in B.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def ref_laurent_of_denominator(factors, inverse=False):
    out = {(0, 0): 1}
    for (b, a) in factors:
        f = {(0, 0): 1, ((-b, -a) if inverse else (b, a)): -1}
        out = ref_laurent_mul(out, f)
    return out


def ref_reciprocity_check(E, Ebar, d):
    """``reciprocity_check`` as it was, on Laurent term dicts."""
    lhs = ref_laurent_mul(
        {(k[0], k[1] + d): v for k, v in Ebar.numerator.terms.items()},
        ref_laurent_of_denominator(E.denom_factors, inverse=True))
    sign = 1 if (d + 1) % 2 == 0 else -1
    rhs = ref_laurent_mul(
        {(-k[0], -k[1]): sign * v for k, v in E.numerator.terms.items()},
        ref_laurent_of_denominator(Ebar.denom_factors, inverse=False))
    return lhs == rhs


def ref_weight_reciprocity_check(N, Nbar, den, d):
    lhs = ref_laurent_mul(dict(Nbar.terms),
                          ref_laurent_of_denominator(den, inverse=True))
    sign = 1 if (d + 1) % 2 == 0 else -1
    rhs = ref_laurent_mul({(-i, -j): sign * v for (i, j), v in N.terms.items()},
                          ref_laurent_of_denominator(den, inverse=False))
    return lhs == rhs


def reciprocal_partner(E, d, shift):
    """The Ebar with q^shift Ebar = (-1)^(d+1) E(1/t, 1/q) over E's
    denominator: 1/(1 - q^-a t^-b) = -q^a t^b / (1 - q^a t^b)."""
    num = E.numerator.reflect() * BivarPoly({(0, -shift): 1 if d % 2 else -1})
    for (b, a) in E.denom_factors:
        num = num * BivarPoly({(b, a): -1})
    return RatFun2(num, E.denom_factors)


@pytest.mark.parametrize("seed", range(3))
def test_reciprocity_matches_reference(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(150):
        E = RatFun2(BivarPoly({(rng.randint(0, 3), rng.randint(0, 4)):
                               rng.randint(-3, 3)
                               for _ in range(rng.randint(0, 4))}),
                    [(rng.randint(1, 3), rng.randint(0, 3))
                     for _ in range(rng.randint(0, 3))])
        d = rng.randint(0, 4)
        for shift, check, ref in (
                (d, reciprocity_check, ref_reciprocity_check),
                (0, lambda E, Eb, d: weight_reciprocity_check(
                    E.numerator, Eb.numerator, E.denom_factors, d),
                 lambda E, Eb, d: ref_weight_reciprocity_check(
                    E.numerator, Eb.numerator, E.denom_factors, d))):
            Ebar = reciprocal_partner(E, d, shift)
            terms = dict(Ebar.numerator.terms)
            key = (rng.randint(-3, 3), rng.randint(-6, 3))
            terms[key] = terms.get(key, 0) + rng.choice([-1, 1])
            perturbed = RatFun2(BivarPoly(terms), Ebar.denom_factors)
            forms = [(Ebar, True), (perturbed, False)]
            if shift:   # the same partner over a longer denominator
                b, a = rng.randint(1, 3), rng.randint(0, 3)
                forms.append((RatFun2(
                    Ebar.numerator * BivarPoly({(0, 0): 1, (b, a): -1}),
                    Ebar.denom_factors + ((b, a),)), True))
            for F, partner in forms:
                want = ref(E, F, d)
                assert check(E, F, d) == want, (E, F, d)
                outcomes.add((partner, want))
    # every partner holds and every perturbed partner fails
    assert outcomes == {(True, True), (False, False)}


class TestIdentities:
    def test_dilation(self):
        assert check_dilation(segment(0, 1), 2, 6)
        d1 = LatticePolytope([(1, 0), (0, 1)])
        assert check_dilation(d1, 3, 5)

    def test_product_carlitz(self, unit_square):
        # square = segment x segment; product of two segment series
        assert check_product(segment(0, 1), segment(0, 1), 6)
        assert check_product(unit_square, segment(0, 1), 5)

    def test_join_pyramid(self):
        d1 = LatticePolytope([(1, 0), (0, 1)])
        pt = LatticePolytope([()])
        assert check_join(d1, pt, 6)
        assert check_join(segment(0, 1), segment(0, 2), 5)


class TestClassical:
    def test_unit_square(self, unit_square):
        hs, _ = classical_check(unit_square)
        assert hs.coefficients == (1, 1, 0)

    def test_reeve(self, reeve2):
        hs, _ = classical_check(reeve2)
        assert hs.coefficients == (1, 0, 1, 0)

    def test_area5_quad(self):
        P = LatticePolytope([(0, 0), (2, 0), (0, 1), (-3, 1)])
        hs, _ = classical_check(P)
        assert hs.coefficients == (1, 4, 0)

    def test_volume_sum(self, case_triangle):
        hs, _ = classical_check(case_triangle)
        assert hs.volume == 3 == case_triangle.normalized_volume()


def test_q1_collapse(case_triangle):
    S = series_E(case_triangle, 6)
    assert S.at_q1() == [len(case_triangle.lattice_points(m)) for m in range(7)]


def test_affine_invariance_seeded(case_triangle):
    rng = random.Random(0)
    mats = [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]]]
    for A in mats:
        b = [rng.randint(-2, 2), rng.randint(-2, 2)]
        Q = case_triangle.affine_image(A, b)
        assert series_E(Q, 5) == series_E(case_triangle, 5)
