import random
from math import comb

import pytest

from qehrhart import (LatticePolytope, MultiPoly, Poset, chain_order_equality,
                      component, corpora, generation_check, iq, product_span,
                      series_E, subalgebra_hilbert)
from qehrhart import ehrhart
from qehrhart.ehrhart import clear_memo
from qehrhart.halgebra import (GenerationReport, NotInComponentError,
                               interior_ideal_check)
from qehrhart.harmonics import InconsistencyError, span_products
from qehrhart.qseries import QPoly, TQSeries


def y(e1, e2, c=1):
    return MultiPoly(2, {(e1, e2): c})


NINE_GENERATORS = [
    (1, MultiPoly.constant(2, 1)),
    (1, MultiPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})),
    (2, MultiPoly(2, {(2, 1): 1, (1, 2): 1})),
    (0, MultiPoly.constant(2, 1)),
    (1, y(1, 0)), (1, y(0, 1)),
    (2, y(2, 0)), (2, y(0, 2)),
    (3, MultiPoly(2, {(2, 1): 1, (1, 2): -1})),
]


class TestComponent:
    def test_case_triangle(self, case_triangle):
        c1 = component(case_triangle, 1)
        assert c1.hilbert().coeffs == [1, 2, 1]
        top = c1.by_degree[2][0]
        assert top.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_grade_zero(self, case_triangle):
        c0 = component(case_triangle, 0)
        assert c0.hilbert().coeffs == [1]

    def test_cleared_memo_recomputes(self, case_triangle):
        first = component(case_triangle, 2)
        assert component(case_triangle, 2) is first
        clear_memo()
        again = component(case_triangle, 2)
        assert again is not first
        assert again.by_degree == first.by_degree

    def test_cap_evicts_components(self, case_triangle, monkeypatch):
        monkeypatch.setattr(ehrhart, "MEMO_CAP", 3)
        clear_memo()
        first = component(case_triangle, 1)
        for m in range(2, 5):
            iq(case_triangle, m)
        assert len(ehrhart._memo) <= 3
        assert ("component", case_triangle.vertices, 1) not in ehrhart._memo
        again = component(case_triangle, 1)
        assert again is not first
        assert again.by_degree == first.by_degree

    def test_antiblocking_monomials(self, unit_square):
        c2 = component(unit_square, 2)
        assert all(len(g.terms) == 1 for g in c2.elements())
        assert c2.hilbert() == iq(unit_square, 2)


class TestProductSpan:
    def test_multiply_by_scalars(self, case_triangle):
        dims, contained, equals = product_span(case_triangle, 2, 0)
        assert contained and equals

    def test_case_triangle_one_one(self, case_triangle):
        dims, contained, equals = product_span(case_triangle, 1, 1)
        assert contained and not equals
        assert dims == {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}

    def test_contrast_top_degree(self, contrast_triangle):
        # products stop at q-degree 4 while the target reaches q^5
        dims, contained, _ = product_span(contrast_triangle, 1, 1)
        assert contained
        assert max(dims) == 4
        assert iq(contrast_triangle, 2).degree == 5


class TestGeneration:
    def test_cutoff_three_generates(self, case_triangle):
        rep = generation_check(case_triangle, 3, 8)
        assert rep.fully_generated
        assert rep.missing_dims == {}

    def test_cutoff_two_also_generates(self, case_triangle):
        # products of grades 1 and 2 already span grade 3 and beyond; the
        # recorded t^3 q^3 element is a free-module basis element over the
        # parameter subalgebra, not an algebra necessity
        rep = generation_check(case_triangle, 2, 6)
        assert rep.fully_generated

    def test_cutoff_one_deficient(self, case_triangle):
        rep = generation_check(case_triangle, 1, 4)
        assert not rep.fully_generated
        assert rep.missing_dims[(2, 3)] == 1  # the t^2 q^3 generator

    def test_monotone_in_cutoff(self, case_triangle):
        rep1 = generation_check(case_triangle, 1, 5)
        rep2 = generation_check(case_triangle, 2, 5)
        for key, deficit in rep2.missing_dims.items():
            assert rep1.missing_dims.get(key, 0) >= deficit

    def test_unit_square_degree_one(self, unit_square):
        rep = generation_check(unit_square, 1, 6)
        assert rep.fully_generated


class TestSubalgebra:
    def test_nine_generators(self, case_triangle):
        S = subalgebra_hilbert(case_triangle, NINE_GENERATORS, 8)
        got = [c(1) for c in S.coeffs]
        # (1+t+t^2)/(1-t)^3 coefficients
        expect = [comb(m + 2, 2) + (comb(m + 1, 2) if m >= 1 else 0)
                  + (comb(m, 2) if m >= 2 else 0) for m in range(9)]
        assert got == expect
        assert S == series_E(case_triangle, 8)

    def test_parameter_subalgebra(self, case_triangle):
        S = subalgebra_hilbert(case_triangle, NINE_GENERATORS[:3], 8)
        got = [c(1) for c in S.coeffs]
        # 1/((1-t)^2 (1-t^2)) coefficients
        expect = [sum(1 for i in range(m + 1) for j in range(m + 1 - i)
                      if (m - i - j) % 2 == 0) for m in range(9)]
        assert got == expect

    def test_single_unit(self, case_triangle):
        S = subalgebra_hilbert(case_triangle, [(0, MultiPoly.constant(2, 1))], 4)
        assert [c(1) for c in S.coeffs] == [1, 0, 0, 0, 0]

    def test_rejects_outside_component(self, case_triangle):
        with pytest.raises(NotInComponentError):
            subalgebra_hilbert(case_triangle, [(1, y(2, 0))], 3)


def pairwise_generation_check(P, m0, T):
    """Reference: the pairwise closure A_m = sum over i <= m/2 of
    A_i A_(m-i), with A_m = V_m for m <= m0."""
    report = GenerationReport(cutoff=m0, horizon=T)
    G = {0: component(P, 0).by_degree}
    for m in range(1, T + 1):
        if m <= m0:
            G[m] = component(P, m).by_degree
            report.per_degree_status[m] = True
            continue
        span = {}
        for i in range(1, m // 2 + 1):
            span_products(G[i], G[m - i], span=span)
        G[m] = {d: kept for d, (_, kept) in span.items()}
        ok = True
        for d, polys in enumerate(component(P, m).by_degree):
            want = len(polys)
            have = len(G[m].get(d, ()))
            if have > want:
                raise InconsistencyError("span exceeds the component")
            if have < want:
                ok = False
                report.missing_dims[(m, d)] = want - have
        report.per_degree_status[m] = ok
    return report


def per_generator_subalgebra(P, gens, T):
    """Reference: the closure that multiplies by one generator at a time."""
    n = component(P, 0).n
    G = {0: {0: [MultiPoly.constant(n, 1)]}}
    for m in range(1, T + 1):
        span = {}
        for (k, g) in gens:
            if 0 < k <= m:
                span_products({g.degree(): [g]}, G[m - k], span=span)
        G[m] = {d: kept for d, (_, kept) in span.items()}
    return TQSeries([QPoly.from_degrees(d for d, kept in G[m].items()
                                        for _ in kept)
                     for m in range(T + 1)], T)


def corpus_polytope(key):
    return next(row.polytope() for rows in corpora.CORPORA.values()
                for row in rows if row.key == key)


CASE = [(0, 0), (1, 2), (2, 1)]
GENERATION_CASES = [(CASE, m0, T) for (m0, T) in
                    ((0, 3), (1, 4), (1, 5), (2, 5), (2, 6), (2, 8), (3, 8))] + [
    ([(0, 0), (1, 0), (0, 1), (1, 1)], 1, 6),
    ("area4-kite", 1, 5),
    ([(-1, 0), (1, 2), (2, -1)], 2, 7),
    ("area3-triangle-steep", 1, 6),
    ([(0,), (3,)], 1, 6),
    ("reeve-1", 1, 3),
]


class TestClosureAgainstReference:
    @pytest.mark.parametrize("verts, m0, T", GENERATION_CASES,
                             ids=lambda v: str(v).replace(" ", ""))
    def test_generation_matches_pairwise(self, verts, m0, T):
        P = (corpus_polytope(verts) if isinstance(verts, str)
             else LatticePolytope(verts))
        assert (generation_check(P, m0, T).to_json()
                == pairwise_generation_check(P, m0, T).to_json())

    @pytest.mark.parametrize("seed", range(4))
    def test_subalgebra_independent_of_order(self, case_triangle, seed):
        gens = list(NINE_GENERATORS[:6])
        random.Random(seed).shuffle(gens)
        S = subalgebra_hilbert(case_triangle, gens, 6)
        assert S == subalgebra_hilbert(case_triangle, NINE_GENERATORS[:6], 6)
        assert S == per_generator_subalgebra(case_triangle, gens, 6)


class TestChainOrder:
    def test_antichain_trivial(self):
        assert chain_order_equality(Poset(2, []), 3)

    def test_chain_of_three(self):
        assert chain_order_equality(Poset(3, [(0, 1), (1, 2)]), 3)

    def test_x_poset(self):
        X = Poset(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        assert chain_order_equality(X, 2)


class TestStructure:
    def test_hilbert_identity(self, case_triangle):
        T = 5
        S = series_E(case_triangle, T)
        for m in range(T + 1):
            assert component(case_triangle, m).hilbert() == S.coeffs[m]

    def test_interior_ideal(self, case_triangle, unit_square):
        for P in (case_triangle, unit_square):
            for (m, mp) in ((1, 1), (1, 2), (2, 1)):
                assert interior_ideal_check(P, m, mp)
