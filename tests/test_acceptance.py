"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line on success.  Two tests carry recorded
sub-claims that plain counting refutes; like the `extradata` rows flagged
`refuted`, those claims are stated in the docstrings and never asserted.
The tests assert the outcome the counting gives, with the reckoning in
their docstrings.
"""

import random
import time
from itertools import product as iproduct
from math import comb

from qehrhart import (GroupElement, LatticePolytope, PointLocus, Poset,
                      QPoly, beta_bound, buchberger_moeller,
                      chain_order_equality, check_dilation, check_join,
                      check_product, closure_check, closure_check_modp,
                      generation_check, gr_ideal, graded_character, guess,
                      harmonic_basis, iq, minkowski_sum, product_span,
                      reciprocity_check, series_E, series_Ebar,
                      simplex_numerators, subalgebra_hilbert, weight_series_W,
                      weight_series_Wbar)
from qehrhart.corpora import CORPORA, FIG1, FIG2, FIG3
from qehrhart.qseries import BivarPoly, RatFun2, denominator_search
from conftest import segment
from oracle import buchberger, product_gens_oracle

from test_halgebra import NINE_GENERATORS


def report(n, label, t0):
    print(f"ACCEPTANCE {n:02d} {label}: PASS ({time.time() - t0:.1f}s)")


def test_criterion_01_segments():
    t0 = time.time()
    for v in range(1, 7):
        P = segment(0, v)
        for m in range(9):
            assert iq(P, m) == QPoly.q_integer(m * v + 1)
        E = guess(P, T=12)
        num = {(0, 0): 1}
        num.update({(1, k): 1 for k in range(1, v)})
        assert E == RatFun2(BivarPoly(num), [(1, 0), (1, v)])
        Ebar = guess(P, T=12, interior=True)
        inum = {(1, k): 1 for k in range(v - 1)}
        inum[(2, v - 1)] = inum.get((2, v - 1), 0) + 1
        assert Ebar == RatFun2(BivarPoly(inum), [(1, 0), (1, v)])
        assert reciprocity_check(E, Ebar, 1)
    report(1, "segments", t0)


def test_criterion_02_figures():
    t0 = time.time()
    for row in FIG1 + FIG2 + FIG3:
        P = row.polytope()
        S = series_E(P, 10)
        assert S == row.form.expand(10), row.key
        hits = denominator_search(S, 2, 6, 4)
        assert any(h.equals_as_rational(row.form) for h in hits), row.key
    report(2, "figures 1-3", t0)


def test_criterion_03_closed_forms():
    t0 = time.time()
    for row in CORPORA["closedforms"]:
        P = row.polytope()
        assert series_E(P, 8) == row.form.expand(8), row.key
    report(3, "closed forms", t0)


def test_criterion_04_case_study(case_triangle):
    t0 = time.time()
    assert case_triangle.lattice_points(1).points == (
        (0, 0), (1, 1), (1, 2), (2, 1))
    assert len(case_triangle.lattice_points(2)) == 10
    hb2 = harmonic_basis(case_triangle.lattice_points(2))
    assert hb2.by_degree[4][0].terms == {(4, 0): 1, (3, 1): 2, (2, 2): 3,
                                         (1, 3): 2, (0, 4): 1}
    g = guess(case_triangle, T=10)
    expected = RatFun2(BivarPoly({(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 1}),
                       [(1, 0), (1, 2), (2, 3)])
    assert g == expected
    rep = generation_check(case_triangle, 3, 8)
    assert rep.fully_generated
    S = subalgebra_hilbert(case_triangle, NINE_GENERATORS, 8)
    expect = [comb(m + 2, 2) + (comb(m + 1, 2) if m >= 1 else 0)
              + (comb(m, 2) if m >= 2 else 0) for m in range(9)]
    assert [c(1) for c in S.coeffs] == expect
    report(4, "case-study triangle", t0)


def test_criterion_05_idp_contrast(contrast_triangle):
    t0 = time.time()
    ok, _ = contrast_triangle.idp_check(2)
    assert ok
    dims, contained, _ = product_span(contrast_triangle, 1, 1)
    assert contained
    assert max(dims) == 4
    assert iq(contrast_triangle, 2).degree == 5
    report(5, "decomposition contrast", t0)


def test_criterion_06_closure_random():
    t0 = time.time()
    Za = PointLocus(2, [(0, 0), (1, 0), (0, 1)])
    Zb = PointLocus(2, [(0, 0), (1, 0), (1, 1)])
    holds, proper, _ = closure_check(Za, Zb)
    assert holds and proper
    rng = random.Random(0)
    for _ in range(200):
        A = {(rng.randint(-3, 3), rng.randint(-3, 3))
             for _ in range(rng.randint(1, 8))}
        B = {(rng.randint(-3, 3), rng.randint(-3, 3))
             for _ in range(rng.randint(1, 8))}
        holds, _, _ = closure_check(PointLocus(2, sorted(A)),
                                    PointLocus(2, sorted(B)))
        assert holds
    for p in (2, 3, 5):
        rng = random.Random(p)
        for _ in range(100):
            cap = min(5, p * p)
            A = set()
            while len(A) < rng.randint(1, cap):
                A.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
            B = set()
            while len(B) < rng.randint(1, cap):
                B.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
            assert closure_check_modp(sorted(A), sorted(B), p)
    report(6, "sumset closure (random + char p)", t0)


def test_criterion_07_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(42)
    loci = []
    for _ in range(25):
        pts = set()
        while len(pts) < rng.randint(1, 12):
            pts.add((rng.randint(-4, 4),))
        loci.append(sorted(pts))
    for _ in range(25):
        pts = set()
        while len(pts) < rng.randint(1, 12):
            pts.add((rng.randint(-4, 4), rng.randint(-4, 4)))
        loci.append(sorted(pts))
    for row in FIG1:
        P = row.polytope()
        for m in range(1, 5):
            loci.append(list(P.lattice_points(m)))
    for Z in loci:
        gb = buchberger_moeller(Z)
        gr = gr_ideal(Z)
        assert gr.standard_monomials == gb.standard_monomials
        if len(Z) <= 5 and len(Z[0]) <= 2:
            red = buchberger(product_gens_oracle(Z))
            assert [g.terms for g in red] == [g.terms for g in gb.generators]
    report(7, "standard-monomial oracle equivalence", t0)


def test_criterion_08_identities(unit_square, case_triangle):
    t0 = time.time()
    d1 = LatticePolytope([(1, 0), (0, 1)], name="simplex-1")
    d2 = LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1)], name="simplex-2")
    segs = [segment(0, v) for v in (1, 2, 3)]
    family = segs + [unit_square, d1, d2, case_triangle]
    T = 8
    for P in family:
        for d in (2, 3):
            assert check_dilation(P, d, T), (P.name, d)
    product_pairs = [(segs[0], segs[0]), (segs[1], segs[2]),
                     (unit_square, segs[1]), (d1, d2), (case_triangle, segs[0])]
    for P, Q in product_pairs:
        assert check_product(P, Q, T), (P.name, Q.name)
    join_pairs = [(segs[0], segs[1]), (d1, d2), (unit_square, segs[0])]
    for P, Q in join_pairs:
        assert check_join(P, Q, T), (P.name, Q.name)
    report(8, "dilation/product/join identities", t0)


def test_criterion_09_chain_order():
    t0 = time.time()
    from qehrhart.posets import all_posets
    count = 0
    for n in range(1, 5):
        for poset in all_posets(n):
            assert chain_order_equality(poset, 3)
            count += 1
    assert count == 24
    X = Poset(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    assert chain_order_equality(X, 2)
    report(9, "chain equals order", t0)


def test_criterion_10_antiblocking(unit_triangle):
    t0 = time.time()
    rows = [r for corpus in ("fig1", "fig2", "fig3", "closedforms")
            for r in CORPORA[corpus]]
    checked = 0
    for row in rows:
        P = row.polytope()
        if not P.is_antiblocking():
            continue
        checked += 1
        T = 10
        assert weight_series_W(P, T) == series_E(P, T), row.key
        Wbar = weight_series_Wbar(P, T)
        Ebar = series_Ebar(P, T)
        d = P.dim
        for m in range(T + 1):
            if Ebar.coeffs[m].is_zero():
                assert Wbar.coeffs[m].is_zero()
            else:
                assert Wbar.coeffs[m] == Ebar.coeffs[m].shift(d)
    assert checked >= 10
    # h* from parallelepiped numerators at q = 1
    def hstar_of(P):
        N, _, _ = simplex_numerators(P)
        acc = {}
        for (tdeg, _), c in N.terms.items():
            acc[tdeg] = acc.get(tdeg, 0) + c
        return acc
    for v in (1, 2, 3):
        assert hstar_of(segment(0, v)) == ({0: 1, 1: v - 1} if v > 1 else {0: 1})
    assert hstar_of(unit_triangle) == {0: 1}
    pyr2 = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert hstar_of(pyr2) == {0: 1}
    for v in (1, 2, 3):
        reeve = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, v)])
        expect = {0: 1} if v == 1 else {0: 1, 2: v - 1}
        assert hstar_of(reeve) == expect
    report(10, "antiblocking weight enumerators", t0)


def test_criterion_11_equivariant(case_triangle):
    t0 = time.time()
    for b in (1, 2, 3):
        P = segment(-b, 2 * b)
        e = GroupElement("e", ((1,),))
        neg = GroupElement("neg", ((-1,),))
        num_plus = {(0, 0): 1}
        num_minus = {(0, 0): 1}
        for k in range(b - 1):
            num_plus[(1, 2 * k + 2)] = 1
            num_minus[(1, 2 * k + 2)] = 1
        for k in range(b):
            num_plus[(1, 2 * k + 1)] = num_plus.get((1, 2 * k + 1), 0) + 1
            num_minus[(1, 2 * k + 1)] = num_minus.get((1, 2 * k + 1), 0) - 1
        den = [(1, 0), (1, 2 * b)]
        plus = RatFun2(BivarPoly(num_plus), den).expand(4)
        minus = RatFun2(BivarPoly(num_minus), den).expand(4)
        for m in range(5):
            assert graded_character(P, e, m) == plus.coeffs[m]
            assert graded_character(P, neg, m) == minus.coeffs[m]
            fixed = sum(1 for z in P.lattice_points(m) if z[0] == 0)
            assert graded_character(P, neg, m)(1) == fixed
    # swap action on the case-study triangle at the sign specialization:
    # numerator collapses to 1 - q^3 t^3 over the full denominator
    swap = GroupElement("swap", ((0, 1), (1, 0)))
    form = RatFun2(BivarPoly({(0, 0): 1, (3, 3): -1}),
                   [(1, 0), (1, 2), (2, 3)]).expand(3)
    for m in range(4):
        ch = graded_character(case_triangle, swap, m)
        assert ch == form.coeffs[m]
        fixed = sum(1 for z in case_triangle.lattice_points(m)
                    if (z[1], z[0]) == z)
        assert ch(1) == fixed
    report(11, "equivariant characters", t0)


def test_criterion_12_beta_bound():
    t0 = time.time()
    for r in range(1, 9):
        for rp in range(1, 9):
            assert beta_bound(r, rp, 0) == r + rp - 1
    assert beta_bound(2, 2, 2) == 2
    for p in (2, 3, 5, 7):
        for r, rp in iproduct(range(1, min(6, p + 1)), repeat=2):
            bound = beta_bound(r, rp, p)
            for a, d, bb, e in iproduct(range(p), range(1, p),
                                        range(p), range(1, p)):
                Z = {(a + k * d) % p for k in range(r)}
                Zp = {(bb + k * e) % p for k in range(rp)}
                if len(Z) < r or len(Zp) < rp:
                    continue
                S = {(x + y) % p for x in Z for y in Zp}
                assert len(S) >= bound
    report(12, "sumset lower bound", t0)


# -- recorded sub-claims that counting refutes: the correct outcome is asserted

def test_criterion_04_generation_cutoff_two_deficient(case_triangle):
    """Recorded claim (refuted): products from grades <= 2 leave a
    deficiency at grade 3.

    Cutoff 2 differs from cutoff 3, which generates everything up to
    horizon 8 (criterion 04 case study), only in grade 3.  So the claim
    holds only if V_1 V_2 != V_3, where V_3 has Hilbert series
    1 + 2q + 3q^2 + 4q^3 + 5q^4 + 3q^5 + q^6.  It does not:

    - degrees 0-2: 1 * V_2 gives all polynomials of degree <= 2;
    - degree 3: {x, y} times V_{2,2} (all quadratics) gives all 4 cubics;
    - degree 6: q2 * h4 != 0, where q2 = x^2 + xy + y^2;
    - degree 5: multiplication by q2 is injective, so q2 * V_{2,3} has
      dimension 3;
    - degree 4: q2 is irreducible over Q.  V_{2,3} has dimension 3 and
      q2 * (linear forms) only 2, so it holds a cubic w outside (q2).
      Then x w and y w are independent modulo q2 * (quadratics), which
      gives all 5 quartics.

    The first deficiency appears at cutoff 1, bidegree (2, 3).  The test
    name keeps the wording of the recorded claim on purpose.
    """
    t0 = time.time()
    rep = generation_check(case_triangle, 2, 8)
    assert sorted(rep.per_degree_status) == list(range(1, 9))
    assert rep.fully_generated
    assert rep.missing_dims == {}
    report(4, "cutoff-two generation (deficiency claim refuted)", t0)


def test_criterion_06_self_sum_equality(case_triangle):
    """Recorded claim (refuted): the self-sum worked example gives equality
    of the product span and the sumset dual space.

    Z is 4 points not on a line, so V_Z has degreewise dimensions
    (1, 2, 1), while V_{Z+Z} has dimension |Z + Z| = 10.  Products reach
    at most 1, 2, 3, 2 and 1 dimensions in degrees 0-4: degree 2 is capped
    by the 3 quadratic monomials, degree 3 by the 2 * 1 products
    V_1 * V_2 and degree 4 by the 1 * 1 square of V_2.  That is 9 < 10,
    so the containment is proper.  The test name keeps the wording of the
    recorded claim on purpose.
    """
    t0 = time.time()
    Z = case_triangle.lattice_points(1)
    holds, proper, _ = closure_check(Z, Z)
    assert holds and proper
    # counting bound on the product span, independent of closure_check:
    # per degree, the unordered products of basis elements, capped by the
    # number of monomials
    sizes = [len(b) for b in harmonic_basis(Z).by_degree]
    assert sizes == [1, 2, 1]
    n, top = Z.ambient_dim, len(sizes) - 1
    bound = 0
    for d in range(2 * top + 1):
        pairs = sum(sizes[i] * sizes[d - i] if 2 * i < d
                    else comb(sizes[i] + 1, 2)
                    for i in range(max(0, d - top), d // 2 + 1))
        bound += min(pairs, comb(d + n - 1, n - 1))
    assert bound < len(minkowski_sum(Z, Z))
    report(6, "self-sum containment is proper (equality claim refuted)", t0)
