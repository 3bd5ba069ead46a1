import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hypothesis import given, settings, strategies as st

from conftest import segment
from qehrhart.ehrhart import series_E, series_Ebar
from qehrhart import qseries
from qehrhart.qseries import (BivarPoly, InsufficientTruncationError, QPoly,
                              RatFun2, TQSeries, _factor_clears,
                              _mul_factor_rows, _trim, denominator_search,
                              fit_numerator)


def geom_series(v, T):
    """sum_m [mv+1]_q t^m, the count series of a length-v segment."""
    return TQSeries([QPoly.q_integer(m * v + 1) for m in range(T + 1)], T)


class TestQPoly:
    def test_trim_and_degree(self):
        p = QPoly([1, 2, 0, 0])
        assert p.coeffs == [1, 2]
        assert p.degree == 1
        assert QPoly().degree == -1

    def test_arith(self):
        p, q = QPoly([1, 1]), QPoly([0, 2, 1])
        assert p + q == QPoly([1, 3, 1])
        assert p * q == QPoly([0, 2, 3, 1])
        assert (p - p).is_zero()
        assert p.shift(2) == QPoly([0, 0, 1, 1])

    def test_int_coefficients_stay_int(self):
        p = QPoly([1, Fraction(4, 2), Fraction(1, 2)])
        assert [type(c) for c in p.coeffs] == [int, int, Fraction]
        assert type(p[7]) is int and type(QPoly([1, 2])(3)) is int
        product = QPoly([1, 1]) * QPoly([2, 1])
        assert all(type(c) is int for c in product.coeffs)

    def test_eval(self):
        assert QPoly([1, 2, 3])(1) == 6
        assert QPoly.q_integer(5)(1) == 5

    def test_from_degrees(self):
        assert QPoly.from_degrees([]) == QPoly.zero()
        assert QPoly.from_degrees(iter([2, 0, 2, 5])) == QPoly([1, 0, 2, 0, 0, 1])
        with pytest.raises(ValueError):
            QPoly.from_degrees([1, -1])


class TestFit:
    def test_segment_form(self):
        S = geom_series(1, 8)
        N = fit_numerator(S, [(1, 0), (1, 1)], 0)
        assert N == BivarPoly({(0, 0): 1})

    def test_non_terminating(self):
        # a single factor never clears the tail: residual q^m at every order
        S = geom_series(1, 12)
        assert fit_numerator(S, [(1, 0)], 4) is None

    def test_unit_square_form(self):
        sq = RatFun2(BivarPoly({(0, 0): 1, (1, 1): 1}), [(1, 0), (1, 1), (1, 2)])
        S = sq.expand(9)
        N = fit_numerator(S, [(1, 0), (1, 1), (1, 2)], 1)
        assert N == BivarPoly({(0, 0): 1, (1, 1): 1})

    def test_precondition(self):
        with pytest.raises(InsufficientTruncationError):
            fit_numerator(geom_series(1, 4), [(1, 0), (1, 1)], 4)

    @pytest.mark.parametrize("den", [[(Fraction(3, 2), 1)], [(1, -1)],
                                     [(1, 0), (0, 2)]])
    def test_bad_factor_refused(self, den):
        # (3/2, 1) was truncated to (1, 1); (1, -1) reached the kernel
        with pytest.raises(ValueError):
            fit_numerator(geom_series(1, 10), den, 2)


class TestSearch:
    def test_segment_v2(self):
        S = geom_series(2, 10)
        hits = denominator_search(S, 2, 4, 2)
        assert any(R.denom_factors == ((1, 0), (1, 2))
                   and R.numerator == BivarPoly({(0, 0): 1, (1, 1): 1})
                   for R in hits)

    def test_case_triangle_form(self):
        form = RatFun2(BivarPoly({(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 1}),
                       [(1, 0), (1, 2), (2, 3)])
        S = form.expand(12)
        hits = denominator_search(S, 2, 3, 3, first_only=True)
        assert hits and hits[0].denom_factors == ((1, 0), (1, 2), (2, 3))
        assert hits[0].numerator == form.numerator

    def test_one_point_series(self):
        S = TQSeries([QPoly.one() for _ in range(9)], 8)
        hits = denominator_search(S, 1, 1, 1)
        assert any(R.denom_factors == ((1, 0),)
                   and R.numerator == BivarPoly({(0, 0): 1}) for R in hits)

    def test_canonical_order(self):
        S = geom_series(1, 12)
        hits = denominator_search(S, 2, 2, 3)
        keys = [(R.nu, sum(a + b for (b, a) in R.denom_factors), R.denom_factors)
                for R in hits]
        assert keys == sorted(keys)

    def test_no_factors_no_hits(self):
        S = geom_series(1, 10)
        assert denominator_search(S, 2, 2, 0) == []
        assert denominator_search(S, 2, 2, 0, first_only=True) == []

    @pytest.mark.parametrize("first_only", [False, True])
    def test_each_product_formed_once(self, unit_triangle, monkeypatch,
                                      first_only):
        # outside fit_numerator, no (rows, b, a) is multiplied twice, also
        # across the walks of a first_only search
        S = series_E(unit_triangle, 10)
        seen, inside = [], []
        mul, fit = qseries._mul_factor_rows, qseries.fit_numerator

        def counting_mul(rows, b, a, divide=False):
            if not inside:
                seen.append((tuple(map(tuple, rows)), b, a, divide))
            return mul(rows, b, a, divide)

        def marked_fit(*args):
            inside.append(1)
            try:
                return fit(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(qseries, "_mul_factor_rows", counting_mul)
        monkeypatch.setattr(qseries, "fit_numerator", marked_fit)
        hits = denominator_search(S, 2, 6, 4, first_only=first_only)
        assert hits and seen
        assert len(set(seen)) == len(seen)


def reference_search(S, b_max, a_max, nu_max, t_deg_max=None,
                     first_only=False):
    """One ``fit_numerator`` per multiset in canonical order, as
    (factors, numerator terms) pairs: the route the search must reproduce."""
    types = [(b, a) for b in range(1, b_max + 1) for a in range(a_max + 1)]
    hits = []
    for nu in range(1, nu_max + 1):
        level = sorted(combinations_with_replacement(types, nu),
                       key=lambda f: (sum(a + b for (b, a) in f), f))
        for factors in level:
            sum_b = sum(b for (b, _) in factors)
            tdm = t_deg_max
            if tdm is None:
                tdm = min(sum_b + 4, S.T - sum_b - 2)
            if tdm < 0 or S.T < tdm + sum_b + 2:
                continue
            num = fit_numerator(S, factors, tdm)
            if num is not None:
                hits.append((factors, num.terms))
                if first_only:
                    return hits
    return hits


def search_pairs(S, bounds, t_deg_max, first_only):
    hits = denominator_search(S, *bounds, t_deg_max=t_deg_max,
                              first_only=first_only)
    return [(R.denom_factors, R.numerator.terms) for R in hits]


@pytest.mark.parametrize("interior", [False, True])
@pytest.mark.parametrize("name,T,bounds", [
    ("unit_triangle", 10, (2, 4, 3)), ("unit_square", 10, (2, 4, 3)),
    ("case_triangle", 10, (2, 3, 3)), ("segment", 10, (2, 4, 3)),
    ("reeve2", 6, (2, 3, 4)), ("unit_triangle", 10, (2, 6, 4))])
def test_search_matches_candidate_route(request, name, T, bounds, interior):
    P = segment(0, 2) if name == "segment" else request.getfixturevalue(name)
    S = (series_Ebar if interior else series_E)(P, T)
    for t_deg_max in (None, 2):
        for first_only in (False, True):
            assert search_pairs(S, bounds, t_deg_max, first_only) == \
                reference_search(S, *bounds, t_deg_max, first_only)
    if name != "reeve2":  # its forms need T beyond this size
        assert reference_search(S, *bounds)


class TestBivarPoly:
    def test_integral_coefficients_become_ints(self):
        f = BivarPoly({(0, 0): Fraction(4, 2), (1, 0): True, (1, 1): 0})
        assert f.terms == {(0, 0): 2, (1, 0): 1}
        assert all(type(c) is int for c in f.terms.values())

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3, 2),
                                   Fraction(-7, 3)])
    def test_non_integer_coefficient_refused(self, c):
        # refused, not truncated (1/2 to the zero polynomial, 3/2 to 1)
        with pytest.raises(ValueError):
            BivarPoly({(0, 0): c})


class TestExpand:
    def test_two_factor(self):
        R = RatFun2(BivarPoly({(0, 0): 1}), [(1, 0), (1, 1)])
        S = R.expand(2)
        assert S.coeffs == [QPoly([1]), QPoly([1, 1]), QPoly([1, 1, 1])]

    def test_segment_v2_form(self):
        R = RatFun2(BivarPoly({(0, 0): 1, (1, 1): 1}), [(1, 0), (1, 2)])
        S = R.expand(1)
        assert S.coeffs == [QPoly([1]), QPoly([1, 1, 1])]

    def test_zero_numerator(self):
        R = RatFun2(BivarPoly({}), [(1, 0)])
        assert R.expand(3) == TQSeries.zero(3)

    def test_no_t_constant_factor(self):
        with pytest.raises(ValueError):
            RatFun2(BivarPoly({(0, 0): 1}), [(0, 1)])

    @pytest.mark.parametrize("den", [[(Fraction(3, 2), 1)],
                                     [(1, Fraction(1, 2))], [(1, -1)],
                                     [(2, 0), (-1, 0)]])
    def test_bad_factor_refused(self, den):
        # refused, not truncated ((3/2, 1) to (1, 1)), nor left to fail in
        # the expansion ((1, -1) raised IndexError there)
        with pytest.raises(ValueError):
            RatFun2(BivarPoly({(0, 0): 1}), den)

    def test_integral_exponents_become_ints(self):
        R = RatFun2(BivarPoly({(0, 0): 1}), [(Fraction(2, 1), True), (1, 0)])
        assert R.denom_factors == ((1, 0), (2, 1))
        assert all(type(e) is int for f in R.denom_factors for e in f)

    def test_laurent_numerator_refused(self):
        # t^-1 once landed on t^T, and q^-1 vanished
        for key in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                RatFun2(BivarPoly({key: 1}), [(1, 0)]).expand(3)


factor = st.tuples(st.integers(1, 2), st.integers(0, 3))


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                       st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(factor, min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_round_trip(num_terms, den):
    R = RatFun2(BivarPoly(num_terms), den)
    if R.numerator.is_zero():
        return
    tdeg = R.numerator.t_degree()
    T = tdeg + sum(b for (b, _) in R.denom_factors) + 2
    S = R.expand(T)
    N = fit_numerator(S, R.denom_factors, tdeg)
    assert N == R.numerator
    # integer numerators expand to integer-valued coefficients at q=1
    assert all(c(1).denominator == 1 for c in S.coeffs)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=0, max_size=3),
                min_size=3, max_size=5))
@settings(max_examples=40, deadline=None)
def test_series_ring_laws(coeff_lists):
    T = len(coeff_lists) - 1
    S = TQSeries([QPoly(c) for c in coeff_lists], T)
    one = TQSeries.one(T)
    assert S * one == S
    assert (S + S) - S == S
    assert S.mul_factor(1, 0) == S - TQSeries(
        [QPoly()] + [S.coeffs[m] for m in range(T)], T)


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                       st.integers(-4, 4), max_size=4),
       st.lists(factor, min_size=1, max_size=3),
       st.sampled_from([1, Fraction(1, 2)]),
       st.one_of(st.none(), st.integers(0, 3)), st.booleans())
@settings(max_examples=40, deadline=None)
def test_search_matches_candidate_route_random(num_terms, den, scale,
                                               t_deg_max, first_only):
    # a scale of 1/2 gives non-integral rows, whose fits must be refused
    S = RatFun2(BivarPoly(num_terms), den).expand(9)
    S = TQSeries([c * scale for c in S.coeffs], S.T)
    bounds = (2, 3, 3)
    assert search_pairs(S, bounds, t_deg_max, first_only) == \
        reference_search(S, *bounds, t_deg_max, first_only)


entry = st.one_of(st.integers(-2, 2),
                  st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)))


@given(st.lists(st.lists(entry, max_size=4), max_size=6),
       st.integers(0, 4), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 8), st.booleans())
@settings(max_examples=300, deadline=None)
def test_factor_clears_is_product_test(head, tail, b, a, start, divided):
    # a head of rows then ``tail`` empty ones, optionally divided by the
    # factor, so that the product vanishes beyond the head as often as not
    rows = [_trim(list(row)) for row in head] + [[] for _ in range(tail)]
    if divided:
        rows = _mul_factor_rows(rows, b, a, divide=True)
    assert _factor_clears(rows, b, a, start) == \
        (not any(_mul_factor_rows(rows, b, a)[start:]))


# -- the series-by-factor kernel against the loops it replaced ----------------

def ref_mul_factor(S, b, a):
    """``TQSeries.mul_factor`` as it was: one QPoly shift per t-power."""
    out = list(S.coeffs)
    for m in range(S.T, b - 1, -1):
        out[m] = out[m] - S.coeffs[m - b].shift(a)
    return TQSeries(out, S.T)


def ref_expand(R, T):
    """``RatFun2.expand`` as it was: times sum_k q^(ak) t^(bk), per factor."""
    series = TQSeries(R.numerator.as_qpoly_list(T), T)
    for (b, a) in R.denom_factors:
        out = [QPoly() for _ in range(T + 1)]
        for m in range(T + 1):
            c = series.coeffs[m]
            if c.is_zero():
                continue
            k = 0
            while m + k * b <= T:
                out[m + k * b] = out[m + k * b] + c.shift(a * k)
                k += 1
        series = TQSeries(out, T)
    return series


def ref_fit_numerator(S, den, t_deg_max):
    """``fit_numerator`` as it was, on ``ref_mul_factor``."""
    den = sorted((int(b), int(a)) for (b, a) in den)
    sum_b = sum(b for (b, _) in den)
    if S.T < t_deg_max + sum_b + 2:
        raise InsufficientTruncationError("short")
    prod = S
    for (b, a) in den:
        prod = ref_mul_factor(prod, b, a)
    for m in range(t_deg_max + 1, prod.T + 1):
        if not prod.coeffs[m].is_zero():
            return None
    terms = {}
    for m in range(min(t_deg_max, prod.T) + 1):
        for d, c in enumerate(prod.coeffs[m].coeffs):
            if c:
                if c.denominator != 1:
                    return None
                terms[(m, d)] = int(c)
    return BivarPoly(terms)


def random_form(rng):
    """Up to four numerator terms (none at all, or negative coefficients,
    included) over up to three factors, a = 0 and b > 1 included."""
    terms = {(rng.randint(0, 3), rng.randint(0, 4)): rng.randint(-3, 3)
             for _ in range(rng.randint(0, 4))}
    den = [(rng.randint(1, 3), rng.randint(0, 3))
           for _ in range(rng.randint(0, 3))]
    return RatFun2(BivarPoly(terms), den)


def coeff_types(S):
    return [[type(c) for c in q.coeffs] for q in S.coeffs]


@pytest.mark.parametrize("seed", range(3))
def test_expand_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(300):
        R = random_form(rng)
        T = rng.randint(0, 8)     # often below a factor's b
        got, want = R.expand(T), ref_expand(R, T)
        assert got == want, (R, T)
        assert coeff_types(got) == coeff_types(want)


@pytest.mark.parametrize("seed", range(3))
def test_mul_factor_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(300):
        T = rng.randint(0, 6)
        scale = rng.choice([1, Fraction(1, 2), Fraction(-2, 3)])
        S = TQSeries([QPoly([rng.randint(-3, 3) * scale
                             for _ in range(rng.randint(0, 4))])
                      for _ in range(T + 1)], T)
        b, a = rng.randint(0, 8), rng.randint(0, 3)   # b = 0 and b > T too
        got, want = S.mul_factor(b, a), ref_mul_factor(S, b, a)
        assert got == want, (S, b, a)
        assert coeff_types(got) == coeff_types(want)


@pytest.mark.parametrize("seed", range(3))
def test_fit_numerator_matches_reference(seed):
    rng = random.Random(seed)
    hits = 0
    for _ in range(200):
        R = random_form(rng)
        T = rng.randint(0, 12)
        S = R.expand(T)
        # non-integral rows must be refused, as before
        scale = rng.choice([1, 1, Fraction(1, 2), Fraction(4, 2)])
        S = TQSeries([c * scale for c in S.coeffs], T)
        den = rng.choice([R.denom_factors, random_form(rng).denom_factors])
        t_deg_max = rng.randint(-1, 4)
        try:
            want = ref_fit_numerator(S, den, t_deg_max)
        except InsufficientTruncationError:
            with pytest.raises(InsufficientTruncationError):
                fit_numerator(S, den, t_deg_max)
            continue
        got = fit_numerator(S, den, t_deg_max)
        assert got == want, (R, T, scale, den, t_deg_max)
        hits += want is not None
    assert hits   # some fits succeed, so both outcomes are compared
