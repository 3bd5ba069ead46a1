"""Test-only Gröbner oracle: elementary generators of a vanishing ideal and
classical S-polynomial completion.

Exponential-time, but independent of the package's evaluation-matrix route
(``harmonics.buchberger_moeller``), so the tests use it as a cross-check on
small instances.  Polynomials are ``harmonics.MultiPoly``.
"""

from fractions import Fraction
from itertools import product as iproduct

from qehrhart.harmonics import MultiPoly, grlex_key, mono_divides, mono_mul


class TooLargeError(ValueError):
    """Instance exceeds the supported brute-force bounds."""


def _variable(n, i):
    e = [0] * n
    e[i] = 1
    return MultiPoly(n, {tuple(e): 1})


def _mul_term(f, mono, coeff):
    return MultiPoly(f.n, {mono_mul(m, mono): c * coeff
                           for m, c in f.terms.items()})


def _monic(f):
    lm = f.leading_monomial()
    lc = f.terms[lm] if lm is not None else 0
    if lc in (0, 1):
        return f
    return f * (Fraction(1) / lc)


def product_gens_oracle(Z):
    """Elementary generators of the vanishing ideal: for every assignment of
    a coordinate to each point, the product of the matching linear forms.
    """
    points = list(Z)
    n = len(points[0])
    if len(points) > 6 or n > 3:
        raise TooLargeError("supported only for small instances")
    gens = []
    seen = set()
    for choice in iproduct(range(n), repeat=len(points)):
        f = MultiPoly.constant(n, 1)
        for z, i in zip(points, choice):
            f = f * (_variable(n, i) - MultiPoly.constant(n, z[i]))
        key = tuple(sorted(f.terms.items()))
        if key not in seen:
            seen.add(key)
            gens.append(f)
    return gens


def _normal_form(f: MultiPoly, gens):
    """Remainder of f modulo the generator list (top-reduction repeatedly)."""
    rem = MultiPoly(f.n)
    work = f
    while not work.is_zero():
        lm = work.leading_monomial()
        lc = work.terms[lm]
        for g in gens:
            glm = g.leading_monomial()
            if mono_divides(glm, lm):
                q = tuple(a - b for a, b in zip(lm, glm))
                work = work - _mul_term(g, q, Fraction(lc) / g.terms[glm])
                break
        else:
            t = MultiPoly(f.n, {lm: lc})
            rem = rem + t
            work = work - t
    return rem


def buchberger(gens):
    """Classical S-polynomial completion; returns the reduced basis."""
    basis = [_monic(g) for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        fi, fj = basis[i], basis[j]
        mi, mj = fi.leading_monomial(), fj.leading_monomial()
        lcm = tuple(max(a, b) for a, b in zip(mi, mj))
        if all(a + b == c for a, b, c in zip(mi, mj, lcm)):
            continue  # coprime leading terms
        s = (_mul_term(fi, tuple(a - b for a, b in zip(lcm, mi)), 1)
             - _mul_term(fj, tuple(a - b for a, b in zip(lcm, mj)), 1))
        r = _normal_form(s, basis)
        if not r.is_zero():
            basis.append(_monic(r))
            k = len(basis) - 1
            pairs.extend((k, t) for t in range(k))
    # inter-reduce to the unique reduced basis
    reduced = []
    lts = [g.leading_monomial() for g in basis]
    for i, g in enumerate(basis):
        if any(j != i and mono_divides(lts[j], lts[i]) for j in range(len(basis))):
            continue
        others = [h for j, h in enumerate(basis) if j != i]
        tail = g - MultiPoly(g.n, {lts[i]: 1})  # entries are monic
        reduced.append(MultiPoly(g.n, {lts[i]: 1})
                       + _normal_form(tail, others))
    reduced.sort(key=lambda g: grlex_key(g.leading_monomial()))
    return reduced
