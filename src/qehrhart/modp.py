"""Divided-power dual spaces over prime fields, the positive-characteristic
closure test, and the sumset lower-bound function.

The dual spaces come from ``harmonics.harmonic_basis``, which serves Q and
F_p alike; this module reads its F_p bases as divided-power polynomials.

Scalars are plain ints in [0, p); divided monomials y^(a) multiply through
binomial coefficients reduced mod p (computed by Lucas's rule, so no big
factorials appear).
"""

from __future__ import annotations

from .harmonics import grlex_key, harmonic_basis, span_products
from .qseries import _integer


class PointCollisionError(ValueError):
    """Two points of the locus coincide after reduction mod p."""


def binom_mod(n, k, p):
    """Binomial coefficient mod p via Lucas's theorem (p prime)."""
    if k < 0 or k > n:
        return 0
    r = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        num = den = 1
        for i in range(ki):
            num = num * (ni - i) % p
            den = den * (i + 1) % p
        r = r * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return r


class DividedPoly:
    """Element of the divided power algebra over F_p: {exponents: scalar}."""

    __slots__ = ("p", "n", "terms")

    def __init__(self, p, n, terms=None):
        self.p = p
        self.n = n
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = _integer(c) % p
                if c:
                    self.terms[tuple(m)] = c

    @staticmethod
    def one(p, n):
        return DividedPoly(p, n, {(0,) * n: 1})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def __eq__(self, other):
        return (isinstance(other, DividedPoly) and self.p == other.p
                and self.terms == other.terms)

    def __add__(self, other):
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = (out.get(m, 0) + c) % self.p
        return DividedPoly(self.p, self.n, out)

    def __repr__(self):
        parts = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            body = "*".join(f"y{i+1}({e})" for i, e in enumerate(m) if e)
            parts.append(f"{c}*{body}" if body else str(c))
        return " + ".join(parts) or "0"


def divided_mul(f: DividedPoly, g: DividedPoly) -> DividedPoly:
    """Product in the divided power algebra: y^(a) y^(b) = prod C(a+b, a) y^(a+b)."""
    if f.p != g.p:
        raise ValueError("modulus mismatch")
    p = f.p
    out = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            coef = ca * cb % p
            for a, b in zip(ma, mb):
                if coef == 0:
                    break
                coef = coef * binom_mod(a + b, a, p) % p
            if coef:
                m = tuple(a + b for a, b in zip(ma, mb))
                out[m] = (out.get(m, 0) + coef) % p
    return DividedPoly(p, f.n, out)


def _reduce_points(Z, p):
    pts = [tuple(int(x) % p for x in z) for z in Z]
    if len(set(pts)) != len(pts):
        raise PointCollisionError("points collide after reduction mod %d" % p)
    return pts


def harmonic_basis_modp(Z, p):
    """Degreewise dual-space bases over F_p, as DividedPoly lists: the
    bases of ``harmonics.harmonic_basis(points mod p, p)``.

    Each degree's basis is in free-column form: one element per free
    monomial, with coordinate 1 there and 0 at every other free monomial.
    That is the reduced echelon form of the dual space against
    grlex-ascending columns, so it is canonical: equal dual spaces give
    equal lists.  The characteristic-zero bases are reduced against
    grlex-descending columns instead, so an element's coordinate at its
    leading monomial is not its pivot here.
    """
    hb = harmonic_basis(_reduce_points(Z, p), p)
    return [[DividedPoly(p, hb.n, f.terms) for f in bs] for bs in hb.by_degree]


def closure_check_modp(Z, Zp, p) -> bool:
    """Product containment of dual spaces over F_p; True on all valid inputs."""
    pts1 = _reduce_points(Z, p)
    pts2 = _reduce_points(Zp, p)
    if len(pts1[0]) != len(pts2[0]):
        raise ValueError("ambient dimension mismatch")
    # the sumset lives in F_p^n: add coordinatewise mod p and deduplicate
    Zsum = sorted({tuple((a + b) % p for a, b in zip(z, zp))
                   for z in pts1 for zp in pts2})
    span = span_products(harmonic_basis_modp(pts1, p),
                         harmonic_basis_modp(pts2, p), mul=divided_mul, p=p)
    return harmonic_basis(Zsum, p).first_outside(span) is None


def beta_bound(r, rp, p) -> int:
    """Smallest n such that every k with a nonvanishing binomial C(n, k)
    (mod p when p > 0) has k >= r or n - k >= rp.

    With p = 0 this is r + rp - 1; positive characteristic can make it
    smaller because binomials vanish.
    """
    if r < 1 or rp < 1:
        raise ValueError("arguments must be positive")
    for n in range(0, r + rp):
        ok = True
        for k in range(n + 1):
            if p:
                if binom_mod(n, k, p) == 0:
                    continue
            if k >= r or n - k >= rp:
                continue
            ok = False
            break
        if ok:
            return n
    return r + rp - 1
