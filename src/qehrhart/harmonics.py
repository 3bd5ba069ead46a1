"""Vanishing ideals of finite integer point sets, their associated graded
ideals, and the dual (inverse-system) spaces under the differentiation
pairing, in exact arithmetic with graded lex order, x1 > x2 > ...
throughout.  The pipeline from points to dual bases serves both fields:
its argument ``p`` is 0 for Q, or a prime for F_p.

Gröbner bases of vanishing ideals come from incremental echelon reduction
of evaluation rows, monomials taken in graded lex order until the standard
monomials span all point evaluations; each monomial's row is its Newton
monomial over nodes taken from the points (``_run_bm``).  A classical
S-polynomial algorithm is a small-instance cross-check.  Products of dual
spaces are spanned by ``span_products``, and a dual space tests membership
in itself (``HarmonicBasis.contains``).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import factorial

from .linalg import Echelon, Mat, nullspace, rref
from .polytope import PointLocus, minkowski_sum
from .qseries import QPoly, _exact


class InconsistencyError(RuntimeError):
    """An internal invariant failed; signals an implementation bug."""


class TooLargeError(ValueError):
    """Instance exceeds the supported brute-force bounds."""


# -- monomials ------------------------------------------------------------

def grlex_key(mono):
    """Sort key for graded lex with x1 > x2 > ...; bigger key = bigger monomial."""
    return (sum(mono), mono)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomials_of_degree(n, d):
    """All exponent vectors of total degree d, grlex descending."""
    if n == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, left, slots):
        if slots == 1:
            out.append(prefix + (left,))
            return
        for e in range(left, -1, -1):
            rec(prefix + (e,), left - e, slots - 1)

    rec((), d, n)
    return out


@cache
def _monomial_index(n, d):
    """Position of each degree-d monomial in grlex-descending order (shared;
    callers must not mutate it)."""
    return {m: i for i, m in enumerate(monomials_of_degree(n, d))}


def coord_row(f, d):
    """Coordinates of a homogeneous degree-d polynomial over the degree-d
    monomials in grlex-descending order."""
    idx = _monomial_index(f.n, d)
    row = [0] * len(idx)
    for m, c in f.terms.items():
        row[idx[m]] = c
    return row


class MultiPoly:
    """Multivariate polynomial as {exponent tuple: coefficient}, zero terms
    absent; a coefficient is an int unless its value is not an integer."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = c if type(c) is int else _exact(c)
                if c:
                    self.terms[tuple(m)] = c

    @staticmethod
    def variable(n, i):
        e = [0] * n
        e[i] = 1
        return MultiPoly(n, {tuple(e): 1})

    @staticmethod
    def constant(n, c):
        return MultiPoly(n, {(0,) * n: c})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def leading_monomial(self):
        return max(self.terms, key=grlex_key) if self.terms else None

    def leading_coeff(self):
        lm = self.leading_monomial()
        return self.terms[lm] if lm is not None else 0

    def top_component(self):
        """Highest-degree homogeneous part."""
        d = self.degree()
        return MultiPoly(self.n, {m: c for m, c in self.terms.items() if sum(m) == d})

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(self.n, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return MultiPoly(self.n, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.n, {m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return MultiPoly(self.n, out)

    __rmul__ = __mul__

    def mul_term(self, mono, coeff):
        return MultiPoly(self.n, {mono_mul(m, mono): c * coeff
                                  for m, c in self.terms.items()})

    def monic(self):
        lc = self.leading_coeff()
        if lc in (0, 1):
            return self
        return self * (Fraction(1) / lc)

    def evaluate(self, point):
        total = 0
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = v * x ** e
            total += v
        return total

    def __repr__(self):
        return f"MultiPoly({dump_poly(self)})"


def dump_poly(f: MultiPoly, names=None) -> str:
    """One-line textual form: terms grlex descending, reduced fraction coefficients."""
    if f.is_zero():
        return "0"
    if names is None:
        names = [f"x{i+1}" for i in range(f.n)]
    parts = []
    for m in sorted(f.terms, key=grlex_key, reverse=True):
        c = f.terms[m]
        body = "*".join(
            (names[i] if e == 1 else f"{names[i]}^{e}")
            for i, e in enumerate(m) if e)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


@dataclass
class GBasis:
    """Reduced graded-lex Gröbner basis with its standard monomials."""

    n: int
    generators: list          # list of MultiPoly, monic, sorted by leading term
    standard_monomials: list  # grlex ascending

    def leading_terms(self):
        return [g.leading_monomial() for g in self.generators]


def _nodes(points):
    """Interpolation nodes of each axis: the distinct values of that
    coordinate, most frequent first, ties by value."""
    out = []
    for col in zip(*points):
        freq = Counter(col)
        out.append(sorted(freq, key=lambda x: (-freq[x], x)))
    return out


def _run_bm(points, p=0, track=False, graded=False):
    """Core elimination over Q (``p = 0``) or F_p: (standard monomials,
    gens, nodes).

    Monomials a come in graded lex order.  The row of a is the Newton
    monomial N_a = prod_i prod_{j < a_i} (x_i - t_ij) at the points, with
    t_i0, t_i1, ... the ``_nodes`` of axis i: the row of a's parent (the
    standard monomial that queued it) times one factor column
    x_i - t_i(a_i - 1).  With the points sorted by the graded lex order of
    their node ranks, N_a vanishes wherever a rank is below a, so rows are
    sparse and nearly triangular.  Results equal those of rows x^a:

    - N_a is x^a plus an integer combination of its proper divisors, for
      any nodes, so also mod p.  The monomials below a are closed under
      division, so the echelon spans the same space at every step and the
      same monomials are standard.
    - A dependent a gives N_a - sum mu_e N_e in I(Z), over standard e < a.
      Expanded, it is supported on a and standard monomials, so it is the
      reduced generator, with top component x^a - sum_{|e|=|a|} mu_e x^e.
    - Point and node order change only fill-in.

    With ``track`` each row carries its combination of Newton monomials, and
    every dependent monomial yields (leading monomial, integer combination);
    without it the loop stops at the N-th standard monomial and ``gens`` is
    empty.  With ``graded`` as well, a combination keeps only the monomials
    of its row's degree.
    """
    n = len(points[0]) if points else 0
    N = len(points)
    if N == 0:
        raise ValueError("empty point set")
    nodes = _nodes(points)
    ranks = [{t: j for j, t in enumerate(ts)} for ts in nodes]
    points = sorted(points, key=lambda z: grlex_key(
        tuple(r[x] for r, x in zip(ranks, z))))
    cols = list(zip(*points))
    one = (0,) * n
    heap = [(grlex_key(one), one)]
    parent = {one: None}  # queued monomial -> (axis, its parent's row)
    ech = Echelon(p)
    std = []
    gens = []
    lead_terms = []
    deg = 0
    while heap:
        (d, _), mono = heapq.heappop(heap)
        # every monomial of degree d is queued before the first one is
        # popped, so the entry is no longer needed as a seen mark
        pushed_by = parent.pop(mono)
        if any(mono_divides(lt, mono) for lt in lead_terms):
            continue
        if graded and d > deg:
            # Monomials come in degree order, and the degree-d part of a
            # combination involves only degree-d pivot rows: the lower
            # ones' combinations can be dropped.
            deg = d
            for *_, pcombo in ech.pivots:
                pcombo.clear()
        if pushed_by is None:
            row = [1] * N
        else:
            i, prow = pushed_by
            # in range: with a_i - 1 past the nodes the parent's row is 0
            t = nodes[i][mono[i] - 1]
            row = [a * (x - t) for a, x in zip(prow, cols[i])]
        vec, combo = ech.reduce(row, {mono: 1} if track else None)
        if not ech.push(vec, combo):
            lead_terms.append(mono)
            if track:
                gens.append((mono, combo))
            continue
        std.append(mono)
        if not track and len(std) == N:
            break
        for i in range(n):
            suc = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            if suc not in parent:
                parent[suc] = (i, row)
                heapq.heappush(heap, (grlex_key(suc), suc))
    if len(std) != N:
        raise InconsistencyError("standard monomial count differs from locus size")
    return std, gens, nodes


def _newton_to_monomials(combo, nodes, p):
    """Expand a combination of Newton monomials into monomials (mod p if
    ``p``)."""
    out = {}
    for a, c in combo.items():
        # N_a = prod_i P_i(x_i), where P_i = prod_{j < a_i} (x_i - t_ij)
        terms = {(): c}
        for e, ts in zip(a, nodes):
            poly = [1]  # coefficients of P_i, by degree
            for t in ts[:e]:
                poly = [u - t * v for u, v in zip([0] + poly, poly + [0])]
            terms = {m + (k,): x * y for m, x in terms.items()
                     for k, y in enumerate(poly) if y}
        for m, x in terms.items():
            out[m] = out.get(m, 0) + x
    if p:
        out = {m: x % p for m, x in out.items()}
    return out


def buchberger_moeller(Z, p=0, graded=False) -> GBasis:
    """Reduced Gröbner basis of the vanishing ideal of a finite point set,
    over Q (``p = 0``) or F_p (coefficients then integers in [0, p)).

    ``_run_bm`` yields each generator as a combination of Newton monomials,
    expanded here into monomials.  With ``graded`` each generator is
    replaced by its top homogeneous component, whose coefficients are the
    combination's own-degree part, the only part tracked.  The result
    equals taking ``top_component()`` of every generator of the full basis.
    """
    points = list(Z)
    n = len(points[0])
    std, gens, nodes = _run_bm(points, p, track=True, graded=graded)
    if not graded:
        gens = [(lead, _newton_to_monomials(combo, nodes, p))
                for lead, combo in gens]
    gens = [MultiPoly(n, {m: _exact(c, combo[lead]) for m, c in combo.items() if c})
            for lead, combo in gens]
    gens.sort(key=lambda g: grlex_key(g.leading_monomial()))
    return GBasis(n, gens, std)


def hilbert_qpoly(Z) -> QPoly:
    """Graded dimension count of the quotient by the associated graded ideal
    (and of its dual space): the degrees of the standard monomials."""
    std, _, _ = _run_bm(list(Z))
    return QPoly.from_degrees(sum(m) for m in std)


def gr_ideal(Z, p=0) -> GBasis:
    """Reduced Gröbner basis of the associated graded ideal, over Q
    (``p = 0``) or F_p.

    Top homogeneous components of the vanishing ideal's basis, from
    ``buchberger_moeller(..., graded=True)``: leading terms are unchanged
    and tails stay supported on standard monomials, so the result is already
    reduced.
    """
    return buchberger_moeller(list(Z), p, graded=True)


def ideal_rows(gens, n, d):
    """Coordinate rows of the degree-d piece of the ideal generated by
    homogeneous polynomials, given as {monomial: coefficient} dicts: one row
    e*g for each generator g and each monomial e of degree d - deg g."""
    idx = _monomial_index(n, d)
    rows = []
    for g in gens:
        dg = sum(next(iter(g)))
        if dg > d:
            continue
        for e in monomials_of_degree(n, d - dg):
            row = [0] * len(idx)
            for m, c in g.items():
                row[idx[mono_mul(m, e)]] = c
            rows.append(row)
    return rows


def gr_component(Z, d, _gb=None, p=0):
    """Basis of the degree-d piece of the associated graded ideal, over Q
    (``p = 0``) or F_p."""
    gb = _gb if _gb is not None else gr_ideal(Z, p)
    n = gb.n
    mons = list(_monomial_index(n, d))
    rows = ideal_rows([g.terms for g in gb.generators], n, d)
    if not rows:
        return [], mons
    ech, piv = rref(Mat(rows), p)
    basis = [MultiPoly(n, dict(zip(mons, row))) for row in ech.entries[:len(piv)]]
    expected = len(mons) - sum(1 for m in gb.standard_monomials if sum(m) == d)
    if len(basis) != expected:
        raise InconsistencyError("graded component has unexpected dimension")
    return basis, mons


@dataclass
class HarmonicBasis:
    """Degreewise bases of the dual space of the associated graded ideal,
    over Q (``p = 0``) or F_p.

    Elements are polynomials in the dual (y) variables, normalized to
    reduced echelon form against grlex-descending monomial coordinates over
    Q, and to the free-column form of ``modp.harmonic_basis_modp`` over F_p.
    """

    n: int
    by_degree: list  # index d -> list of homogeneous MultiPoly
    p: int = 0
    _echelons: dict = field(default_factory=dict, init=False, compare=False,
                            repr=False)

    def dimension(self):
        return sum(len(b) for b in self.by_degree)

    def hilbert(self) -> QPoly:
        return QPoly([len(b) for b in self.by_degree])

    def elements(self):
        for bs in self.by_degree:
            yield from bs

    def contains(self, f) -> bool:
        """Whether the homogeneous polynomial f lies in the space (against
        its degree's echelon, built on first use and kept)."""
        if f.is_zero():
            return True
        d = f.degree()
        if d not in self._echelons:
            basis = self.by_degree[d] if d < len(self.by_degree) else ()
            self._echelons[d] = Echelon.of((coord_row(g, d) for g in basis),
                                           self.p)
        return self._echelons[d].contains(coord_row(f, d))

    def first_outside(self, span):
        """The first product kept in a ``span_products`` span that is not in
        the space, or None.  Kept products span all products, so None holds
        exactly when every product lies in the space."""
        return next((f for _, kept in span.values() for f in kept
                     if not self.contains(f)), None)


def _is_shifted(points):
    """Down-closed subset of the nonnegative orthant (coordinatewise)."""
    pts = set(points)
    for z in pts:
        for i, e in enumerate(z):
            if e < 0:
                return False
            if e and z[:i] + (e - 1,) + z[i + 1:] not in pts:
                return False
    return True


def harmonic_basis(Z, p=0) -> HarmonicBasis:
    """Dual-space basis, degree by degree, for a finite point set, over Q
    (``p = 0``) or F_p (the points then distinct in [0, p)).

    Down-closed loci in the nonnegative orthant short-circuit to their
    monomial basis {y^z}; the general route builds the graded ideal and
    takes nullspaces degree by degree, with pairing weights a! over Q and 1
    over F_p, where y^b stands for the divided power y^(b).
    """
    points = list(Z)
    n = len(points[0])
    if p and any(not 0 <= x < p for z in points for x in z):
        raise ValueError("points over F_p need coordinates in [0, p)")
    if _is_shifted(points):
        top = max((sum(z) for z in points), default=0)
        by_degree = [[] for _ in range(top + 1)]
        for z in sorted(points, key=grlex_key, reverse=True):
            by_degree[sum(z)].append(MultiPoly(n, {z: 1}))
        return HarmonicBasis(n, by_degree, p)
    gb = gr_ideal(points, p)
    counts = QPoly.from_degrees(sum(m) for m in gb.standard_monomials)
    by_degree = []
    for d in range(counts.degree + 1):
        comp, mons = gr_component(points, d, _gb=gb, p=p)
        if not comp:
            by_degree.append([MultiPoly(n, {m: 1}) for m in mons])
            continue
        weights = [1 if p else _fact(m) for m in mons]
        M = Mat([[g.terms.get(m, 0) * w for m, w in zip(mons, weights)]
                 for g in comp])
        kernel = nullspace(M, p)
        if kernel and not p:
            ech, piv = rref(Mat(kernel))
            kernel = ech.entries[:len(piv)]
        by_degree.append([MultiPoly(n, dict(zip(mons, v))) for v in kernel])
    hb = HarmonicBasis(n, by_degree, p)
    if hb.dimension() != len(points):
        raise InconsistencyError("dual space dimension differs from locus size")
    if hb.hilbert() != counts:
        raise InconsistencyError("dual space degree dims mismatch")
    return hb


def _fact(mono):
    w = 1
    for e in mono:
        w *= factorial(e)
    return w


def apolarity_pair(f: MultiPoly, g: MultiPoly):
    """Differentiation pairing: <x^a, y^b> = a! if a == b else 0, extended bilinearly."""
    total = 0
    for m, c in f.terms.items():
        d = g.terms.get(m)
        if d:
            total += c * d * _fact(m)
    return total


# -- spans of products ------------------------------------------------------

def _by_degree(polys):
    return polys.items() if isinstance(polys, dict) else enumerate(polys)


def span_products(A, B, mul=MultiPoly.__mul__, p=0, span=None):
    """Span of the products mul(f, g), f in A[d1] and g in B[d2], in degree
    d1 + d2, over Q (``p = 0``) or F_p.

    A and B hold homogeneous polynomials by degree (a list, or a dict
    degree -> list).  Nonzero products are added to ``span``, a dict degree
    -> (Echelon, the products it accepted), which is returned.
    """
    if span is None:
        span = {}
    for d1, fs in _by_degree(A):
        for d2, gs in _by_degree(B):
            d = d1 + d2
            for f in fs:
                for g in gs:
                    prod = mul(f, g)
                    if prod.is_zero():
                        continue
                    if d not in span:
                        span[d] = (Echelon(p), [])
                    ech, kept = span[d]
                    if ech.add(coord_row(prod, d)):
                        kept.append(prod)
    return span


def closure_check(Z, Zp):
    """Products of the two dual bases against the dual basis of the sumset.

    Returns (holds, proper_containment, witness); ``holds`` being False
    would flag an implementation bug, with the offending product returned.
    ``proper_containment`` reports whether the products span strictly less
    than the sumset's dual space in some degree.
    """
    if not isinstance(Z, PointLocus):
        pts = [tuple(p) for p in Z]
        Z = PointLocus(len(pts[0]), pts)
    if not isinstance(Zp, PointLocus):
        pts = [tuple(p) for p in Zp]
        Zp = PointLocus(len(pts[0]), pts)
    if Z.ambient_dim != Zp.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    V1 = harmonic_basis(Z)
    V2 = harmonic_basis(Zp)
    V12 = harmonic_basis(minkowski_sum(Z, Zp))
    span = span_products(V1.by_degree, V2.by_degree)
    witness = V12.first_outside(span)
    dims = {d: len(kept) for d, (_, kept) in span.items()}
    proper = any(dims.get(d, 0) < len(bs) for d, bs in enumerate(V12.by_degree))
    return witness is None, proper, witness


# -- independent generating-set route --------------------------------------

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
            f = f * (MultiPoly.variable(n, i) - MultiPoly.constant(n, z[i]))
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
                work = work - g.mul_term(q, Fraction(lc) / g.terms[glm])
                break
        else:
            t = MultiPoly(f.n, {lm: lc})
            rem = rem + t
            work = work - t
    return rem


def buchberger(gens):
    """Classical S-polynomial completion; returns the reduced basis.

    Exponential-time but independent of the evaluation-matrix route; meant
    for cross-checking on small instances only.
    """
    basis = [g.monic() for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        fi, fj = basis[i], basis[j]
        mi, mj = fi.leading_monomial(), fj.leading_monomial()
        lcm = tuple(max(a, b) for a, b in zip(mi, mj))
        if all(a + b == c for a, b, c in zip(mi, mj, lcm)):
            continue  # coprime leading terms
        s = (fi.mul_term(tuple(a - b for a, b in zip(lcm, mi)), 1)
             - fj.mul_term(tuple(a - b for a, b in zip(lcm, mj)), 1))
        r = _normal_form(s, basis)
        if not r.is_zero():
            basis.append(r.monic())
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
