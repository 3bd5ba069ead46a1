"""Graded lattice-point series of polytopes: per-dilate q-counts, the two
series built from them, weighted enumerators, simplex numerators from
semi-open parallelepipeds, rational-form guessing, reciprocity, and the
classical (q = 1) cross-checks.

The per-dilate count is the graded dimension of the dual space attached to
the dilate's lattice points, which an invertible affine lattice map leaves
unchanged.  Counting works in hull coordinates and takes the first route
that applies:

- weight: a down-closed polytope in the nonnegative orthant counts q to the
  coordinate sum of each point (for the relative interior, divided by
  q^dim);
- corner: a polytope with a corner map (``LatticePolytope.corner_map``) is
  a unimodular image of a down-closed one, and counts the weights of the
  mapped points the same way;
- memo: a locus counted before, up to translation, is not counted again;
- elimination: count-mode Buchberger–Möller on the locus.

Counts are memoised per (vertices, m, interior) and per locus, in one
bounded dict that also holds ``halgebra.component``'s dual spaces.  Every
route checks that the count sums to the number of points, and the tests
compare each shortcut with elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .harmonics import InconsistencyError, hilbert_qpoly
from .polytope import LatticePolytope, _adjugate, _int_det
from .qseries import (BivarPoly, QPoly, RatFun2, TQSeries, denominator_search)


class NotASimplexError(ValueError):
    """Operation requires a simplex (dim + 1 vertices)."""


MEMO_CAP = 4096   # entries; once full, the oldest entry goes first
_memo = {}        # ("polytope", vertices, m, interior) or ("locus", ...) -> QPoly,
                  # ("component", vertices, m) -> HarmonicBasis
_locus_stats = {"hits": 0, "misses": 0}


def clear_memo():
    """Empty the memo (counts and components) and reset its locus counters."""
    _memo.clear()
    _locus_stats.update(hits=0, misses=0)


def memo_stats():
    """Locus-key hits and misses since the last clear."""
    return dict(_locus_stats)


def memoised(key, compute):
    """The memo entry under key; on a miss, compute() is stored there, and
    the oldest entry goes once the memo holds ``MEMO_CAP`` entries."""
    out = _memo.get(key)
    if out is None:
        out = compute()
        if len(_memo) >= MEMO_CAP:
            del _memo[next(iter(_memo))]
        _memo[key] = out
    return out


def _locus_key(pts):
    """The locus translated to coordinatewise minimum 0, sorted, flattened."""
    lo = [min(c) for c in zip(*pts)]
    return ("locus", len(lo),
            tuple(x - a for u in sorted(pts) for x, a in zip(u, lo)))


def _weight_poly(locus):
    """Sum of q^(coordinate sum) over the locus; a negative sum raises
    ValueError."""
    return QPoly.from_degrees(sum(z) for z in locus)


def _orthant_count(locus, dim, interior):
    """Count of a down-closed locus, or of the interior of a down-closed
    polytope (its interior locus less the all-ones vector is down-closed)."""
    out = _weight_poly(locus)
    return out.divide_by_q_power(dim) if interior else out


def _count(P: LatticePolytope, m: int, interior: bool) -> QPoly:
    return memoised(("polytope", P.vertices, m, interior),
                    lambda: _fresh_count(P, m, interior))


def _fresh_count(P, m, interior):
    if P.dim == P.ambient_dim or P.is_antiblocking():
        # ambient coordinates: the hull ones, or the ones the weights need
        enum = P.interior_lattice_points if interior else P.lattice_points
        pts = enum(m).points
    else:
        pts = P._hull_points(m, interior)
    if not pts:
        out = QPoly.zero()
    elif P.dim == 0:
        out = QPoly.one()
    elif P.is_antiblocking():
        out = _orthant_count(pts, P.dim, interior)
    elif (corner := P.corner_map()) is not None:
        v, Binv = corner
        mv = [m * x for x in v]
        out = _orthant_count(
            [tuple(sum(r * (x - y) for r, x, y in zip(row, u, mv))
                   for row in Binv) for u in pts], P.dim, interior)
    else:
        lkey = _locus_key(pts)
        _locus_stats["hits" if lkey in _memo else "misses"] += 1
        out = memoised(lkey, lambda: hilbert_qpoly(pts))
    if out(1) != len(pts):
        raise InconsistencyError("graded count does not sum to the point count")
    return out


def iq(P: LatticePolytope, m: int) -> QPoly:
    """Graded count of lattice points of the m-th dilate; at q=1 the cardinality."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return QPoly.one()
    return _count(P, m, False)


def iq_interior(P: LatticePolytope, m: int) -> QPoly:
    """Graded count for the relative interior of the m-th dilate."""
    if m < 1:
        raise ValueError("m must be positive")
    return _count(P, m, True)


def series_E(P: LatticePolytope, T: int) -> TQSeries:
    return TQSeries([iq(P, m) for m in range(T + 1)], T)


def series_Ebar(P: LatticePolytope, T: int) -> TQSeries:
    return TQSeries([QPoly.zero()] + [iq_interior(P, m) for m in range(1, T + 1)], T)


def weight_series_W(P: LatticePolytope, T: int) -> TQSeries:
    """Coordinate-sum weighted enumerator of the dilates (no dual spaces)."""
    return TQSeries([_weight_poly(P.lattice_points(m)) for m in range(T + 1)], T)


def weight_series_Wbar(P: LatticePolytope, T: int) -> TQSeries:
    return TQSeries([QPoly.zero()]
                    + [_weight_poly(P.interior_lattice_points(m))
                       for m in range(1, T + 1)], T)


# -- simplices --------------------------------------------------------------

def simplex_numerators(P: LatticePolytope):
    """Weight-series numerators of a lattice simplex over prod(1 - t q^|v|).

    Enumerates the lattice points of the half-open parallelepiped spanned by
    the lifted vertices (1, v), and of its opposite; returns (N, Nbar, den)
    where den lists (1, |v|) factors.  At q=1 the numerator N gives the
    classical h*-vector.

    In hull coordinates, (k, u) has coordinates a / |det H| in the basis H
    of lifted vertices, where a = sign(det H) adj(H) (k, u) is integral.
    """
    if not P.is_simplex():
        raise NotASimplexError("numerator enumeration needs a simplex")
    d = P.dim
    weights = [sum(v) for v in P.vertices]
    if any(w < 0 for w in weights):
        raise ValueError("vertex with negative coordinate sum; not supported")
    H = [[1] * (d + 1)] + [list(col) for col in zip(*P._vertices_u)]
    det = _int_det(H)
    adj = [[a if det > 0 else -a for a in row] for row in _adjugate(H)]
    D = abs(det)

    def collect(ks, inside):
        terms = {}
        for k in ks:
            for u in P._hull_points(k, False):
                a = [sum(x * y for x, y in zip(r, (k,) + u)) for r in adj]
                if all(inside(x) for x in a):
                    w = sum(x * y for x, y in zip(a, weights)) // D
                    terms[(k, w)] = terms.get((k, w), 0) + 1
        return BivarPoly(terms)

    N = collect(range(d + 1), lambda x: 0 <= x < D)
    Nbar = collect(range(1, d + 2), lambda x: 0 < x <= D)
    den = tuple(sorted((1, w) for w in weights))
    return N, Nbar, den


# -- rational-form guessing --------------------------------------------------

def default_bounds(P: LatticePolytope):
    """Search bounds: b <= 4, a <= twice the largest L1 norm in P, nu <= dim+3."""
    pts = P.lattice_points(1)
    amax = max((sum(abs(x) for x in z) for z in pts), default=0)
    return {"b_max": 4, "a_max": max(1, 2 * amax), "nu_max": P.dim + 3}


def guess(P: LatticePolytope, T=10, bounds=None, interior=False):
    """First reported denominator with a terminating numerator fit, or None.

    Candidates are scanned in canonical order (factor count, then total
    degree, then the sorted factor list), so the reported form is the
    minimal verifiable one at this truncation order.
    """
    b = dict(default_bounds(P))
    if bounds:
        b.update(bounds)
    S = series_E(P, T) if not interior else series_Ebar(P, T)
    hits = denominator_search(S, b["b_max"], b["a_max"], b["nu_max"],
                              t_deg_max=b.get("t_deg_max"), first_only=True)
    return hits[0] if hits else None


def verify_guess_expansion(P: LatticePolytope, form: RatFun2, T: int) -> bool:
    return form.expand(T) == series_E(P, T)


# -- reciprocity -------------------------------------------------------------

def _reciprocal(E: RatFun2, Ebar: RatFun2, d: int, shift: int) -> bool:
    """q^shift * Ebar(t, q) == (-1)^(d+1) * E(1/t, 1/q), cross-multiplied as
    Laurent polynomials, so no common denominator needs to be constructed."""
    sign = 1 if d % 2 else -1
    return (Ebar.numerator * BivarPoly({(0, shift): sign})
            * E.denominator_poly().reflect()
            == E.numerator.reflect() * Ebar.denominator_poly())


def reciprocity_check(E: RatFun2, Ebar: RatFun2, d: int) -> bool:
    """Exact identity q^d * Ebar(t, q) == (-1)^(d+1) * E(1/t, 1/q)."""
    return _reciprocal(E, Ebar, d, d)


def weight_reciprocity_check(N: BivarPoly, Nbar: BivarPoly, den, d: int) -> bool:
    """Nbar/D == (-1)^(d+1) N(1/t,1/q)/D(1/t,1/q) as rational functions."""
    return _reciprocal(RatFun2(N, den), RatFun2(Nbar, den), d, 0)


# -- structural identity checks ----------------------------------------------

def check_dilation(P: LatticePolytope, d: int, T: int) -> bool:
    """Series of dP versus the subsequence of dilate counts of P.

    Both sides share the count memo, and the lattice points of m(dP) and
    (dm)P form one locus, so within one process this compares the
    enumerated loci (and routes); the counts themselves are computed once.
    """
    lhs = series_E(P.dilate(d), T)
    rhs = TQSeries([iq(P, d * m) for m in range(T + 1)], T)
    return lhs == rhs


def check_product(P: LatticePolytope, Q: LatticePolytope, T: int) -> bool:
    """Series of P x Q versus the coefficientwise (Hadamard) product."""
    lhs = series_E(P.product(Q), T)
    rhs = series_E(P, T).hadamard(series_E(Q, T))
    return lhs == rhs


def check_join(P: LatticePolytope, Q: LatticePolytope, T: int) -> bool:
    """Series of the free join versus (1-t)/(1-qt) times the product of series."""
    lhs = series_E(P.join(Q), T)
    geom = RatFun2(BivarPoly({(0, 0): 1}), [(1, 1)]).expand(T)  # 1/(1-qt)
    rhs = (series_E(P, T) * series_E(Q, T)).mul_factor(1, 0) * geom
    return lhs == rhs


# -- classical cross-check ----------------------------------------------------

@dataclass
class HStar:
    """Numerator coefficients of the q=1 counting series over (1-t)^(d+1)."""

    coefficients: tuple

    @property
    def volume(self):
        return sum(self.coefficients)


def classical_check(P: LatticePolytope):
    """h*-vector from exact interpolation, with consistency assertions.

    Verifies polynomial counting (rationality margin), h*_0 = 1,
    nonnegativity, the volume sum, and the q -> 1 collapse of the graded
    counts onto the plain counts.
    """
    d = P.dim
    T = d + 3
    counts = [len(P.lattice_points(m)) for m in range(T + 1)]
    S = TQSeries([QPoly([c]) for c in counts], T)
    for _ in range(d + 1):
        S = S.mul_factor(1, 0)
    coeffs = S.at_q1()
    if any(coeffs[m] != 0 for m in range(d + 1, T + 1)):
        raise InconsistencyError("counting function is not a degree-d polynomial")
    hstar = HStar(tuple(coeffs[: d + 1]))
    report = {
        "h_star": list(hstar.coefficients),
        "volume": hstar.volume,
        "counts": counts,
    }
    if hstar.coefficients[0] != 1:
        raise InconsistencyError("h*_0 must be 1")
    if any(c < 0 for c in hstar.coefficients):
        raise InconsistencyError("negative h* entry")
    if hstar.volume != P.normalized_volume():
        raise InconsistencyError("h* sum differs from the normalized volume")
    for m in range(T + 1):
        if iq(P, m)(1) != counts[m]:
            raise InconsistencyError("graded count disagrees with cardinality")
    return hstar, report


# -- record -------------------------------------------------------------------

@dataclass
class QEhrhartRecord:
    """Assembled per-polytope data: counts to order T plus optional guesses."""

    name: str
    vertices: tuple
    T: int
    iq: list = field(default_factory=list)
    iq_interior: list = field(default_factory=list)
    guess_E: RatFun2 | None = None
    guess_Ebar: RatFun2 | None = None
    verification: str = "none"


def compute_record(P: LatticePolytope, T: int, with_guess=False, bounds=None):
    """Assemble the per-polytope record; optionally guess rational forms,
    labelled as consistent with the truncation, never stronger."""
    rec = QEhrhartRecord(
        name=P.name or "polytope",
        vertices=tuple(P.vertices),
        T=T,
        iq=[iq(P, m) for m in range(T + 1)],
        iq_interior=[QPoly.zero()] + [iq_interior(P, m) for m in range(1, T + 1)],
    )
    if with_guess:
        rec.guess_E = guess(P, T, bounds)
        rec.guess_Ebar = guess(P, T, bounds, interior=True)
        rec.verification = f"truncation({T})" if rec.guess_E else "none"
    return rec
