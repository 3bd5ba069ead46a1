"""The bigraded algebra of dual spaces over the dilates of a polytope:
graded components, product spans, Hilbert series of the subalgebra
generated by supplied elements, generation-from-a-cutoff reports (the
subalgebra generated by the components of the low grades, set against each
component), and the equality test for the two poset polytopes.

Components are stored without materializing the bookkeeping variable for
the dilation grade: each is the dual space of one dilate, memoised under
(vertices, m), and its grade m plus products in the dual variables
reproduce the bigrading.  Spans of products come from
``harmonics.span_products``; every product or generator is tested against
a dual space by that space (``HarmonicBasis.contains``), whose echelons
stay with the memoised component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ehrhart import iq, memoised
from .harmonics import (HarmonicBasis, InconsistencyError, MultiPoly,
                        harmonic_basis, span_products)
from .polytope import LatticePolytope
from .posets import Poset, chain_polytope, order_polytope
from .qseries import QPoly, TQSeries


class NotInComponentError(ValueError):
    """A supplied generator does not lie in its declared component."""


def component(P: LatticePolytope, m: int) -> HarmonicBasis:
    """The dual space of the m-th dilate, kept in the ``ehrhart`` memo."""
    return memoised(("component", P.vertices, m), lambda: _component(P, m))


def _component(P, m):
    hb = harmonic_basis(P.lattice_points(m))
    if hb.hilbert() != iq(P, m):
        raise InconsistencyError("component dimensions disagree with the count")
    return hb


def product_span(P: LatticePolytope, m: int, mp: int):
    """Span of products of two components inside the component of their sum.

    Returns (span_dims, contained, equals); a containment failure raises,
    since it would contradict the sumset closure property.
    """
    A = component(P, m)
    B = component(P, mp)
    C = component(P, m + mp)
    span = span_products(A.by_degree, B.by_degree)
    escape = C.first_outside(span)
    if escape is not None:
        raise InconsistencyError(
            f"product escapes the target component: {escape!r}")
    span_dims = {d: len(kept) for d, (_, kept) in sorted(span.items())}
    target_dims = {d: len(b) for d, b in enumerate(C.by_degree) if b}
    equals = span_dims == target_dims
    return span_dims, True, equals


@dataclass
class GenerationReport:
    """Which grades are spanned by products from grades at most the cutoff."""

    cutoff: int
    horizon: int
    per_degree_status: dict = field(default_factory=dict)  # m -> bool
    missing_dims: dict = field(default_factory=dict)       # (m, qdeg) -> deficit

    @property
    def fully_generated(self):
        return all(self.per_degree_status.values())

    def to_json(self):
        return {
            "cutoff": self.cutoff,
            "horizon": self.horizon,
            "fullyGenerated": self.fully_generated,
            "perGrade": {str(m): ok for m, ok in sorted(self.per_degree_status.items())},
            "missing": [[m, d, k] for (m, d), k in sorted(self.missing_dims.items())],
        }


def generation_check(P: LatticePolytope, m0: int, T=None) -> GenerationReport:
    """Compare each component V_m, m <= T, with the subalgebra A generated
    by the components of grades <= m0 (``subalgebra_hilbert``).

    A is the pairwise closure A_m = sum_(i <= m/2) A_i A_(m-i): products
    commute and a product of r >= 2 generators is one generator times the
    rest, so for m > m0 that sum is sum_(k <= m0) V_k A_(m-k).  For m <= m0,
    A_m holds V_m (k = m, times the unit) and lies in it, as products of
    components land in the component of the sum grade (mP + m'P = (m+m')P).
    """
    if T is None:
        T = 2 * m0 + 4
    if m0 > T:
        raise ValueError("cutoff beyond horizon")
    S = subalgebra_hilbert(P, [(k, g) for k in range(1, m0 + 1)
                               for g in component(P, k).elements()], T)
    report = GenerationReport(cutoff=m0, horizon=T)
    for m in range(1, T + 1):
        deficits = {(m, d): len(polys) - S[m][d]
                    for d, polys in enumerate(component(P, m).by_degree)}
        if min(deficits.values()) < 0:
            raise InconsistencyError("span exceeds the component")
        missing = {key: k for key, k in deficits.items() if k}
        report.missing_dims.update(missing)
        report.per_degree_status[m] = not missing
    return report


def subalgebra_hilbert(P: LatticePolytope, gens, T: int) -> TQSeries:
    """Bigraded dimensions of the subalgebra generated by tagged elements.

    Each generator is a pair (grade, homogeneous polynomial in the dual
    variables) and must lie in the component of its grade.
    """
    n = component(P, 0).n
    by_grade = {}   # grade >= 1 -> degree -> generators
    for (m, g) in gens:
        if not g.is_homogeneous():
            raise NotInComponentError("generators must be homogeneous")
        if not component(P, m).contains(g):
            raise NotInComponentError(f"generator not in component {m}: {g!r}")
        if m > 0:
            by_grade.setdefault(m, {}).setdefault(g.degree(), []).append(g)
    # close under products, grade by grade
    G = {0: {0: [MultiPoly.constant(n, 1)]}}   # grade -> products kept, by degree
    for m in range(1, T + 1):
        span = {}
        for k, gens_k in sorted(by_grade.items()):
            if k > m:
                break
            span_products(gens_k, G[m - k], span=span)
        G[m] = {d: kept for d, (_, kept) in span.items()}
    return TQSeries([QPoly.from_degrees(d for d, kept in G[m].items()
                                        for _ in kept)
                      for m in range(T + 1)], T)


def chain_order_equality(poset: Poset, M: int) -> bool:
    """Whether the two poset polytopes share dual spaces for all dilates <= M.

    Compares the normalized degreewise bases (and the interior ones), which
    are canonical, so subspace equality is basis-list equality.
    """
    O = order_polytope(poset)
    C = chain_polytope(poset)
    for m in range(1, M + 1):
        for zo, zc in ((O.lattice_points(m), C.lattice_points(m)),
                       (O.interior_lattice_points(m),
                        C.interior_lattice_points(m))):
            if zo != zc and (len(zo) != len(zc) or harmonic_basis(zo).by_degree
                             != harmonic_basis(zc).by_degree):
                return False
    return True


def interior_ideal_check(P: LatticePolytope, m: int, mp: int) -> bool:
    """Products of a component with an interior component land in the interior
    component of the sum grade."""
    A = component(P, m)
    locus = P.interior_lattice_points(mp)
    if len(locus) == 0:
        return True
    Vbar = harmonic_basis(locus)
    target_locus = P.interior_lattice_points(m + mp)
    Vbar_target = harmonic_basis(target_locus)
    return Vbar_target.first_outside(
        span_products(A.by_degree, Vbar.by_degree)) is None
