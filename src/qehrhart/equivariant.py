"""Graded traces of lattice symmetries on the dual spaces of dilates,
their assembly over all dilation grades, and character decomposition
against a supplied (real-valued) character table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .halgebra import component
from .harmonics import InconsistencyError, MultiPoly
from .polytope import LatticePolytope, _int_det
from .qseries import QPoly


class NotASymmetryError(ValueError):
    """The matrix does not map the polytope to itself."""


class NonIntegralMultiplicityError(ValueError):
    """Character decomposition produced a non-integral multiplicity."""


@dataclass(frozen=True)
class GroupElement:
    """Integer matrix acting on the ambient lattice, with a display id."""

    id: str
    matrix: tuple  # tuple of row tuples

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(r) != n for r in self.matrix):
            raise ValueError("matrix must be square")
        if abs(_int_det(self.matrix)) != 1:
            raise ValueError("matrix must be invertible over the integers")

    @property
    def n(self):
        return len(self.matrix)

    def apply(self, z):
        return tuple(sum(self.matrix[i][j] * z[j] for j in range(self.n))
                     for i in range(self.n))


def stabilizer_check(P: LatticePolytope, g: GroupElement) -> bool:
    """True iff the matrix permutes the vertex set of P."""
    if g.n != P.ambient_dim:
        return False
    return {g.apply(v) for v in P.vertices} == set(P.vertices)


def _substitute(poly: MultiPoly, matrix):
    """Linear substitution y_i -> sum_j matrix[j][i] y_j (transpose action)."""
    n = poly.n
    images = [MultiPoly(n, {tuple(1 if k == j else 0 for k in range(n)):
                            matrix[j][i] for j in range(n)})
              for i in range(n)]
    out = MultiPoly(n)
    for mono, c in poly.terms.items():
        term = MultiPoly.constant(n, c)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * images[i]
        out = out + term
    return out


def graded_character(P: LatticePolytope, g: GroupElement, m: int) -> QPoly:
    """Trace of the symmetry on each degree piece of the dilate's dual space.

    Reads each image's coordinate at the basis element's leading monomial,
    which is valid for the reduced bases over Q only; the F_p bases of
    ``harmonic_basis_modp`` are reduced against the other column order.
    """
    if not stabilizer_check(P, g):
        raise NotASymmetryError(f"{g.id} does not stabilize the polytope")
    V = component(P, m)
    traces = []
    for d, basis in enumerate(V.by_degree):
        # the basis is in reduced echelon form over grlex-descending monomials,
        # so an element's coordinate is the image's coefficient at its
        # leading monomial
        tr = 0
        for b in basis:
            img = _substitute(b, g.matrix)
            if any(sum(mo) != d for mo in img.terms):
                raise InconsistencyError("image leaves the degree piece")
            if not V.contains(img):
                raise InconsistencyError("image leaves the dual space")
            tr += img.terms.get(b.leading_monomial(), 0)
        traces.append(tr)
    return QPoly(traces)


def equivariant_series(P: LatticePolytope, elements, T: int):
    """Per-element graded characters for all dilation grades up to T."""
    for g in elements:
        if not stabilizer_check(P, g):
            raise NotASymmetryError(f"{g.id} does not stabilize the polytope")
    return {g.id: [graded_character(P, g, m) for m in range(T + 1)]
            for g in elements}


def fixed_point_count(P: LatticePolytope, g: GroupElement, m: int) -> int:
    return sum(1 for z in P.lattice_points(m) if g.apply(z) == z)


@dataclass
class CharacterTable:
    """Real character table: rows are irreducibles, columns conjugacy classes."""

    name: str
    class_ids: tuple
    class_sizes: tuple
    irreducibles: tuple       # names
    values: tuple             # rows of ints/Fractions, matching class order

    @property
    def order(self):
        return sum(self.class_sizes)

    def check(self):
        # row orthogonality under the class-size inner product
        k = len(self.class_ids)
        for i in range(k):
            for j in range(k):
                s = sum(self.class_sizes[c] * self.values[i][c] * self.values[j][c]
                        for c in range(k))
                if s != (self.order if i == j else 0):
                    raise ValueError("character table rows are not orthogonal")
        return self


BUILTIN_TABLES = {
    "z2": CharacterTable("z2", ("e", "s"), (1, 1), ("triv", "sign"),
                         ((1, 1), (1, -1))),
    "s2": CharacterTable("s2", ("e", "swap"), (1, 1), ("triv", "sign"),
                         ((1, 1), (1, -1))),
    "s3": CharacterTable("s3", ("e", "transposition", "threecycle"), (1, 3, 2),
                         ("triv", "sign", "std"),
                         ((1, 1, 1), (1, -1, 1), (2, 0, -1))),
}


def decompose(values, table: CharacterTable):
    """Multiplicities of irreducibles in a graded character.

    ``values`` maps class id -> QPoly of per-degree traces.  Multiplicities
    must come out as polynomials with nonnegative integer coefficients.
    """
    table.check()
    out = {}
    order = table.order
    for name, row in zip(table.irreducibles, table.values):
        acc = QPoly.zero()
        for cid, size, chi in zip(table.class_ids, table.class_sizes, row):
            acc = acc + values[cid] * (size * chi)
        mult = acc * Fraction(1, order)
        for c in mult.coeffs:
            if c.denominator != 1 or c < 0:
                raise NonIntegralMultiplicityError(
                    f"multiplicity of {name} is not a nonnegative integer: {mult}")
        out[name] = mult
    return out


def recompose(mults, table: CharacterTable):
    """Per-class characters from multiplicities (inverse of decompose)."""
    out = {}
    for c, cid in enumerate(table.class_ids):
        acc = QPoly.zero()
        for name, row in zip(table.irreducibles, table.values):
            acc = acc + mults[name] * row[c]
        out[cid] = acc
    return out
