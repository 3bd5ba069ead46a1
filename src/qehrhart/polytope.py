"""Lattice polytopes: hulls, facets, exact lattice-point enumeration,
polytope constructions, antiblocking detection, decomposition checks.

Lower-dimensional polytopes are handled through a Hermite-normal-form
parametrization of the affine lattice: enumeration runs in hull coordinates
and maps back, so simplices sitting inside hyperplanes work like
full-dimensional ones.  It walks fibre by fibre between integer bounds from
projected facets, so its cost follows the points, not the bounding box.
A linear form over the points is histogrammed run by run along the last
coordinate (``linear_counts``), so counts by weight build no point.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import gcd

from .linalg import Echelon, Mat, solve


class PointLocus:
    """Finite set of integer points, sorted and deduplicated."""

    __slots__ = ("ambient_dim", "points")

    def __init__(self, ambient_dim, points):
        self.ambient_dim = ambient_dim
        pts = sorted({tuple(int(x) for x in p) for p in points})
        for p in pts:
            if len(p) != ambient_dim:
                raise ValueError("point of wrong dimension")
        self.points = tuple(pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return tuple(p) in set(self.points)

    def __eq__(self, other):
        return (isinstance(other, PointLocus)
                and self.ambient_dim == other.ambient_dim
                and self.points == other.points)

    def __repr__(self):
        return f"PointLocus(dim={self.ambient_dim}, n={len(self.points)})"


def minkowski_sum(Z: PointLocus, Zp: PointLocus) -> PointLocus:
    """Sorted deduplicated sumset {z + z'}."""
    if Z.ambient_dim != Zp.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return PointLocus(Z.ambient_dim,
                      [tuple(a + b for a, b in zip(z, zp))
                       for z in Z.points for zp in Zp.points])


def _primitive(vec):
    g = 0
    for a in vec:
        g = gcd(g, a)
    if g > 1:
        return tuple(a // g for a in vec)
    return tuple(vec)


def _int_det(rows):
    """Determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination with row swaps; every division is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _adjugate(rows):
    """Adjugate of a square integer matrix M: M adj(M) = det(M) I."""
    n = len(rows)
    return [[(-1) ** (i + j) * _int_det(
                [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
             for j in range(n)] for i in range(n)]


def _cofactor_normal(diffs, d):
    """Integer normal of the hyperplane through 0 and the d-1 difference
    vectors, or None if they do not span a hyperplane."""
    if d == 1:
        return (1,)
    rows = [list(r) for r in diffs]
    normal = tuple((-1) ** j * _int_det([r[:j] + r[j + 1:] for r in rows])
                   for j in range(d))
    if not any(normal):
        return None
    return normal


def _integer_kernel(rows, n):
    """Basis of the lattice {x in Z^n : r . x = 0 for all rows r}.

    Column elimination with a tracked unimodular transform; the result is a
    genuine lattice basis (saturated), not just a spanning set.
    """
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    C = [list(r) for r in rows]
    m = len(C)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # n x n
    # column HNF: reduce C columns, tracking U (columns of U follow C's)
    row = 0
    col = 0
    while row < m and col < n:
        # find column with nonzero entry in this row
        nz = [j for j in range(col, n) if C[row][j] != 0]
        if not nz:
            row += 1
            continue
        while True:
            nz = [j for j in range(col, n) if C[row][j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(C[row][j]))
            pj = nz[0]
            for j in nz[1:]:
                f = C[row][j] // C[row][pj]
                for i in range(m):
                    C[i][j] -= f * C[i][pj]
                for i in range(n):
                    U[i][j] -= f * U[i][pj]
        pj = nz[0]
        if pj != col:
            for i in range(m):
                C[i][col], C[i][pj] = C[i][pj], C[i][col]
            for i in range(n):
                U[i][col], U[i][pj] = U[i][pj], U[i][col]
        row += 1
        col += 1
    kernel_cols = [j for j in range(n) if all(C[i][j] == 0 for i in range(m))]
    return [tuple(U[i][j] for i in range(n)) for j in kernel_cols]


def _facets_of(points, d):
    """Facets (primitive integer normal, offset), normal . u <= offset, of
    the hull of integer points that span Z^d affinely."""
    if d == 0:
        return ()
    found = {}
    for sub in combinations(points, d):
        diffs = [tuple(p[i] - sub[0][i] for i in range(d)) for p in sub[1:]]
        normal = _cofactor_normal(diffs, d)
        if normal is None:
            continue
        normal = _primitive(normal)
        off = sum(a * b for a, b in zip(normal, sub[0]))
        sides = {sum(a * b for a, b in zip(normal, u)) - off for u in points}
        if all(s <= 0 for s in sides):
            found[(normal, off)] = True
        if all(s >= 0 for s in sides):
            found[(tuple(-a for a in normal), -off)] = True
    return tuple(sorted(found))


class LatticePolytope:
    """Convex hull of integer points; cached hull and facet data.

    ``vertices`` keeps the extreme points in input order.  Facets are stored
    in hull coordinates as (primitive integer normal, integer offset) with
    the convention normal . u <= offset.
    """

    def __init__(self, vertices, name=None):
        pts = [tuple(int(x) for x in v) for v in vertices]
        if not pts:
            raise ValueError("a polytope needs at least one vertex")
        self.ambient_dim = len(pts[0])
        if any(len(p) != self.ambient_dim for p in pts):
            raise ValueError("mixed ambient dimensions")
        self.name = name
        dedup = []
        for p in pts:
            if p not in dedup:
                dedup.append(p)
        self._setup_hull(dedup)
        points_u = [self.hull_coords(p) for p in dedup]
        self._facets = _facets_of(points_u, self.dim)
        # a generating point is extreme iff its active facet normals span
        extreme = [(p, u) for p, u in zip(dedup, points_u)
                   if Echelon.of(self._active(u)).dim == self.dim]
        self.vertices = tuple(p for p, _ in extreme)
        self._vertices_u = [u for _, u in extreme]

    # -- hull -----------------------------------------------------------

    def _setup_hull(self, pts):
        n = self.ambient_dim
        base = pts[0]
        diffs = [tuple(p[i] - base[i] for i in range(n)) for p in pts[1:]]
        diffs = [d for d in diffs if any(d)]
        if diffs:
            constraints = _integer_kernel(diffs, n)  # normals of the affine hull
        else:
            constraints = [tuple(1 if j == i else 0 for j in range(n))
                           for i in range(n)]
        self.hull_normals = constraints
        self.lattice_basis = _integer_kernel(constraints, n)
        self.dim = len(self.lattice_basis)
        # full-dimensional polytopes keep ambient coordinates (base at 0)
        self.base = (0,) * n if self.dim == n else base
        # rational solve matrix for hull coordinates: B^T u = z - base
        if self.dim:
            self._bt = Mat([[self.lattice_basis[k][i] for k in range(self.dim)]
                            for i in range(n)])
        else:
            self._bt = None

    def hull_coords(self, z, scale=1):
        """Integer coordinates u with z = scale*base + sum u_k b_k, or None."""
        u = self.hull_coords_rational(z, scale)
        if u is None or any(type(x) is not int for x in u):
            return None
        return tuple(u)

    def from_hull_coords(self, u, scale=1):
        n = self.ambient_dim
        return tuple(scale * self.base[i]
                     + sum(u[k] * self.lattice_basis[k][i] for k in range(self.dim))
                     for i in range(n))

    def _active(self, u):
        """Normals of the facets through the hull point u."""
        return [nrm for (nrm, off) in self._facets
                if sum(a * b for a, b in zip(nrm, u)) == off]

    # -- facets ----------------------------------------------------------

    def facets(self):
        """(normal, offset) pairs in hull coordinates; normal . u <= offset."""
        return self._facets

    # -- membership and enumeration --------------------------------------

    def contains(self, z):
        """Exact membership of an integer point in P."""
        u = self.hull_coords_rational(z)
        if u is None:
            return False
        return all(sum(a * b for a, b in zip(nrm, u)) <= off
                   for (nrm, off) in self._facets)

    def hull_coords_rational(self, z, scale=1):
        """Hull coordinates allowing rational values (affine hull membership)."""
        n = self.ambient_dim
        rhs = [z[i] - scale * self.base[i] for i in range(n)]
        for c in self.hull_normals:
            if sum(a * b for a, b in zip(c, rhs)) != 0:
                return None
        if self.dim == 0:
            return () if not any(rhs) else None
        return solve(self._bt, rhs)

    def lattice_points(self, m: int) -> PointLocus:
        """Integer points of the dilate mP (m = 0 gives the origin)."""
        if m < 0:
            raise ValueError("dilation factor must be nonnegative")
        if m == 0:
            return PointLocus(self.ambient_dim, [(0,) * self.ambient_dim])
        return self._enumerate(m, strict=False)

    def interior_lattice_points(self, m: int) -> PointLocus:
        """Integer points in the relative interior of mP (m >= 1)."""
        if m < 1:
            raise ValueError("interior enumeration needs m >= 1")
        return self._enumerate(m, strict=True)

    @cached_property
    def _levels(self):
        """Per hull coordinate k, the facets of P projected onto coordinates
        1..k (P's own at k = dim) with nonzero k-th entry c, as (prefix
        normal, c, offset), split into c < 0 and c > 0."""
        d, levels = self.dim, []
        for k in range(1, d + 1):
            facets = self._facets if k == d else _facets_of(
                sorted({u[:k] for u in self._vertices_u}), k)
            split = [(n[:-1], n[-1], off) for n, off in facets if n[-1]]
            levels.append(([f for f in split if f[1] < 0],
                           [f for f in split if f[1] > 0]))
        return levels

    def _fibres(self, m, strict):
        """The integer points of mP (of its relative interior if ``strict``)
        in hull coordinates, as last-coordinate runs (prefix, lo, hi): the
        points prefix + (z,) for lo <= z <= hi.  Runs come in lexicographic
        order and none is empty; P has dim >= 1.

        A prefix of a point of mP (of its interior) lies in m times P's
        projection (its interior), so coordinate k runs between the ceiling
        and floor bounds that the projection's facets set on the prefix;
        strictly, n . u < m off is n . u <= m off - 1.  A facet with k-th
        entry 0 is a facet of the projection one level up, so it is already
        met.  The cost follows the integer prefixes, not the bounding box,
        and the last coordinate is never walked point by point."""
        d = self.dim
        levels, runs, cut = self._levels, [], int(strict)

        def walk(prefix, k):
            lower, upper = levels[k]

            def room(n, off):
                return m * off - cut - sum(a * b for a, b in zip(n, prefix))
            lo = max(-(room(n, off) // -c) for n, c, off in lower)
            hi = min(room(n, off) // c for n, c, off in upper)
            if k == d - 1:
                if lo <= hi:
                    runs.append((prefix, lo, hi))
            else:
                for z in range(lo, hi + 1):
                    walk(prefix + (z,), k + 1)
        walk((), 0)
        return runs

    def _hull_points(self, m, strict):
        """Hull coordinates of the integer points of mP (of its relative
        interior if ``strict``), in lexicographic order: the runs of
        ``_fibres`` expanded point by point."""
        if not self.dim:
            return [()]
        return [prefix + (z,) for prefix, lo, hi in self._fibres(m, strict)
                for z in range(lo, hi + 1)]

    def linear_counts(self, m, strict, lin, c0):
        """Histogram of the values lin . u + c0 over the hull points u of mP
        (of its relative interior if ``strict``), as (counts, points):
        counts[v] points take the value v, and points is the total length of
        the fibres.  Counted run by run, so no point is built; a negative
        value raises ValueError."""
        if m < 0:
            raise ValueError("dilation factor must be nonnegative")
        if self.dim:
            runs, head, last = self._fibres(m, strict), lin[:-1], lin[-1]
        else:   # the one point (), as a run with a zero last entry
            runs, head, last = [((), 0, 0)], (), 0
        counts, points = [], 0
        for prefix, lo, hi in runs:
            s = c0 + sum(a * b for a, b in zip(head, prefix))
            first, final = s + last * lo, s + last * hi
            if min(first, final) < 0:
                raise ValueError("negative value of the linear form")
            top = max(first, final)
            if top >= len(counts):
                counts.extend([0] * (top + 1 - len(counts)))
            if last:
                for v in range(first, final + last, last):
                    counts[v] += 1
            else:
                counts[s] += hi - lo + 1
            points += hi - lo + 1
        return counts, points

    def _enumerate(self, m, strict):
        pts = self._hull_points(m, strict)
        if self.dim < self.ambient_dim:
            pts = [self.from_hull_coords(u, scale=m) for u in pts]
        return PointLocus(self.ambient_dim, pts)

    def count(self, m):
        return len(self.lattice_points(m))

    # -- constructions ----------------------------------------------------

    def dilate(self, d: int) -> "LatticePolytope":
        return LatticePolytope([tuple(d * x for x in v) for v in self.vertices])

    def product(self, other: "LatticePolytope") -> "LatticePolytope":
        return LatticePolytope([v + w for v in self.vertices
                                for w in other.vertices])

    def join(self, other: "LatticePolytope") -> "LatticePolytope":
        n, m = self.ambient_dim, other.ambient_dim
        verts = [(1,) + v + (0,) * m for v in self.vertices]
        verts += [(0,) + (0,) * n + w for w in other.vertices]
        return LatticePolytope(verts)

    def pyramid(self) -> "LatticePolytope":
        """Free join with the one-point polytope (apex picks up a new coordinate)."""
        return self.join(LatticePolytope([()]))

    def affine_image(self, A, b) -> "LatticePolytope":
        n = self.ambient_dim
        out_dim = len(A)
        verts = []
        for v in self.vertices:
            verts.append(tuple(sum(A[i][j] * v[j] for j in range(n)) + b[i]
                               for i in range(out_dim)))
        return LatticePolytope(verts)

    # -- predicates --------------------------------------------------------

    def is_simplex(self):
        return len(self.vertices) == self.dim + 1

    def is_antiblocking(self) -> bool:
        """Down-closed subset of the nonnegative orthant, as positioned."""
        return self._antiblocking

    def corner_map(self):
        """A vertex v and an integer matrix Binv with Binv (P - v) antiblocking,
        both in hull coordinates, or None.

        Vertices are tried in order.  A vertex qualifies when P is simple
        there (it lies on exactly dim facets, and its neighbours are the
        vertices that share dim - 1 of them) and the primitive edge
        directions form a lattice basis B (the columns of B, det +-1);
        Binv = det(B) adj(B) is B's inverse.  The image is antiblocking when
        every facet not through v pulls back to a nonnegative normal.  Any
        antiblocking unimodular image sends some vertex to 0 and its edges
        onto the axes, so the search is complete.
        """
        return self._corner

    @cached_property
    def _corner(self):
        d = self.dim
        if d == 0:
            return None
        verts_u = self._vertices_u
        active = [set(self._active(u)) for u in verts_u]
        for i, v in enumerate(verts_u):
            if len(active[i]) != d:
                continue
            edges = [_primitive(tuple(a - b for a, b in zip(w, v)))
                     for j, w in enumerate(verts_u)
                     if len(active[i] & active[j]) == d - 1]
            B = [[e[k] for e in edges] for k in range(d)]   # edges as columns
            det = _int_det(B)
            if det not in (1, -1):
                continue
            if all(off == sum(a * b for a, b in zip(nrm, v))
                   or all(sum(nrm[k] * B[k][j] for k in range(d)) >= 0
                          for j in range(d))
                   for (nrm, off) in self._facets):
                return v, [[det * a for a in row] for row in _adjugate(B)]
        return None

    @cached_property
    def _antiblocking(self):
        # by convexity, P is down-closed once it holds the projections
        # v - v_i e_i of every vertex v
        if any(x < 0 for v in self.vertices for x in v):
            return False
        return all(self.contains(v[:i] + (0,) + v[i + 1:])
                   for v in self.vertices for i in range(self.ambient_dim)
                   if v[i])

    def idp_check(self, m: int):
        """Whether lattice points of mP are m-fold sums of those of P.

        Returns (ok, witness): witness is the lexicographically smallest
        missing point on failure, else None.
        """
        if m < 1:
            raise ValueError("need m >= 1")
        gens = self.lattice_points(1)
        acc = gens
        for _ in range(m - 1):
            acc = minkowski_sum(acc, gens)
        target = self.lattice_points(m)
        missing = sorted(set(target.points) - set(acc.points))
        if missing:
            return False, missing[0]
        return True, None

    def normalized_volume(self):
        """Normalized dim(P)-volume, from the leading Ehrhart behavior.

        Computed by exact interpolation of the counting polynomial from
        dilates 0..dim(P): d! times the leading coefficient.
        """
        d = self.dim
        counts = [self.count(m) for m in range(d + 1)]
        # finite differences: leading coefficient * d! = d-th difference
        diff = list(counts)
        for _ in range(d):
            diff = [b - a for a, b in zip(diff, diff[1:])]
        return diff[0]

    def __repr__(self):
        label = self.name or "P"
        return f"LatticePolytope({label}, dim={self.dim}, vertices={list(self.vertices)})"
