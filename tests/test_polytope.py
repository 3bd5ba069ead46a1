import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product as iproduct
from math import gcd

import pytest

from qehrhart import LatticePolytope, PointLocus, minkowski_sum
from qehrhart.corpora import CORPORA
from qehrhart.polytope import _adjugate, _int_det
from qehrhart.posets import all_posets, chain_polytope, order_polytope
from conftest import segment


class TestFacets:
    def test_unit_square(self, unit_square):
        fs = unit_square.facets()
        assert len(fs) == 4
        assert (((-1, 0), 0) in fs and ((1, 0), 1) in fs
                and ((0, -1), 0) in fs and ((0, 1), 1) in fs)

    def test_segment(self):
        assert segment(0, 2).facets() == (((-1,), 0), ((1,), 2))

    def test_cross_polytope(self):
        cross = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
        fs = cross.facets()
        assert sorted(fs) == [((-1, -1), 1), ((-1, 1), 1), ((1, -1), 1), ((1, 1), 1)]

    def test_membership_via_facets(self, case_triangle):
        pts = {z for z in case_triangle.lattice_points(1)}
        for x in range(-1, 4):
            for y in range(-1, 4):
                have = case_triangle.contains((x, y))
                assert have == ((x, y) in pts)


class TestEnumeration:
    def test_case_triangle_points(self, case_triangle):
        assert case_triangle.lattice_points(1).points == (
            (0, 0), (1, 1), (1, 2), (2, 1))
        Z2 = case_triangle.lattice_points(2)
        assert Z2.points == ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                             (2, 4), (3, 2), (3, 3), (4, 2))

    def test_m_zero(self, case_triangle, unit_square):
        for P in (case_triangle, unit_square):
            assert P.lattice_points(0).points == ((0, 0),)

    def test_segment_interior(self):
        for v in (1, 2, 3):
            P = segment(0, v)
            for m in (1, 2, 3):
                pts = P.interior_lattice_points(m)
                assert pts.points == tuple((k,) for k in range(1, m * v))

    def test_unit_triangle_interior(self, unit_triangle):
        assert len(unit_triangle.interior_lattice_points(1)) == 0
        assert unit_triangle.interior_lattice_points(3).points == ((1, 1),)

    def test_lower_dimensional(self):
        d1 = LatticePolytope([(1, 0), (0, 1)])
        assert d1.dim == 1
        assert len(d1.lattice_points(3)) == 4
        # relative interior of a segment in the plane
        assert d1.interior_lattice_points(3).points == ((1, 2), (2, 1))

    def test_hull_coords(self):
        # integer hull coordinates round-trip; points off the hull and a
        # dim-0 polytope's other points have none
        tri = LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for z in [(2, -1, 0), (0, 0, 1), (3, 3, -5)]:
            u = tri.hull_coords(z)
            assert u == tuple(tri.hull_coords_rational(z))
            assert tri.from_hull_coords(u) == z
        assert tri.hull_coords((0, 0, 0)) is None
        assert tri.hull_coords((2, 2, -1), scale=3) is not None
        assert tri.hull_coords((2, 2, -1), scale=2) is None
        pt = LatticePolytope([(2, 5)])
        assert pt.hull_coords((4, 10), scale=2) == ()
        assert pt.hull_coords((4, 11), scale=2) is None

    def test_point_polytope(self):
        pt = LatticePolytope([(2, 5)])
        assert pt.dim == 0
        assert pt.lattice_points(3).points == ((6, 15),)
        assert pt.interior_lattice_points(2).points == ((4, 10),)

    def test_ehrhart_polynomiality(self, case_triangle, unit_square):
        # counts for m = 0..d interpolate the rest (classical polynomiality)
        for P in (case_triangle, unit_square):
            c0, c1, c2 = (P.count(m) for m in range(3))
            a2 = Fraction(c2 - 2 * c1 + c0, 2)
            a1 = c1 - c0 - a2
            for m in (3, 4, 5):
                assert P.count(m) == a2 * m * m + a1 * m + c0

    def test_reciprocity_counts(self, case_triangle, reeve2):
        # interior counts equal the sign-twisted extrapolated polynomial
        for P, d in ((case_triangle, 2), (reeve2, 3)):
            counts = [P.count(m) for m in range(d + 1)]

            def interp(m):
                # Lagrange on the d+1 initial counts
                total = Fraction(0)
                for i, ci in enumerate(counts):
                    w = Fraction(1)
                    for j in range(len(counts)):
                        if j != i:
                            w *= Fraction(m - j, i - j)
                    total += ci * w
                return total

            for m in (1, 2, 3, 4):
                expect = (-1) ** d * interp(-m)
                assert len(P.interior_lattice_points(m)) == expect


class TestOperations:
    def test_dilate(self):
        P = segment(0, 1).dilate(3)
        assert set(P.vertices) == {(0,), (3,)}

    def test_product_is_square(self, unit_square):
        P = segment(0, 1).product(segment(0, 1))
        assert set(P.vertices) == set(unit_square.vertices)

    def test_join_slices(self):
        j = segment(0, 1).join(segment(0, 2))
        assert len(j.lattice_points(1)) == 5

    def test_pyramid(self):
        d1 = LatticePolytope([(1, 0), (0, 1)])
        pyr = d1.pyramid()
        assert set(pyr.vertices) == {(0, 0, 0), (1, 1, 0), (1, 0, 1)}
        # counts match the simplex with apex at the origin
        ref = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        for m in range(4):
            assert len(pyr.lattice_points(m)) == len(ref.lattice_points(m))

    def test_affine_image(self, case_triangle):
        P = case_triangle.affine_image([[1, 0], [0, 1]], [0, 0])
        assert set(P.vertices) == set(case_triangle.vertices)
        # translation preserves per-dilate counts
        Q = case_triangle.affine_image([[1, 0], [0, 1]], [5, 7])
        for m in range(4):
            assert len(Q.lattice_points(m)) == len(case_triangle.lattice_points(m))
        # unimodular image of (0,0),(1,0),(2,3) keeps counts
        A = LatticePolytope([(0, 0), (1, 0), (2, 3)])
        B = A.affine_image([[1, 0], [1, 1]], [0, 0])
        for m in range(5):
            assert len(B.lattice_points(m)) == len(A.lattice_points(m))


class TestPredicates:
    def test_antiblocking(self, unit_triangle, case_triangle):
        assert unit_triangle.is_antiblocking()
        assert not case_triangle.is_antiblocking()
        cross = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert not cross.is_antiblocking()
        # brute-force oracle: down-closedness of the lattice points of 2P
        for P in (unit_triangle, case_triangle,
                  LatticePolytope([(0, 0), (2, 0), (0, 2)])):
            pts = set(P.lattice_points(2).points)
            closed = all(
                (z[0] - dx, z[1] - dy) in pts
                for z in pts for dx in range(2) for dy in range(2)
                if z[0] - dx >= 0 and z[1] - dy >= 0)
            if P.is_antiblocking():
                assert closed

    def test_idp(self, reeve2, contrast_triangle):
        ok, wit = reeve2.idp_check(2)
        assert not ok and wit == (1, 1, 1)
        ok, wit = contrast_triangle.idp_check(2)
        assert ok and wit is None
        # all lattice polygons have the property at m = 2
        rng = random.Random(7)
        for _ in range(8):
            verts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)}
            P = LatticePolytope(sorted(verts))
            if P.dim == 2:
                assert P.idp_check(2)[0]

    def test_minkowski_containment(self, case_triangle):
        for m, mp in ((1, 1), (1, 2), (2, 2)):
            A = case_triangle.lattice_points(m)
            B = case_triangle.lattice_points(mp)
            S = minkowski_sum(A, B)
            target = set(case_triangle.lattice_points(m + mp).points)
            assert set(S.points) <= target


class TestLocus:
    def test_sorted_dedup(self):
        Z = PointLocus(2, [(1, 1), (0, 0), (1, 1)])
        assert Z.points == ((0, 0), (1, 1))

    def test_sum_examples(self):
        A = PointLocus(1, [(0,), (2,), (3,)])
        S = minkowski_sum(A, A)
        assert S.points == ((0,), (2,), (3,), (4,), (5,), (6,))
        Z = PointLocus(2, [(0, 0), (1, 2)])
        assert minkowski_sum(Z, PointLocus(2, [(0, 0)])) == Z

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum(PointLocus(1, [(0,)]), PointLocus(2, [(0, 0)]))


# -- integer geometry against the Fraction routes it replaced ----------------

def laplace_det(rows):
    """Reference determinant: expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a
               * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def fraction_rank(rows):
    """Reference rank: Gauss–Jordan elimination over Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def ref_vertices(points):
    """Generating points, in input order, whose active facet normals have
    full rank (the constructor's filter, by a Fraction rank)."""
    P = LatticePolytope(points)
    return tuple(p for p in dict.fromkeys(tuple(p) for p in points)
                 if fraction_rank(P._active(P.hull_coords(p))) == P.dim)


def ref_drop_midpoints(points):
    """The midpoint filter the poset constructors applied before."""
    return [p for p in points
            if not any(all(2 * p[i] == a[i] + b[i] for i in range(len(p)))
                       for a, b in combinations(points, 2)
                       if a != p and b != p)]


def ref_corner_map(P):
    """Corner search with edges found by the rank of shared facets and the
    inverse by Laplace cofactors."""
    d = P.dim
    if d == 0:
        return None
    verts_u = [P.hull_coords(v) for v in P.vertices]
    active = [set(P._active(u)) for u in verts_u]
    for i, v in enumerate(verts_u):
        edges = []
        for j, w in enumerate(verts_u):
            if j != i and fraction_rank(list(active[i] & active[j])) == d - 1:
                e = [a - b for a, b in zip(w, v)]
                g = reduce(gcd, e, 0)
                edges.append(tuple(a // g for a in e))
        if len(edges) != d:
            continue
        B = [[e[k] for e in edges] for k in range(d)]
        det = laplace_det(B)
        if det not in (1, -1):
            continue
        if all(off == sum(a * b for a, b in zip(nrm, v))
               or all(sum(nrm[k] * B[k][j] for k in range(d)) >= 0
                      for j in range(d))
               for (nrm, off) in P.facets()):
            return v, [[det * (-1) ** (r + c) * laplace_det(
                [row[:r] + row[r + 1:] for k, row in enumerate(B) if k != c])
                for c in range(d)] for r in range(d)]
    return None


def ref_antiblocking(P):
    """Every vertex with any subset of its support set to zero lies in P."""
    if any(x < 0 for v in P.vertices for x in v):
        return False
    for v in P.vertices:
        supp = [i for i in range(len(v)) if v[i]]
        for r in range(1, len(supp) + 1):
            for sub in combinations(supp, r):
                if not P.contains([0 if i in sub else x
                                   for i, x in enumerate(v)]):
                    return False
    return True


def random_unimodular(rng, n, steps=3):
    """Identity under steps * n random integer row additions."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    return M


def random_point_set(rng):
    """Points base + sum c_k g_k in Z^n, n <= 4, with r <= n generators, so
    lower-dimensional sets in higher ambient space occur."""
    n = rng.randint(1, 4)
    base = [rng.randint(-3, 3) for _ in range(n)]
    gens = [[rng.randint(-2, 2) for _ in range(n)]
            for _ in range(rng.randint(0, n))]
    return [tuple(b + sum(rng.randint(-2, 2) * g[i] for g in gens)
                  for i, b in enumerate(base))
            for _ in range(rng.randint(1, n + 4))]


def poset_generators(poset, kind):
    """0/1 generating points of the order (filters) or chain (antichains)
    polytope."""
    bits = iproduct((0, 1), repeat=poset.n)
    if kind == "order":
        return [b for b in bits
                if all(b[x] <= b[y] for (x, y) in poset.covers)]
    return [b for b in bits
            if poset.is_antichain([i for i in range(poset.n) if b[i]])]


def geometry_cases(family):
    """(generating points, polytope built by the package) pairs."""
    rng = random.Random(11)
    rows = [r for corpus in CORPORA.values() for r in corpus]
    if family == "corpus":
        return [(r.vertices, r.polytope()) for r in rows]
    if family == "posets":
        return [(ref_drop_midpoints(poset_generators(ps, kind)), build(ps))
                for n in range(1, 5) for ps in all_posets(n)
                for kind, build in (("order", order_polytope),
                                    ("chain", chain_polytope))]
    if family == "random":
        # the doubled 4-dimensional cross-polytope with an edge midpoint,
        # which lies on four facets and is no vertex, then random sets
        cross = [tuple(2 * s * (j == i) for j in range(4))
                 for i in range(4) for s in (1, -1)]
        sets = [cross + [(1, 1, 0, 0)]]
        sets += [random_point_set(rng) for _ in range(240)]
        return [(pts, LatticePolytope(pts)) for pts in sets]
    cases = []
    for _ in range(90):   # unimodular images
        P = rng.choice(rows).polytope()
        A = random_unimodular(rng, P.ambient_dim)
        Q = P.affine_image(A, [rng.randint(-3, 3) for _ in A])
        cases.append((Q.vertices, Q))
    return cases


def ref_hull_points(P, m, strict):
    """Bounding-box scan: every box point of mP in hull coordinates, tested
    against every facet."""
    d = P.dim
    if d == 0:
        return [()]
    verts_u = P._vertices_u
    lo = [m * min(u[k] for u in verts_u) for k in range(d)]
    hi = [m * max(u[k] for u in verts_u) for k in range(d)]
    pts = []
    for u in iproduct(*(range(lo[k], hi[k] + 1) for k in range(d))):
        ok = True
        for (nrm, off) in P.facets():
            s = sum(a * b for a, b in zip(nrm, u))
            if s > m * off or (strict and s == m * off):
                ok = False
                break
        if ok:
            pts.append(u)
    return pts


def small_point_set(rng):
    """Points base + sum c_k g_k in Z^n, n <= 4, with 0 <= c_k <= 2 and
    entries of g_k in {-1, 0, 1}; small enough for the box scan."""
    n = rng.randint(1, 4)
    base = [rng.randint(-2, 2) for _ in range(n)]
    gens = [[rng.randint(-1, 1) for _ in range(n)]
            for _ in range(rng.randint(1, n))]
    return [tuple(b + sum(rng.randint(0, 2) * g[i] for g in gens)
                  for i, b in enumerate(base))
            for _ in range(rng.randint(2, n + 4))]


def axis_box(rng):
    """Corners of a box in Z^n, n <= 4, some sides of length 0."""
    sides = [(a, a + rng.randint(0, 2))
             for a in (rng.randint(-2, 2) for _ in range(rng.randint(1, 4)))]
    return list(iproduct(*sides))


class TestFibreEnumeration:
    """The fibre walk lists what the bounding-box scan lists, in order."""

    def assert_same(self, P, ms):
        for m in ms:
            assert P._hull_points(m, False) == ref_hull_points(P, m, False)
            if m:
                assert P._hull_points(m, True) == ref_hull_points(P, m, True)

    def test_corpus(self):
        for corpus in CORPORA.values():
            for row in corpus:
                self.assert_same(row.polytope(), range(5))

    def test_random_point_sets(self):
        rng = random.Random(29)
        dims = set()
        for _ in range(300):
            P = LatticePolytope(small_point_set(rng))
            dims.add((P.dim, P.ambient_dim))
            self.assert_same(P, range(3))
        assert {(d, n) for d in range(1, 5) for n in range(d, 5)} <= dims

    def test_axis_parallel_boxes(self):
        # facets with zero entries: strict bounds on the prefix matter
        rng = random.Random(31)
        for _ in range(60):
            self.assert_same(LatticePolytope(axis_box(rng)), range(4))


class TestIntegerGeometry:
    @pytest.mark.parametrize("family", ["corpus", "posets", "random",
                                        "images"])
    def test_matches_fraction_routes(self, family):
        cases = geometry_cases(family)
        assert len(cases) >= 24
        for pts, P in cases:
            assert P.vertices == ref_vertices(pts)
            assert P.corner_map() == ref_corner_map(P)
            assert P.is_antiblocking() == ref_antiblocking(P)

    def test_int_det_and_adjugate(self):
        rng = random.Random(5)
        for trial in range(400):
            n = trial % 7
            span = rng.choice([(-4, 4), (0, 1), (-1, 1)])
            M = [[rng.randint(*span) if rng.random() < 0.7 else 0
                  for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 3 == 0:   # singular: a multiple of a row
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                M[i] = [c * a for a in M[j]]
            det = _int_det(M)
            assert det == laplace_det(M)
            adj = _adjugate(M)
            assert [[sum(M[i][k] * adj[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)] == \
                [[det * (i == j) for j in range(n)] for i in range(n)]


class TestUnimodularEmbedding:
    def test_enumeration_and_hull_coords(self):
        # lattice points of m(AP + b) are A(mP) + mb, interior ones too,
        # for a lattice-preserving embedding z -> Az + b of Z^d into Z^n
        rng = random.Random(23)
        for _ in range(40):
            d = rng.randint(1, 3)
            n = rng.randint(d, 4)
            P = LatticePolytope([(0,) * d])
            while P.dim < d:
                P = LatticePolytope([tuple(rng.randint(0, 3) for _ in range(d))
                                     for _ in range(rng.randint(d + 1, d + 3))])
            A = [row[:d] for row in random_unimodular(rng, n, steps=1)]
            b = [rng.randint(-3, 3) for _ in range(n)]
            Q = P.affine_image(A, b)
            for m in (1, 2, 3):
                def image(z):
                    return tuple(sum(a * x for a, x in zip(row, z)) + m * c
                                 for row, c in zip(A, b))
                pts = Q.lattice_points(m).points
                assert pts == tuple(sorted(map(image, P.lattice_points(m))))
                assert Q.interior_lattice_points(m).points == tuple(
                    sorted(map(image, P.interior_lattice_points(m))))
                mQ = Q.dilate(m)
                for y in pts:
                    assert mQ.contains(y)
                    assert Q.hull_coords(y, scale=m) is not None

    def test_sheared_images(self):
        # as above, with 3n row additions: boxes far larger than the images
        rng = random.Random(37)
        for _ in range(40):
            d = rng.randint(1, 3)
            n = rng.randint(d, 4)
            P = LatticePolytope([(0,) * d])
            while P.dim < d:
                P = LatticePolytope([tuple(rng.randint(0, 3) for _ in range(d))
                                     for _ in range(rng.randint(d + 1, d + 3))])
            A = [row[:d] for row in random_unimodular(rng, n, steps=3)]
            b = [rng.randint(-3, 3) for _ in range(n)]
            Q = P.affine_image(A, b)
            for m in (1, 2, 3):
                def image(z):
                    return tuple(sum(a * x for a, x in zip(row, z)) + m * c
                                 for row, c in zip(A, b))
                pts = Q.lattice_points(m).points
                assert pts == tuple(sorted(map(image, P.lattice_points(m))))
                assert Q.interior_lattice_points(m).points == tuple(
                    sorted(map(image, P.interior_lattice_points(m))))
                mQ = Q.dilate(m)
                for y in pts:
                    assert mQ.contains(y)
                    assert Q.hull_coords(y, scale=m) is not None
