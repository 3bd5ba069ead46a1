import random
from fractions import Fraction

import pytest

from qehrhart import LatticePolytope, PointLocus, minkowski_sum
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
