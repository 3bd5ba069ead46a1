import pytest

from qehrhart import (GroupElement, LatticePolytope, QPoly, decompose,
                      equivariant_series, graded_character, iq,
                      stabilizer_check)
from qehrhart.equivariant import (BUILTIN_TABLES, NonIntegralMultiplicityError,
                                  NotASymmetryError, fixed_point_count,
                                  recompose)
from qehrhart.qseries import BivarPoly, RatFun2
from conftest import segment

NEG = GroupElement("neg", ((-1,),))
ID1 = GroupElement("e", ((1,),))
SWAP = GroupElement("swap", ((0, 1), (1, 0)))
ID2 = GroupElement("e", ((1, 0), (0, 1)))


class TestStabilizer:
    def test_symmetric_segment(self):
        assert stabilizer_check(segment(-2, 4), NEG)
        assert not stabilizer_check(segment(0, 2), NEG)

    def test_swap(self, case_triangle):
        assert stabilizer_check(case_triangle, SWAP)
        assert not stabilizer_check(LatticePolytope([(0, 0), (1, 0), (0, 2)]), SWAP)

    def test_requires_unimodular(self):
        with pytest.raises(ValueError):
            GroupElement("bad", ((2, 0), (0, 1)))


class TestGradedCharacter:
    def test_segment_negation(self):
        assert graded_character(segment(-1, 2), NEG, 1) == QPoly([1, -1, 1])

    def test_identity_collapses_to_count(self, case_triangle):
        for m in range(4):
            assert graded_character(case_triangle, ID2, m) == iq(case_triangle, m)
        assert graded_character(segment(-1, 2), ID1, 2) == iq(segment(-1, 2), 2)

    def test_case_triangle_swap(self, case_triangle):
        assert graded_character(case_triangle, SWAP, 1) == QPoly([1, 0, 1])

    def test_case_triangle_swap_pinned(self, case_triangle):
        want = [[1], [1, 0, 1], [1, 0, 1, 1, 1], [1, 0, 1, 0, 1, 1, 1],
                [1, 0, 1, 0, 1, 0, 2, 1, 1], [1, 0, 1, 0, 1, 0, 1, 0, 2, 1, 1]]
        for m, coeffs in enumerate(want):
            assert graded_character(case_triangle, SWAP, m) == QPoly(coeffs)

    def test_q1_counts_fixed_points(self, case_triangle):
        for b in (1, 2, 3):
            P = segment(-b, 2 * b)
            for m in range(4):
                ch = graded_character(P, NEG, m)
                assert ch(1) == fixed_point_count(P, NEG, m)
        for m in range(4):
            ch = graded_character(case_triangle, SWAP, m)
            assert ch(1) == fixed_point_count(case_triangle, SWAP, m)

    def test_rejects_non_symmetry(self):
        with pytest.raises(NotASymmetryError):
            graded_character(segment(0, 2), NEG, 1)


class TestClosedForm:
    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_symmetric_segment_series(self, b, eps):
        # closed form with numerator 1 + t(q^2 [b-1]_{q^2} + eps q [b]_{q^2});
        # specializing eps to +1/-1 evaluates the character at the
        # identity/negation element respectively
        P = segment(-b, 2 * b)
        series = equivariant_series(P, [ID1, NEG], 4)
        num = {(0, 0): 1}
        for k in range(b - 1):
            num[(1, 2 * k + 2)] = 1
        for k in range(b):
            num[(1, 2 * k + 1)] = num.get((1, 2 * k + 1), 0) + eps
        form = RatFun2(BivarPoly(num), [(1, 0), (1, 2 * b)])
        expanded = form.expand(4)
        element = "e" if eps == 1 else "neg"
        for m in range(5):
            assert series[element][m] == expanded.coeffs[m], (b, eps, m)

    def test_cross_polytope_fixed_points(self):
        cross = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
        elements = [
            ID2,
            GroupElement("negx", ((-1, 0), (0, 1))),
            GroupElement("negy", ((1, 0), (0, -1))),
            GroupElement("negboth", ((-1, 0), (0, -1))),
        ]
        series = equivariant_series(cross, elements, 3)
        for g in elements:
            for m in range(4):
                assert series[g.id][m](1) == fixed_point_count(cross, g, m)


class TestClassFunction:
    def test_conjugate_elements_match(self):
        cross = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
        negx = GroupElement("negx", ((-1, 0), (0, 1)))
        negy = GroupElement("negy", ((1, 0), (0, -1)))
        for m in range(4):
            assert (graded_character(cross, negx, m)
                    == graded_character(cross, negy, m))


class TestDecompose:
    def test_z2_example(self):
        vals = {"e": QPoly([1, 1, 1]), "s": QPoly([1, -1, 1])}
        mult = decompose(vals, BUILTIN_TABLES["z2"])
        assert mult["triv"] == QPoly([1, 0, 1])
        assert mult["sign"] == QPoly([0, 1])

    def test_trivial_group_identity(self):
        from qehrhart.equivariant import CharacterTable
        table = CharacterTable("triv", ("e",), (1,), ("triv",), ((1,),))
        vals = {"e": QPoly([2, 5])}
        assert decompose(vals, table)["triv"] == QPoly([2, 5])

    def test_swap_isotypic_resummation(self, case_triangle):
        for m in range(4):
            vals = {"e": graded_character(case_triangle, ID2, m),
                    "s": graded_character(case_triangle, SWAP, m)}
            mult = decompose(vals, BUILTIN_TABLES["z2"])
            assert mult["triv"] + mult["sign"] == iq(case_triangle, m)
            back = recompose(mult, BUILTIN_TABLES["z2"])
            assert back == vals

    def test_non_integral_rejected(self):
        vals = {"e": QPoly([1]), "s": QPoly([0])}
        with pytest.raises(NonIntegralMultiplicityError):
            decompose(vals, BUILTIN_TABLES["z2"])

    def test_s3_table_orthogonal(self):
        BUILTIN_TABLES["s3"].check()
