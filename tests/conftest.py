import pytest

from qehrhart import LatticePolytope
from qehrhart.corpora import CORPORA


@pytest.fixture
def unit_triangle():
    return LatticePolytope([(0, 0), (1, 0), (0, 1)])


@pytest.fixture
def unit_square():
    return LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def case_triangle():
    """Area-3 triangle with a vertex-swapping symmetry and no monomial basis."""
    return LatticePolytope([(0, 0), (1, 2), (2, 1)])


@pytest.fixture
def contrast_triangle():
    return LatticePolytope([(0, 0), (1, 2), (3, 1)])


@pytest.fixture
def reeve2():
    return LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])


def segment(a, v):
    return LatticePolytope([(a,), (a + v,)])


def distinct_corpus_polytopes():
    """Every corpus polytope, once per vertex set (first corpus wins)."""
    seen, out = set(), []
    for corpus in CORPORA.values():
        for row in corpus:
            P = row.polytope()
            if frozenset(P.vertices) not in seen:
                seen.add(frozenset(P.vertices))
                out.append(P)
    return out
