"""Built-in polytope corpora with their expected rational forms.

Each row carries a vertex list, the expected numerator/denominator (or None
when no closed form is on record), and a provenance flag: "verified" rows
are compared by full expansion and re-guessing, "guess" rows only at
truncation level, "unknown" rows emit computed truncations without any
comparison, and "refuted" rows keep a recorded guess that exact counting
disproves (reported, never asserted).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .polytope import LatticePolytope
from .qseries import BivarPoly, RatFun2


@dataclass(frozen=True)
class CorpusRow:
    key: str
    vertices: tuple
    form: RatFun2 | None
    provenance: str  # "verified" | "guess" | "unknown"
    interior_form: RatFun2 | None = None

    def polytope(self):
        return LatticePolytope(self.vertices, name=self.key)


def _row(key, verts, num, den, provenance="verified", inum=None):
    form = RatFun2(num, den) if num is not None else None
    iform = RatFun2(inum, den) if inum is not None else None
    return CorpusRow(key, tuple(tuple(v) for v in verts), form, provenance, iform)


def _ones(pairs):
    return {p: 1 for p in pairs}


FIG1 = [
    _row("area1-triangle", [(0, 0), (1, 0), (0, 1)],
         {(0, 0): 1}, [(1, 0), (1, 1), (1, 1)]),
    _row("area2-triangle", [(0, 0), (1, 0), (1, 2)],
         _ones([(0, 0), (1, 1)]), [(1, 0), (1, 1), (1, 2)]),
    _row("unit-square", [(0, 0), (1, 0), (0, 1), (1, 1)],
         _ones([(0, 0), (1, 1)]), [(1, 0), (1, 1), (1, 2)]),
    _row("area3-triangle-steep", [(0, 0), (1, 0), (1, 3)],
         _ones([(0, 0), (1, 1), (1, 2)]), [(1, 0), (1, 1), (1, 3)]),
    _row("area3-triangle-skew", [(0, 0), (1, 0), (2, 3)],
         {(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 1},
         [(1, 0), (1, 2), (2, 3)]),
    _row("area3-quad", [(0, 0), (1, 0), (0, 1), (-2, 1)],
         {(0, 0): 1, (1, 1): 1, (2, 2): -1, (2, 3): -1},
         [(1, 0), (1, 1), (1, 2), (1, 2)]),
]

FIG2 = [
    _row("area4-triangle-steep", [(0, 0), (1, 0), (1, 4)],
         _ones([(0, 0), (1, 1), (1, 2), (1, 3)]), [(1, 0), (1, 1), (1, 4)]),
    _row("area4-triangle-skew", [(0, 0), (1, 0), (3, 4)],
         {(0, 0): 1, (1, 1): 2, (2, 2): 1}, [(1, 0), (1, 2), (1, 2)]),
    _row("area4-dilated-triangle", [(0, 0), (2, 0), (0, 2)],
         {(0, 0): 1, (1, 1): 2, (1, 2): 1}, [(1, 0), (1, 2), (1, 2)]),
    _row("area4-quad-long", [(0, 0), (1, 0), (0, 1), (-3, 1)],
         {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 2): -1, (2, 3): -1, (2, 4): -1},
         [(1, 0), (1, 1), (1, 2), (1, 3)]),
    _row("area4-rectangle", [(0, 0), (1, 0), (0, 2), (1, 2)],
         {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 2): -1, (2, 3): -1, (2, 4): -1},
         [(1, 0), (1, 1), (1, 2), (1, 3)]),
    _row("area4-kite", [(0, 0), (2, 0), (0, 1), (1, -1)],
         {(0, 0): 1, (1, 1): 2, (2, 2): 1}, [(1, 0), (1, 2), (1, 2)]),
    _row("area4-parallelogram", [(0, 0), (1, 0), (1, 2), (2, 2)],
         {(0, 0): 1, (1, 1): 2, (2, 2): 1}, [(1, 0), (1, 2), (1, 2)]),
]

FIG3 = [
    _row("area5-triangle-steep", [(0, 0), (1, 0), (1, 5)],
         _ones([(0, 0), (1, 1), (1, 2), (1, 3), (1, 4)]),
         [(1, 0), (1, 1), (1, 5)]),
    _row("area5-triangle-skew", [(0, 0), (1, 0), (2, 5)],
         {(0, 0): 1, (1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 2, (2, 4): 1,
          (3, 4): 1, (3, 5): 1},
         [(1, 0), (1, 2), (2, 5)]),
    _row("area5-quad-long", [(0, 0), (1, 0), (0, 1), (-4, 1)],
         {(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1,
          (2, 2): -1, (2, 3): -1, (2, 4): -1, (2, 5): -1},
         [(1, 0), (1, 1), (1, 2), (1, 4)]),
    _row("area5-quad-wide", [(0, 0), (2, 0), (0, 1), (-3, 1)],
         {(0, 0): 1, (1, 1): 1, (1, 2): 2,
          (2, 2): -1, (2, 3): -1, (2, 4): -1, (2, 5): -1},
         [(1, 0), (1, 1), (1, 3), (1, 3)]),
    _row("area5-quad-skew", [(0, 0), (1, 0), (2, 3), (2, 1)],
         {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 2, (2, 4): 2, (3, 5): 1},
         [(1, 0), (1, 2), (2, 5)]),
    _row("area5-pentagon", [(0, 0), (1, 0), (1, 2), (2, 2), (0, -1)],
         {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 2, (2, 4): 2, (3, 5): 1},
         [(1, 0), (1, 2), (2, 5)]),
]


def _descent_major_numerator(n):
    terms = {}
    for w in permutations(range(1, n + 1)):
        des = sum(1 for i in range(n - 1) if w[i] > w[i + 1])
        maj = sum(i + 1 for i in range(n - 1) if w[i] > w[i + 1])
        terms[(des, maj)] = terms.get((des, maj), 0) + 1
    return terms


def _segment_rows():
    rows = []
    for v in range(1, 7):
        num = {(0, 0): 1}
        for k in range(1, v):
            num[(1, k)] = 1
        inum = {(1, k): 1 for k in range(v - 1)}
        inum[(2, v - 1)] = inum.get((2, v - 1), 0) + 1
        rows.append(_row(f"segment-v{v}", [(0,), (v,)], num,
                         [(1, 0), (1, v)], inum=inum))
    return rows


def _simplex_rows():
    rows = [_row("standard-simplex-0d", [(1,)], {(0, 0): 1}, [(1, 0)])]
    for n in range(2, 5):
        verts = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        rows.append(_row(f"standard-simplex-{n-1}d", verts, {(0, 0): 1},
                         [(1, 0)] + [(1, 1)] * (n - 1)))
    for n in range(1, 5):
        verts = [(0,) * n] + [tuple(1 if j == i else 0 for j in range(n))
                              for i in range(n)]
        rows.append(_row(f"simplex-pyramid-{n}d", verts, {(0, 0): 1},
                         [(1, 0)] + [(1, 1)] * n))
    return rows


def _cross_rows():
    rows = []
    for n in range(1, 4):
        verts = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            verts.append(tuple(e))
            verts.append(tuple(-x for x in e))
        from math import comb
        num = {(k, k): comb(n, k) for k in range(n + 1)}
        rows.append(_row(f"cross-polytope-{n}d", verts, num,
                         [(1, 0)] + [(1, 2)] * n))
    return rows


def _cube_rows():
    from itertools import product as iproduct
    rows = []
    for n in range(1, 4):
        verts = list(iproduct((0, 1), repeat=n))
        rows.append(_row(f"cube-{n}d", verts, _descent_major_numerator(n),
                         [(1, k) for k in range(n + 1)]))
    return rows


def _reeve_rows():
    t2num = {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 3, (4, 4): 2, (5, 5): 1}
    return [
        _row("reeve-1", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)],
             {(0, 0): 1}, [(1, 0), (1, 1), (1, 1), (1, 1)]),
        _row("reeve-2", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)],
             t2num, [(1, 0), (1, 1), (2, 3), (3, 4)]),
    ]


CLOSEDFORMS = (_segment_rows() + _simplex_rows() + _cross_rows()
               + _cube_rows() + _reeve_rows())


def _sparse(layers):
    """{(t,q): c} from a list of (t, {q: c}) layers."""
    out = {}
    for t, layer in layers:
        for q, c in layer.items():
            out[(t, q)] = c
    return out


_N1 = _sparse([
    (0, {0: 1}), (1, {1: 2, 2: 2}), (2, {3: 2, 4: 2, 5: 1}), (3, {7: 2}),
    (4, {7: -2, 10: 2}), (5, {10: -2, 12: 1}), (6, {12: -1, 13: -1, 14: -2}),
    (7, {15: -2, 16: -2, 17: -1}), (8, {17: -1, 18: -1}),
])

_N2 = _sparse([
    (0, {0: 1}), (1, {1: 2, 2: 3}), (2, {3: 4, 4: 5, 5: 3}),
    (3, {5: 3, 6: 7, 7: 8}), (4, {8: 8, 9: 8, 10: 5}),
    (5, {10: 3, 11: 8, 12: 8, 13: 2}), (6, {13: 6, 14: 8, 15: 7}),
    (7, {15: 1, 16: 8, 17: 8, 18: 4}), (8, {18: 4, 19: 8, 20: 8}),
    (9, {21: 7, 22: 6, 23: 3}), (10, {23: 2, 24: 4, 25: 3}),
    (11, {26: 2, 27: 1}),
])

_N3 = _sparse([
    (0, {0: 1}), (1, {1: 3}), (2, {2: 5, 3: 1}), (3, {3: 5, 4: 3}),
    (4, {4: 3, 5: 4}), (5, {5: 1, 6: 3}), (6, {7: 1}),
])

# guess for the volume-3 tetrahedron with apex (1,1,3); numerator carries a
# negative factor (1 - q^5 t^4), expanded here
_T113 = (BivarPoly({(0, 0): 1, (1, 1): 1}) * BivarPoly({(0, 0): 1, (4, 5): -1})
         * BivarPoly({(0, 0): 1, (1, 1): 1, (2, 2): 2, (2, 3): 1, (3, 4): 2,
                      (4, 5): 1, (4, 6): 1}))


def _extradata_rows():
    g = "guess"
    rows = [
        _row("x6-1", [(0, 0), (1, 0), (1, 6)],
             _ones([(0, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]),
             [(1, 0), (1, 1), (1, 6)], g),
        _row("x6-2", [(0, 0), (1, 0), (4, 6)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1},
             [(1, 0), (1, 2), (1, 3)], g),
        # the printed guess implies one more lattice point than the
        # triangle has at m=1; kept for the record, flagged as refuted
        _row("x6-3", [(0, 0), (1, 0), (5, 6)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1},
             [(1, 0), (1, 2), (1, 3)], "refuted"),
        _row("x6-4", [(0, 0), (3, 0), (0, 1), (1, -1)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 1},
             [(1, 0), (1, 2), (1, 3)], g),
        _row("x6-5", [(0, 0), (3, 0), (0, 1), (2, -1)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 1},
             [(1, 0), (1, 2), (1, 3)], g),
        _row("x6-6", [(0, 0), (1, 0), (0, 3), (1, 3)],
             {(0, 0): 1, (1, 1): 1, (1, 2): 2, (1, 3): 1, (2, 2): -1,
              (2, 3): -1, (2, 4): -1, (2, 5): -1, (2, 6): -1},
             [(1, 0), (1, 1), (1, 3), (1, 4)], g),
        _row("x6-7", [(0, 0), (2, 0), (0, 1), (-4, 1)],
             {(0, 0): 1, (1, 1): 1, (1, 2): 2, (1, 3): 1, (2, 2): -1,
              (2, 3): -1, (2, 4): -1, (2, 5): -1, (2, 6): -1},
             [(1, 0), (1, 1), (1, 3), (1, 4)], g),
        _row("x6-8", [(0, 0), (2, 0), (0, 1), (1, -2)], _N1,
             [(1, 0), (1, 2), (2, 5), (5, 13)], g),
        _row("x6-9", [(0, 0), (1, 0), (1, 2), (3, 2)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1},
             [(1, 0), (1, 2), (1, 3)], g),
        _row("x6-10", [(0, 0), (1, 0), (0, 1), (-5, 1)],
             {(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1,
              (2, 2): -1, (2, 3): -1, (2, 4): -1, (2, 5): -1, (2, 6): -1},
             [(1, 0), (1, 1), (1, 2), (1, 5)], g),
        _row("x6-11", [(0, 0), (1, 0), (1, 3), (2, 3)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 1},
             [(1, 0), (1, 2), (1, 3)], g),
        _row("x6-12", [(0, 0), (1, 0), (1, 2), (2, 1), (2, 3)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1},
             [(1, 0), (1, 2), (1, 3)], g),
        _row("x6-13", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1},
             [(1, 0), (1, 2), (1, 3)], g),
        _row("x7-1", [(0, 0), (1, 0), (1, 7)],
             _ones([(0, 0)] + [(1, k) for k in range(1, 7)]),
             [(1, 0), (1, 1), (1, 7)], g),
        _row("x7-2", [(0, 0), (1, 0), (2, 7)],
             BivarPoly({(0, 0): 1, (1, 1): 1})
             * BivarPoly({(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1,
                          (2, 4): 1, (2, 5): 1, (2, 6): 1}),
             [(1, 0), (1, 2), (2, 7)], g),
        _row("x7-3", [(0, 0), (1, 0), (3, 7)], _N2,
             [(1, 0), (3, 8), (8, 21)], g),
        _row("x8-1", [(0, 0), (1, 0), (1, 8)],
             _ones([(0, 0)] + [(1, k) for k in range(1, 8)]),
             [(1, 0), (1, 1), (1, 8)], g),
        _row("x8-2", [(0, 0), (1, 0), (3, 8)],
             BivarPoly({(0, 0): 1, (1, 2): 1})
             * BivarPoly({(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1,
                          (2, 4): 1, (2, 5): 2, (3, 6): 2, (3, 7): 1}),
             [(1, 0), (1, 3), (3, 8)], g),
        _row("x8-3", [(0, 0), (1, 0), (5, 8)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 2, (1, 3): 1, (2, 3): 1, (2, 4): 1},
             [(1, 0), (1, 2), (1, 4)], g),
        _row("x8-4", [(0, 0), (1, 0), (7, 8)],
             BivarPoly({(0, 0): 1, (1, 1): 1})
             * BivarPoly({(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1}),
             [(1, 0), (1, 2), (1, 4)], g),
        _row("x8-5", [(0, 0), (2, 0), (2, 4)],
             {(0, 0): 1, (1, 1): 2, (1, 2): 2, (1, 3): 2, (2, 4): 1},
             [(1, 0), (1, 2), (1, 4)], g),
    ]
    tet = [
        ("t3-1", [(0, 1, 3)], {(0, 0): 1, (1, 1): 1, (1, 2): 1},
         [(1, 0), (1, 1), (1, 1), (1, 3)], g),
        ("t3-2", [(1, 1, 3)], _T113,
         [(1, 0), (1, 1), (2, 3), (3, 5), (4, 6)], g),
        ("t3-3", [(2, 2, 3)], {(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 1},
         [(1, 0), (1, 1), (1, 2), (2, 3)], g),
        ("t4-1", [(3, 3, 4)],
         {(0, 0): 1, (1, 1): 3, (2, 2): 5, (3, 3): 6, (4, 4): 5, (5, 5): 3,
          (6, 6): 1}, [(1, 0), (1, 2), (2, 3), (3, 4)], g),
        ("t4-3", [(2, 3, 4)], {(0, 0): 1, (1, 1): 2, (2, 2): 1},
         [(1, 0), (1, 1), (1, 2), (1, 2)], g),
        ("t4-4", [(2, 1, 4)], None, None, "unknown"),
        ("t4-5", [(0, 1, 4)], {(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1},
         [(1, 0), (1, 1), (1, 1), (1, 4)], g),
        ("t4-6", [(1, 1, 4)], None, None, "unknown"),
        ("t5-1", [(2, 2, 5)], _N3, [(1, 0), (1, 2), (2, 3), (3, 5)], g),
        ("t5-2", [(2, 4, 5)],
         {(0, 0): 1, (1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 2, (2, 4): 1,
          (3, 4): 1, (3, 5): 1}, [(1, 0), (1, 1), (1, 2), (2, 5)], g),
        ("t5-3", [(0, 1, 5)],
         _ones([(0, 0), (1, 1), (1, 2), (1, 3), (1, 4)]),
         [(1, 0), (1, 1), (1, 1), (1, 5)], g),
        ("t5-4", [(1, 1, 5)], None, None, "unknown"),
        ("t5-5", [(1, 2, 5)], None, None, "unknown"),
        ("t6-1", [(2, 2, 6)],
         {(0, 0): 1, (1, 1): 3, (2, 2): 4, (2, 3): 1, (3, 3): 2, (3, 4): 1},
         [(1, 0), (1, 2), (1, 2), (2, 3)], g),
        ("t6-2", [(1, 1, 6)], None, None, "unknown"),
        ("t6-3", [(3, 1, 6)], None, None, "unknown"),
        ("t6-4", [(3, 4, 6)],
         {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1},
         [(1, 0), (1, 1), (1, 2), (1, 3)], g),
        ("t6-5", [(0, 1, 6)],
         _ones([(0, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]),
         [(1, 0), (1, 1), (1, 1), (1, 6)], g),
        ("t6-7", [(2, 1, 6)], None, None, "unknown"),
        ("t6-8", [(4, 5, 6)],
         {(0, 0): 1, (1, 1): 3, (2, 2): 4, (3, 3): 3, (4, 4): 1},
         [(1, 0), (1, 2), (1, 2), (2, 3)], g),
        ("t6-9", [(5, 5, 6)],
         {(0, 0): 1, (1, 1): 3, (2, 2): 4, (3, 3): 3, (4, 4): 1},
         [(1, 0), (1, 2), (1, 2), (2, 3)], g),
        # printed guess counts 8 points at m=1, the tetrahedron has 7
        ("t6-10", [(2, 5, 6)],
         {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1},
         [(1, 0), (1, 1), (1, 2), (1, 3)], "refuted"),
    ]
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    for key, apex, num, den, prov in tet:
        rows.append(_row(key, base + apex, num, den, prov))
    rows.append(_row("t4-2", [(0, 0, 0), (1, 0, 0), (1, 2, 0), (1, 0, 2)],
                     {(0, 0): 1, (1, 1): 2, (1, 2): 1},
                     [(1, 0), (1, 1), (1, 2), (1, 2)], g))
    rows.append(_row("t4-7", [(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 0, 2)],
                     {(0, 0): 1, (1, 1): 2, (2, 2): 1},
                     [(1, 0), (1, 1), (1, 2), (1, 2)], g))
    rows.append(_row("t6-6", [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 1, 3)],
                     {(0, 0): 1, (1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 1},
                     [(1, 0), (1, 1), (1, 2), (1, 3)], g))
    return rows


EXTRADATA = _extradata_rows()

CORPORA = {
    "fig1": FIG1,
    "fig2": FIG2,
    "fig3": FIG3,
    "closedforms": CLOSEDFORMS,
    "extradata": EXTRADATA,
}
