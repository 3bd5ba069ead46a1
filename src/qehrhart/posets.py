"""Finite posets, their two 0/1 polytopes, and the piecewise-linear
transfer map between them.
"""

from __future__ import annotations

from itertools import combinations, permutations, product as iproduct

from .polytope import LatticePolytope


class NotInOrderPolytopeError(ValueError):
    """The supplied function is not monotone/nonnegative."""


class Poset:
    """Poset on elements 0..n-1 given by its cover relation."""

    def __init__(self, n, covers):
        self.n = n
        self.covers = frozenset((int(a), int(b)) for (a, b) in covers)
        for (a, b) in self.covers:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError("bad cover pair")
        self.below = self._closure()
        for a in range(n):
            if (a, a) in self.below:
                raise ValueError("cover relation has a cycle")
        for (a, b) in self.covers:
            if any((a, c) in self.below and (c, b) in self.below
                   for c in range(n) if c not in (a, b)):
                raise ValueError("cover relation is not transitively reduced")

    def _closure(self):
        rel = set(self.covers)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        return frozenset(rel)

    def less(self, a, b):
        return (a, b) in self.below

    def chains(self):
        """All nonempty chains, as tuples sorted along the order."""
        out = []
        for r in range(1, self.n + 1):
            for sub in combinations(range(self.n), r):
                if all(self.less(sub[i], sub[i + 1]) for i in range(r - 1)):
                    out.append(sub)
        return out

    def is_antichain(self, sub):
        return not any(self.less(a, b) or self.less(b, a)
                       for a, b in combinations(sub, 2))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={sorted(self.covers)})"


def order_polytope(poset: Poset) -> LatticePolytope:
    """Vertices are the 0/1 monotone functions (indicator vectors of filters)."""
    verts = []
    for bits in iproduct((0, 1), repeat=poset.n):
        if all(bits[a] <= bits[b] for (a, b) in poset.covers):
            verts.append(bits)
    return LatticePolytope(verts)


def chain_polytope(poset: Poset) -> LatticePolytope:
    """Vertices are the indicator vectors of antichains."""
    verts = []
    for bits in iproduct((0, 1), repeat=poset.n):
        supp = [i for i in range(poset.n) if bits[i]]
        if poset.is_antichain(supp):
            verts.append(bits)
    return LatticePolytope(verts)


def stanley_transfer(poset: Poset, g):
    """Transfer map: subtract from g(p) the max of g over elements covered by p.

    Bijects the lattice points of every dilate of the order polytope onto
    those of the chain polytope.
    """
    g = [int(x) for x in g]
    if len(g) != poset.n:
        raise ValueError("wrong length")
    if any(x < 0 for x in g):
        raise NotInOrderPolytopeError("negative value")
    if any(g[a] > g[b] for (a, b) in poset.covers):
        raise NotInOrderPolytopeError("not monotone along covers")
    out = []
    for p in range(poset.n):
        lower = [g[a] for (a, b) in poset.covers if b == p]
        out.append(g[p] - max(lower, default=0))
    return tuple(out)


def all_posets(n, up_to_iso=True):
    """All posets on n elements, optionally up to isomorphism.

    Enumerates strict partial orders (irreflexive transitive relations) by
    brute force and reduces each to its cover relation.
    """
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    seen = set()
    out = []
    for bits in iproduct((0, 1), repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if any((b, a) in rel for (a, b) in rel):
            continue
        if any((a, d) not in rel
               for (a, b) in rel for (c, d) in rel if b == c and a != d):
            continue
        if up_to_iso:
            canon = min(
                tuple(sorted((perm[a], perm[b]) for (a, b) in rel))
                for perm in permutations(range(n)))
            if canon in seen:
                continue
            seen.add(canon)
        covers = {(a, b) for (a, b) in rel
                  if not any((a, c) in rel and (c, b) in rel for c in range(n))}
        out.append(Poset(n, covers))
    return out
