"""Exact rational linear algebra on dense matrices.

Entries and results are ints, or ``Fraction`` where a value is not an
integer.  Every eliminator in the package runs on ``Echelon``, one
incremental row echelon over Q or F_p.  Over Q it is fraction-free on
integer-rescaled rows, with one content strip per reduced row, so
intermediate entries stay integral; ``rref`` divides by pivots only last.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .qseries import _exact


class Mat:
    """Dense matrix of exact rationals, row-major, entries as given."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged rows")

    def __eq__(self, other):
        return isinstance(other, Mat) and self.entries == other.entries

    def __repr__(self):
        return f"Mat({self.entries!r})"

    def mul_vec(self, v):
        return [sum(a * x for a, x in zip(row, v)) for row in self.entries]


def rref(M: Mat, p=0):
    """Reduced row-echelon form over Q (``p = 0``) or F_p.  Returns
    (echelon Mat, pivot column list)."""
    piv, rows = Echelon.of(M.entries, p).rref()
    rows += [[0] * M.cols for _ in range(M.rows - len(rows))]
    return Mat(rows), piv


def nullspace(M: Mat, p=0):
    """Basis of the right kernel over Q (``p = 0``) or F_p, one vector per
    free column.

    The free column's coordinate is 1 in its basis vector and 0 in the
    others, so the result is the reduced echelon form of the kernel against
    the reversed column order, and canonical.
    """
    return Echelon.of(M.entries, p).kernel(M.cols)


def solve(M: Mat, b):
    """One exact solution x of M x = b, or None if inconsistent."""
    ech, piv = rref(Mat([row + [v] for row, v in zip(M.entries, b)]))
    if M.cols in piv:
        return None
    x = [0] * M.cols
    for i, pc in enumerate(piv):
        x[pc] = ech.entries[i][M.cols]
    return x


class Echelon:
    """Incremental row echelon over Q (``p = 0``) or F_p (``p`` prime).

    Over Q pivot rows are kept as primitive integer vectors, and no
    fraction appears.  ``reduce`` combines a row with a pivot row whose
    entry is d, where the row has c, as (d/g)*r - (c/g)*pivot with
    g = gcd(c, d), and strips the content of the row and its combination
    once, after the last step; ``push`` strips too.  Each intermediate row
    is a positive multiple of the one that stripping after every step
    would give, so the stripped results are the same.  Over F_p entries
    live in [0, p) and pivot rows are normalised to a leading 1.  A row may
    carry a combination dict (key -> coefficient) that is reduced together
    with it, so a dependent row's combination records the relation that
    killed it.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p=0):
        self.p = p
        self.pivots = []  # (pivot column, row, combination or None)

    @classmethod
    def of(cls, rows, p=0):
        """Echelon of the given rational rows."""
        ech = cls(p)
        for r in rows:
            ech.add(r)
        return ech

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, v, combo=None):
        """Residual of an integer row v against the span, and its reduced
        combination."""
        p = self.p
        if combo is not None:
            combo = dict(combo)
        if p:
            r = [x % p for x in v]
            for pc, prow, pcombo in self.pivots:
                c = r[pc]
                if c:
                    r = [(a - c * b) % p for a, b in zip(r, prow)]
                    if combo is not None:
                        for m, x in pcombo.items():
                            combo[m] = (combo.get(m, 0) - c * x) % p
            return r, combo
        r = list(v)
        stepped = False
        for pc, prow, pcombo in self.pivots:
            c = r[pc]
            if not c:
                continue
            stepped = True
            g = gcd(c, prow[pc])
            c //= g
            d = prow[pc] // g
            if d == 1:
                r = [a - c * b for a, b in zip(r, prow)]
            else:
                r = [d * a - c * b for a, b in zip(r, prow)]
                if combo is not None:
                    combo = {m: d * x for m, x in combo.items()}
            if combo is not None:
                for m, x in pcombo.items():
                    combo[m] = combo.get(m, 0) - c * x
        if stepped:
            r, combo = _strip(r, combo)
        return r, combo

    def contains(self, v) -> bool:
        return not any(self.reduce(_as_int(v))[0])

    def add(self, v) -> bool:
        """Extend the span by a rational row v; True iff v was new."""
        return self.push(*self.reduce(_as_int(v)))

    def push(self, r, combo=None) -> bool:
        """Append a row already reduced against the span; True iff nonzero."""
        pc = next((j for j, a in enumerate(r) if a), None)
        if pc is None:
            return False
        if not self.p:
            r, combo = _strip(r, combo)
        elif r[pc] != 1:
            inv = pow(r[pc], -1, self.p)
            r = [a * inv % self.p for a in r]
            if combo is not None:
                combo = {m: x * inv % self.p for m, x in combo.items()}
        self.pivots.append((pc, r, combo))
        return True

    def rref(self):
        """(pivot columns, reduced echelon rows with leading 1), by column:
        each row reduced by the later ones, then divided by its pivot."""
        back = Echelon(self.p)
        for _, row, _ in sorted(self.pivots, key=lambda t: t[0], reverse=True):
            back.push(*back.reduce(row))
        back.pivots.reverse()
        return ([pc for pc, _, _ in back.pivots],
                [r if r[pc] == 1 else [_exact(a, r[pc]) for a in r]
                 for pc, r, _ in back.pivots])

    def kernel(self, ncols):
        """Basis of the right kernel, one vector per free column.

        The free column's coordinate is 1 in its basis vector, so the result
        is deterministic.
        """
        piv, rows = self.rref()
        p = self.p
        basis = []
        for f in range(ncols):
            if f in piv:
                continue
            v = [0] * ncols
            v[f] = 1
            for pc, r in zip(piv, rows):
                v[pc] = -r[f] % p if p else -r[f]
            basis.append(v)
        return basis


def _strip(r, combo):
    """Divide an integer row and its combination by their shared content."""
    g = 0
    for a in (r if combo is None else chain(r, combo.values())):
        if a:
            g = gcd(g, a)
            if g == 1:
                return r, combo
    if g > 1:
        r = [a // g for a in r]
        if combo is not None:
            combo = {m: a // g for m, a in combo.items()}
    return r, combo


def _as_int(v):
    """Integer multiple of a rational vector (by the lcm of denominators)."""
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in v]
