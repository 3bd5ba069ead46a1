"""Polynomials in q, truncated series in t over Z[q], and bivariate
rational functions with denominators of the form prod (1 - q^a t^b).

Everything is exact.  Coefficients are Python ints, as every count is; a
coefficient is a ``Fraction`` only where its value is not an integer, such as
the multiplicities of a character decomposition before they are checked.
"""

from __future__ import annotations

from fractions import Fraction


class InsufficientTruncationError(ValueError):
    """A series is too short to support the requested fit."""


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _exact(c):
    """``c`` as a Fraction, or as an int when its value is an integer."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class QPoly:
    """Polynomial in q with exact coefficients (ints unless not integral)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([c if type(c) is int else _exact(c)
                             for c in coeffs])

    @staticmethod
    def zero():
        return QPoly()

    @staticmethod
    def one():
        return QPoly([1])

    @staticmethod
    def monomial(c, d):
        return QPoly([0] * d + [c])

    @staticmethod
    def q_integer(m):
        """1 + q + ... + q^(m-1), the standard q-analogue of m >= 0."""
        return QPoly([1] * m)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, d):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly([other])
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly([self[d] + other[d] for d in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly([self[d] - other[d] for d in range(n)])

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, d):
        """Multiply by q^d."""
        if self.is_zero():
            return self
        return QPoly([0] * d + self.coeffs)

    def __call__(self, q):
        v = 0
        for c in reversed(self.coeffs):
            v = v * q + c
        return v

    def divide_by_q_power(self, d):
        """Exact division by q^d; raises if not divisible."""
        if self.is_zero():
            return self
        if any(self.coeffs[i] for i in range(min(d, len(self.coeffs)))):
            raise ValueError("not divisible by q^%d" % d)
        return QPoly(self.coeffs[d:])

    def __repr__(self):
        return f"QPoly({self.coeffs!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if not c:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                q = "q" if d == 1 else f"q^{d}"
                parts.append(q if c == 1 else f"{c}*{q}")
        return " + ".join(parts)


class TQSeries:
    """Truncated power series in t with QPoly coefficients, order T."""

    __slots__ = ("T", "coeffs")

    def __init__(self, coeffs, T=None):
        coeffs = [c if isinstance(c, QPoly) else QPoly(c) for c in coeffs]
        if T is None:
            T = len(coeffs) - 1
        if len(coeffs) != T + 1:
            raise ValueError("need exactly T+1 coefficients")
        self.T = T
        self.coeffs = coeffs

    @staticmethod
    def zero(T):
        return TQSeries([QPoly() for _ in range(T + 1)], T)

    @staticmethod
    def one(T):
        return TQSeries([QPoly.one()] + [QPoly() for _ in range(T)], T)

    def __getitem__(self, m):
        if not 0 <= m <= self.T:
            raise IndexError("beyond truncation order")
        return self.coeffs[m]

    def __eq__(self, other):
        return (isinstance(other, TQSeries) and self.T == other.T
                and self.coeffs == other.coeffs)

    def truncate(self, T):
        if T > self.T:
            raise InsufficientTruncationError("cannot extend a truncation")
        return TQSeries(self.coeffs[: T + 1], T)

    def __add__(self, other):
        T = min(self.T, other.T)
        return TQSeries([self[m] + other[m] for m in range(T + 1)], T)

    def __sub__(self, other):
        T = min(self.T, other.T)
        return TQSeries([self[m] - other[m] for m in range(T + 1)], T)

    def __mul__(self, other):
        T = min(self.T, other.T)
        out = [QPoly() for _ in range(T + 1)]
        for i in range(T + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(T + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TQSeries(out, T)

    def hadamard(self, other):
        T = min(self.T, other.T)
        return TQSeries([self[m] * other[m] for m in range(T + 1)], T)

    def mul_factor(self, b, a):
        """Multiply by (1 - q^a t^b), exactly, same truncation order."""
        out = list(self.coeffs)
        for m in range(self.T, b - 1, -1):
            out[m] = out[m] - self.coeffs[m - b].shift(a)
        return TQSeries(out, self.T)

    def at_q1(self):
        """Specialize q -> 1: list of exact rationals per t-power."""
        return [c(1) for c in self.coeffs]

    def __repr__(self):
        return f"TQSeries(T={self.T}, {[str(c) for c in self.coeffs]})"


class BivarPoly:
    """Polynomial in (t, q) as {(tExp, qExp): coefficient} with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = int(v)
                if v:
                    self.terms[k] = v

    @staticmethod
    def one():
        return BivarPoly({(0, 0): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BivarPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return BivarPoly(out)

    def __mul__(self, other):
        out = {}
        for (i, j), a in self.terms.items():
            for (k, l), b in other.terms.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + a * b
        return BivarPoly(out)

    def t_degree(self):
        return max((i for (i, _) in self.terms), default=-1)

    def substitute_inverse(self):
        """t -> 1/t, q -> 1/q, as a Laurent dict (negative exponents)."""
        return {(-i, -j): c for (i, j), c in self.terms.items()}

    def as_qpoly_list(self, T):
        out = [dict() for _ in range(T + 1)]
        for (i, j), c in self.terms.items():
            if i <= T:
                out[i][j] = c
        res = []
        for d in out:
            n = max(d, default=-1) + 1
            res.append(QPoly([d.get(k, 0) for k in range(n)]))
        return res

    def __repr__(self):
        return f"BivarPoly({self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            body = ""
            if j:
                body += "q" if j == 1 else f"q^{j}"
            if i:
                body += ("t" if i == 1 else f"t^{i}")
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


class RatFun2:
    """N(t,q) / prod_i (1 - q^{a_i} t^{b_i}), denominator as multiset of (b, a)."""

    __slots__ = ("numerator", "denom_factors")

    def __init__(self, numerator, denom_factors):
        if isinstance(numerator, dict):
            numerator = BivarPoly(numerator)
        self.numerator = numerator
        factors = tuple(sorted((int(b), int(a)) for (b, a) in denom_factors))
        if any(b == 0 for (b, a) in factors):
            # a factor constant in t has no power-series expansion in t
            raise ValueError("denominator factors need positive t-exponent")
        self.denom_factors = factors

    def __eq__(self, other):
        return (isinstance(other, RatFun2)
                and self.numerator == other.numerator
                and self.denom_factors == other.denom_factors)

    @property
    def nu(self):
        return len(self.denom_factors)

    def denominator_poly(self):
        D = BivarPoly.one()
        for (b, a) in self.denom_factors:
            D = D * BivarPoly({(0, 0): 1, (b, a): -1})
        return D

    def expand(self, T):
        """Exact power-series expansion to t-order T."""
        coeffs = self.numerator.as_qpoly_list(T)
        series = TQSeries(coeffs, T)
        for (b, a) in self.denom_factors:
            # multiply by sum_k q^{ak} t^{bk}
            out = [QPoly() for _ in range(T + 1)]
            for m in range(T + 1):
                c = series.coeffs[m]
                if c.is_zero():
                    continue
                k = 0
                while m + k * b <= T:
                    out[m + k * b] = out[m + k * b] + c.shift(a * k)
                    k += 1
            series = TQSeries(out, T)
        return series

    def equals_as_rational(self, other) -> bool:
        """Exact equality as rational functions (cross multiplication)."""
        return (self.numerator * other.denominator_poly()
                == other.numerator * self.denominator_poly())

    def __repr__(self):
        return f"RatFun2({self.numerator!s} over {list(self.denom_factors)})"


def fit_numerator(S: TQSeries, den, t_deg_max: int):
    """Numerator N with S = N / prod(1 - q^a t^b), if the product terminates.

    Multiplies S by every factor and demands that all t-coefficients beyond
    ``t_deg_max`` vanish identically up to order S.T.  The margin
    S.T >= t_deg_max + sum(b_i) + 2 is a precondition.
    """
    den = sorted((int(b), int(a)) for (b, a) in den)
    sum_b = sum(b for (b, _) in den)
    if S.T < t_deg_max + sum_b + 2:
        raise InsufficientTruncationError(
            f"need series order >= {t_deg_max + sum_b + 2}, have {S.T}")
    prod = S
    for (b, a) in den:
        prod = prod.mul_factor(b, a)
    for m in range(t_deg_max + 1, prod.T + 1):
        if not prod.coeffs[m].is_zero():
            return None
    terms = {}
    for m in range(min(t_deg_max, prod.T) + 1):
        for d, c in enumerate(prod.coeffs[m].coeffs):
            if c:
                if c.denominator != 1:
                    return None
                terms[(m, d)] = int(c)
    return BivarPoly(terms)


def _factor_types(b_max, a_max):
    return [(b, a) for b in range(1, b_max + 1) for a in range(0, a_max + 1)]


def _multiset_key(factors):
    return (len(factors), sum(a + b for (b, a) in factors), tuple(sorted(factors)))


def _mul_factor_rows(rows, b, a):
    """Coefficient rows (one list per t-power) times (1 - q^a t^b).

    Same truncation order; the input rows are shared, never mutated.
    """
    out = rows[:b]
    for m in range(b, len(rows)):
        low = rows[m - b]
        if not low:
            out.append(rows[m])
            continue
        row = rows[m] + [0] * (len(low) + a - len(rows[m]))
        for d, c in enumerate(low, a):
            row[d] -= c
        out.append(_trim(row))
    return out


def denominator_search(S: TQSeries, b_max, a_max, nu_max, t_deg_max=None,
                       first_only=False):
    """All denominators within bounds whose numerator fit succeeds.

    Results are deduplicated and sorted by (nu, total degree, factor list).
    When ``t_deg_max`` is None, each candidate multiset uses
    min(sum(b_i) + 4, S.T - sum(b_i) - 2); multisets whose margin cannot be
    met are skipped.  With ``first_only`` the search stops at the first
    success in canonical order (cheap minimal-form guessing).

    Multisets are enumerated depth-first as sorted tuples, one factor
    multiply per tree edge, so each prefix product is shared by every
    candidate extending it.  A candidate whose product terminates is
    confirmed, and its numerator taken, by ``fit_numerator``.
    """
    types = _factor_types(b_max, a_max)
    if not types or (t_deg_max is not None and t_deg_max < 0):
        return []
    # the margin S.T >= t_deg_max + sum(b_i) + 2 bounds sum(b_i); a derived
    # t_deg_max meets it, and is not negative, exactly when sum(b_i) <= S.T - 2
    b_room = S.T - 2 - (t_deg_max or 0)
    degs = [a + b for (b, a) in types]
    lo = [min(degs[i:]) for i in range(len(types))]
    hi = [max(degs[i:]) for i in range(len(types))]

    def extend(start, left, factors, rows, sum_b, deg, target):
        """Hits among ``factors`` plus ``left`` more types from types[start:],
        in sorted-tuple order; ``rows`` is S times ``factors``.  A ``target``
        keeps only multisets of that total degree."""
        if not left:
            tdm = t_deg_max
            if tdm is None:
                tdm = min(sum_b + 4, S.T - sum_b - 2)
            if not any(rows[tdm + 1:]):
                num = fit_numerator(S, factors, tdm)
                if num is not None:
                    yield RatFun2(num, factors)
            return
        for i in range(start, len(types)):
            b, a = types[i]
            if sum_b + b * left > b_room:
                break  # b never decreases along types
            d = deg + a + b
            if target is not None and not (d + (left - 1) * lo[i] <= target
                                           <= d + (left - 1) * hi[i]):
                continue
            yield from extend(i, left - 1, factors + (types[i],),
                              _mul_factor_rows(rows, b, a), sum_b + b, d,
                              target)

    rows = [list(c.coeffs) for c in S.coeffs]
    hits = []
    for nu in range(1, nu_max + 1):
        if not first_only:
            hits.extend(extend(0, nu, (), rows, 0, 0, None))
            continue
        # within one total degree, depth-first order is canonical order
        for D in range(nu * min(degs), nu * max(degs) + 1):
            for hit in extend(0, nu, (), rows, 0, 0, D):
                return [hit]
    hits.sort(key=lambda R: _multiset_key(R.denom_factors))
    return hits
