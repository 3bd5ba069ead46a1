"""JSON schemas for polytopes, posets, groups, character tables, and
result records, plus an atomic content-addressed cache.

Integers that may exceed 64 bits are serialized as decimal strings so
exactness survives any JSON reader.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction

from .equivariant import CharacterTable, GroupElement
from .polytope import LatticePolytope
from .posets import Poset
from .qseries import BivarPoly, QPoly, RatFun2

_I64 = 2 ** 63


def int_out(v):
    v = int(v)
    return v if -_I64 < v < _I64 else str(v)


def int_in(v):
    return int(v)


def qpoly_out(p: QPoly):
    out = []
    for c in p.coeffs:
        if c.denominator != 1:
            raise ValueError("record coefficients must be integers")
        out.append(int_out(c.numerator))
    return out


def qpoly_in(lst):
    return QPoly([int_in(c) for c in lst])


def ratfun_out(R: RatFun2):
    return {
        "den": [[b, a] for (b, a) in R.denom_factors],
        "num": [[t, q, int_out(c)] for (t, q), c in sorted(R.numerator.terms.items())],
    }


def ratfun_in(obj):
    num = {(int(t), int(q)): int_in(c) for (t, q, c) in obj["num"]}
    return RatFun2(BivarPoly(num), [tuple(f) for f in obj["den"]])


def polytope_out(P: LatticePolytope):
    return {"name": P.name or "polytope", "vertices": [list(v) for v in P.vertices]}


def polytope_in(obj):
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError("polytope JSON needs a 'vertices' field")
    verts = obj["vertices"]
    if not verts:
        raise ValueError("empty vertex list")
    return LatticePolytope(verts, name=obj.get("name"))


def poset_in(obj):
    return Poset(int(obj["n"]), [tuple(c) for c in obj.get("covers", [])])


def poset_out(poset: Poset):
    return {"n": poset.n, "covers": [list(c) for c in sorted(poset.covers)]}


def group_in(obj):
    return [GroupElement(e["id"], tuple(tuple(int(x) for x in row)
                                        for row in e["matrix"]))
            for e in obj["elements"]]


def table_in(obj):
    return CharacterTable(
        obj.get("name", "table"),
        tuple(obj["class_ids"]),
        tuple(int(s) for s in obj["class_sizes"]),
        tuple(obj["irreducibles"]),
        tuple(tuple(Fraction(v) for v in row) for row in obj["values"]),
    ).check()


def record_out(rec):
    out = {
        "polytope": {"name": rec.name, "vertices": [list(v) for v in rec.vertices]},
        "T": rec.T,
        "iq": [qpoly_out(p) for p in rec.iq],
        "iqInterior": [qpoly_out(p) for p in rec.iq_interior],
        "verification": {"level": rec.verification},
    }
    if rec.guess_E is not None:
        out["guess"] = ratfun_out(rec.guess_E)
    if rec.guess_Ebar is not None:
        out["guessInterior"] = ratfun_out(rec.guess_Ebar)
    return out


def record_in(obj):
    from .ehrhart import QEhrhartRecord
    rec = QEhrhartRecord(
        name=obj["polytope"]["name"],
        vertices=tuple(tuple(v) for v in obj["polytope"]["vertices"]),
        T=int(obj["T"]),
        iq=[qpoly_in(p) for p in obj["iq"]],
        iq_interior=[qpoly_in(p) for p in obj["iqInterior"]],
        verification=obj.get("verification", {}).get("level", "none"),
    )
    if "guess" in obj:
        rec.guess_E = ratfun_in(obj["guess"])
    if "guessInterior" in obj:
        rec.guess_Ebar = ratfun_in(obj["guessInterior"])
    return rec


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class RecordCache:
    """Content-addressed record cache with atomic writes."""

    ENV_VAR = "QEHRHART_CACHE"
    # bump when a record's content or layout changes, so old entries miss
    SCHEMA_VERSION = 1

    def __init__(self, directory=None):
        self.directory = directory or os.environ.get(self.ENV_VAR)

    def key(self, P: LatticePolytope, T, config=None):
        """Key on the vertices, T, the schema version and ``config``, which
        holds the rest of what determines the record (command, bounds)."""
        payload = dumps({"vertices": [list(v) for v in P.vertices],
                         "T": T, "config": config or {},
                         "schema": self.SCHEMA_VERSION})
        return hashlib.sha256(payload.encode()).hexdigest()

    def path(self, key):
        return os.path.join(self.directory, key + ".json")

    def load(self, key):
        if not self.directory:
            return None
        try:
            with open(self.path(key)) as fh:
                return record_in(json.load(fh))
        except (OSError, ValueError, KeyError):
            return None

    def store(self, key, rec):
        if not self.directory:
            return
        os.makedirs(self.directory, exist_ok=True)
        data = dumps(record_out(rec))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, self.path(key))
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
