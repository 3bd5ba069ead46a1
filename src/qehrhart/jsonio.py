"""JSON schemas for polytopes, posets, groups and result records, plus an
atomic content-addressed cache.

Integers that may exceed 64 bits are serialized as decimal strings so
exactness survives any JSON reader.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile

from .equivariant import GroupElement
from .polytope import LatticePolytope
from .posets import Poset
from .qseries import BivarPoly, QPoly, RatFun2

_I64 = 2 ** 63


def int_out(v):
    return v if -_I64 < v < _I64 else str(v)


def int_in(v):
    """The one integer reader: an int that is not a bool, or a decimal
    string (``int_out``'s form of large values); 1.5 or true is refused."""
    if isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v):
        return int(v)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _ints(v):
    if not isinstance(v, list):
        raise ValueError(f"expected a list of integers, got {v!r}")
    return tuple(int_in(x) for x in v)


def qpoly_out(p: QPoly):
    if any(type(c) is not int for c in p.coeffs):
        raise ValueError("record coefficients must be integers")
    return [int_out(c) for c in p.coeffs]


def qpoly_in(lst):
    return QPoly([int_in(c) for c in lst])


def ratfun_out(R: RatFun2):
    return {
        "den": [[b, a] for (b, a) in R.denom_factors],
        "num": [[t, q, int_out(c)] for (t, q), c in sorted(R.numerator.terms.items())],
    }


def ratfun_in(obj):
    num = {(int_in(t), int_in(q)): int_in(c) for (t, q, c) in obj["num"]}
    return RatFun2(BivarPoly(num), [_ints(f) for f in obj["den"]])


def polytope_out(P: LatticePolytope):
    return {"name": P.name or "polytope", "vertices": [list(v) for v in P.vertices]}


def polytope_in(obj):
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError("polytope JSON needs a 'vertices' field")
    verts = obj["vertices"]
    if not verts:
        raise ValueError("empty vertex list")
    return LatticePolytope([_ints(v) for v in verts], name=obj.get("name"))


def poset_in(obj):
    return Poset(int_in(obj["n"]), [_ints(c) for c in obj.get("covers", [])])


def group_in(obj):
    return [GroupElement(e["id"], tuple(_ints(row) for row in e["matrix"]))
            for e in obj["elements"]]


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
        vertices=tuple(_ints(v) for v in obj["polytope"]["vertices"]),
        T=int_in(obj["T"]),
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
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None  # unreadable or corrupt: a miss

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
