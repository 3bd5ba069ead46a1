"""Seeded inputs, operations and exact output checks of the three workloads.

``build(name, seed, workdir, expected)`` generates the workload's inputs from
the seed, constructs its polytopes, writes the JSON files the CLI reads and
returns the operation list.  An operation is one user-visible request:
``run()`` is timed, ``check(result)`` is not and returns an error string or
None.  Inputs depend only on the seed: the same seed gives byte-identical
input files.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from qehrhart import (cli, corpora, ehrhart, equivariant, halgebra, harmonics,
                      jsonio, modp, qseries)
from qehrhart.equivariant import GroupElement
from qehrhart.polytope import LatticePolytope, PointLocus
from qehrhart.qseries import QPoly, TQSeries

DILATES_T = 6
GUESS_T = 10
GUESS_BOUNDS = (2, 6, 4)   # b_max, a_max, nu_max
CLOSURE_TRIALS = 200
MODP_PRIMES = (2, 3, 5)
MODP_TRIALS = 30
GENERATION_T = 8
SPAN_PAIRS = ((1, 1), (1, 2), (2, 2), (1, 3))
CHARACTER_M = 5

CASE_TRIANGLE = ((0, 0), (1, 2), (2, 1))
SWAP = ((0, 1), (1, 0))   # the case triangle's symmetry


@dataclass
class Op:
    kind: str
    primary: bool
    run: Callable[[], object]
    check: Callable[[object], str | None]


# -- input generation ---------------------------------------------------------

def sign_flip(rng, n):
    """A random diagonal matrix of signs.

    Reflections keep the cost of elimination: each monomial's evaluation
    vector only changes sign.  Coordinate permutations and shears were
    measured to change the cost by up to 40 % per seed, because they change
    the monomial order relative to the shape and the coordinate spread.
    """
    return tuple(tuple(rng.choice((-1, 1)) if j == i else 0 for j in range(n))
                 for i in range(n))


def apply_affine(A, b, verts):
    n = len(A)
    return [tuple(sum(A[i][j] * v[j] for j in range(n)) + b[i]
                  for i in range(n)) for v in verts]


def random_image(rng, P):
    """Reflection-plus-translation image of P that is not down-closed."""
    n = P.ambient_dim
    while True:
        A = sign_flip(rng, n)
        b = [rng.randint(-2, 2) for _ in range(n)]
        Q = LatticePolytope(apply_affine(A, b, P.vertices), name=P.name)
        if not Q.is_antiblocking():
            return Q


def dilates_rows():
    """Verified corpus rows that are not down-closed, minus the 3-D cross-polytope.

    The excluded row has 377 points at dilate 6, one elimination of which
    alone would take longer than the whole rest of the workload.
    """
    rows = []
    for key in ("fig1", "fig2", "fig3", "closedforms"):
        for row in corpora.CORPORA[key]:
            if (row.provenance == "verified" and row.key != "cross-polytope-3d"
                    and not row.polytope().is_antiblocking()):
                rows.append(row)
    return rows


def guess_anchors():
    """Down-closed verified rows of dimension 1 or 2 with forms of <= 3 factors.

    Rows with an identical vertex set are kept once (first corpus key wins).
    The 4-factor row (area4-rectangle) is left out: its guess alone takes
    about 4.5 s, and the full scan already tries every 4-factor candidate.
    """
    b_max, a_max, _ = GUESS_BOUNDS
    seen, rows = set(), []
    for key in ("fig1", "fig2", "fig3", "closedforms"):
        for row in corpora.CORPORA[key]:
            P = row.polytope()
            f = row.form
            if (row.provenance != "verified" or P.dim > 2 or P.dim < 1
                    or not P.is_antiblocking() or f.nu > 3
                    or max(b for b, _ in f.denom_factors) > b_max
                    or max(a for _, a in f.denom_factors) > a_max
                    or frozenset(P.vertices) in seen):
                continue
            seen.add(frozenset(P.vertices))
            rows.append(row)
    return rows


def swap_xy(verts):
    return [(v[1], v[0]) for v in verts]


def random_loci(rng, max_size=8, lo=-3, hi=3):
    """Two planar loci of 1..max_size points, as ``verify closure`` draws them.

    The benchmark keeps its own generators, so a change to the CLI's helpers
    does not change the benchmark's inputs.
    """
    out = []
    for _ in range(2):
        size = rng.randint(1, max_size)
        pts = set()
        while len(pts) < size:
            pts.add((rng.randint(lo, hi), rng.randint(lo, hi)))
        out.append(sorted(pts))
    return out


def random_loci_modp(rng, p):
    cap = min(5, p * p)
    out = []
    for _ in range(2):
        size = rng.randint(1, cap)
        pts = set()
        while len(pts) < size:
            pts.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
        out.append(sorted(pts))
    return out


# -- independent reference counts (no program code) ---------------------------

def _hull_2d(verts):
    pts = sorted(set(verts))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def lattice_points_2d(verts, m):
    """Integer points of m*conv(verts) for a 2-D polygon, by half-planes."""
    hull = [(m * x, m * y) for x, y in _hull_2d(verts)]
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return [(x, y) for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
            if all(_cross(a, b, (x, y)) >= 0 for a, b in edges)]


def lattice_points_ref(verts, m):
    if len(verts[0]) == 1:
        lo, hi = min(v[0] for v in verts), max(v[0] for v in verts)
        return [(x,) for x in range(m * lo, m * hi + 1)]
    return lattice_points_2d(verts, m)


def weight_series_ref(verts, T):
    """sum over points of mP of q^(coordinate sum), m = 0..T."""
    coeffs = []
    for m in range(T + 1):
        counts = {}
        for z in lattice_points_ref(verts, m):
            counts[sum(z)] = counts.get(sum(z), 0) + 1
        coeffs.append(QPoly([counts.get(d, 0) for d in range(max(counts) + 1)]))
    return TQSeries(coeffs, T)


# -- CLI ----------------------------------------------------------------------

def run_cli(argv):
    """One in-process CLI call; returns (exit code, stdout text)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _write_polytope(workdir, tag, P):
    path = os.path.join(workdir, tag + ".json")
    with open(path, "w") as fh:
        fh.write(json.dumps(jsonio.polytope_out(P), sort_keys=True) + "\n")
    return path


def _series_out(S):
    return [jsonio.qpoly_out(c) for c in S.coeffs]


def _cli_record(result):
    code, text = result
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"unparsable output: {exc}"


# -- dilates ------------------------------------------------------------------

def build_dilates(rng, workdir, expected):
    T = DILATES_T
    interior = expected["dilates"]["interior"]
    cache = os.path.join(workdir, "cache")
    rows = dilates_rows()
    rng.shuffle(rows)
    ops, warm = [], []
    for i, row in enumerate(rows):
        P = random_image(rng, row.polytope())
        path = _write_polytope(workdir, f"p{i:02d}", P)
        argv = ["compute", path, "--max-t", str(T), "--cache", cache,
                "--jobs", "1"]
        want_I = interior[row.key]
        verts = sorted(map(list, P.vertices))
        cold = {}

        def check_cold(result, form=row.form, want_I=want_I, verts=verts,
                       cold=cold, key=row.key):
            obj, err = _cli_record(result)
            if err:
                return f"{key}: {err}"
            if sorted(obj["polytope"]["vertices"]) != verts:
                return f"{key}: vertices changed"
            if obj["iq"] != _series_out(form.expand(T)):
                return f"{key}: E differs from the recorded form"
            if obj["iqInterior"] != want_I:
                return f"{key}: interior counts differ from the expected file"
            cold["text"] = result[1]
            return None

        def check_warm(result, cold=cold, key=row.key):
            _, err = _cli_record(result)
            if err:
                return f"{key}: warm {err}"
            if result[1] != cold.get("text"):
                return f"{key}: warm replay differs from the cold output"
            return None

        def dilation(P=P):
            return ehrhart.check_dilation(P, 2, T // 2)

        ops.append(Op("compute", True, lambda argv=argv: run_cli(argv),
                      check_cold))
        ops.append(Op("check_dilation", False, dilation,
                      lambda ok, key=row.key: None if ok is True
                      else f"{key}: check_dilation returned {ok!r}"))
        warm.append(Op("compute_warm", False, lambda argv=argv: run_cli(argv),
                       check_warm))
    return ops + warm


# -- guess-search -------------------------------------------------------------

def build_guess_search(rng, workdir, expected):
    T = GUESS_T
    b_max, a_max, nu_max = GUESS_BOUNDS
    bounds = ["--den-b-max", str(b_max), "--den-a-max", str(a_max),
              "--nu-max", str(nu_max)]
    # Every anchor and catalog polygon, polygons in both orientations
    # (swapping the coordinates keeps a polygon down-closed and its series),
    # so the polygon guesses come in pairs of equal cost and their median
    # does not jump between unrelated ops.  The scan runs on the smallest
    # polygon, the unit triangle of FIG1, whose series is the same for every
    # seed.
    shapes = []   # (tag, vertices, recorded E, recorded Ebar or None)
    for row in guess_anchors():
        shapes.append((row.key, list(row.vertices), row.form, None))
    for entry in expected["guess_search"]["catalog"]:
        shapes.append(("catalog", [tuple(v) for v in entry["vertices"]],
                       jsonio.ratfun_in(entry["guess"]),
                       jsonio.ratfun_in(entry["guessInterior"])))
    shapes += [(tag, swap_xy(v), E, Ebar) for tag, v, E, Ebar in shapes
               if len(v[0]) == 2]
    rng.shuffle(shapes)
    ops, guesses, refs, scan = [], {}, {}, None

    def series_ref(verts):
        # the reference is the checker's work, so it is made outside set-up
        key = tuple(verts)
        if key not in refs:
            refs[key] = weight_series_ref(verts, T)
        return refs[key]

    for i, (tag, verts, want_E, want_Ebar) in enumerate(shapes):
        P = LatticePolytope(verts, name=tag)
        path = _write_polytope(workdir, f"g{i:02d}", P)
        argv = ["guess", path, "--max-t", str(T), "--jobs", "1"] + bounds

        def check_guess(result, verts=verts, want_E=want_E,
                        want_Ebar=want_Ebar, tag=tag, i=i):
            S_ref = series_ref(verts)
            obj, err = _cli_record(result)
            if err:
                return f"{tag}: {err}"
            counts = [sum(jsonio.int_in(c) for c in row) for row in obj["iq"]]
            if counts != [c(1) for c in S_ref.coeffs]:
                return f"{tag}: counts at q=1 differ from the point counts"
            if obj["iq"] != _series_out(S_ref):
                return f"{tag}: graded counts differ from the weight enumerator"
            if "guess" not in obj:
                return f"{tag}: no form found"
            E = jsonio.ratfun_in(obj["guess"])
            if E.expand(T) != S_ref:
                return f"{tag}: guess does not expand to the series"
            if E != want_E:
                return f"{tag}: guess differs from the recorded form"
            if want_Ebar is not None and (
                    "guessInterior" not in obj
                    or jsonio.ratfun_in(obj["guessInterior"]) != want_Ebar):
                return f"{tag}: interior guess differs from the expected file"
            guesses[i] = E
            return None

        # primary ops are the polygon guesses; segment guesses ride along
        ops.append(Op("guess", len(verts[0]) == 2,
                      lambda argv=argv: run_cli(argv), check_guess))
        if tag == "area1-triangle" and scan is None:
            scan = (i, P, verts)
    i, P, verts = scan

    def run_scan(P=P):
        # the full scan, then the program's own expansion of every hit
        S = ehrhart.series_E(P, T)
        hits = qseries.denominator_search(S, b_max, a_max, nu_max)
        return hits, [h.expand(T) for h in hits]

    def check_scan(result, i=i, verts=verts):
        S_ref = series_ref(verts)
        hits, expansions = result
        if not hits:
            return "scan found no form"
        for h, e in zip(hits, expansions):
            if e != S_ref:
                return f"scan hit {h!r} does not expand to the series"
        if hits[0] != guesses.get(i):
            return "first scan hit differs from the guess"
        return None

    ops.append(Op("denominator_search", False, run_scan, check_scan))
    return ops


# -- dual-algebra -------------------------------------------------------------

def _fixed_points(verts, g, m):
    return sum(1 for z in lattice_points_2d(verts, m)
               if (g[0][0] * z[0] + g[0][1] * z[1],
                   g[1][0] * z[0] + g[1][1] * z[1]) == z)


def build_dual_algebra(rng, workdir, expected):
    exp = expected["dual_algebra"]
    ops, inputs = [], {"closure": [], "modp": []}
    for _ in range(CLOSURE_TRIALS):
        Z, Zp = random_loci(rng)
        inputs["closure"].append([Z, Zp])

        def closure(Z=Z, Zp=Zp):
            return harmonics.closure_check(PointLocus(2, Z), PointLocus(2, Zp))

        ops.append(Op("closure_check", True, closure,
                      lambda r: None if r[0] is True
                      else f"closure fails: {r[2]!r}"))
    for p in MODP_PRIMES:
        for _ in range(MODP_TRIALS):
            Z, Zp = random_loci_modp(rng, p)
            inputs["modp"].append([p, Z, Zp])
            ops.append(Op(
                "closure_check_modp", False,
                lambda Z=Z, Zp=Zp, p=p: modp.closure_check_modp(Z, Zp, p),
                lambda ok, p=p: None if ok is True else f"closure mod {p} fails"))
    rng.shuffle(ops)

    base = LatticePolytope(CASE_TRIANGLE, name="case-triangle")
    PA = random_image(rng, base)
    ops.append(Op("generation_check", False,
                  lambda: halgebra.generation_check(PA, 2, GENERATION_T),
                  lambda rep: None if rep.to_json() == exp["generation"]
                  else f"generation report differs: {rep.to_json()}"))
    for m, mp in SPAN_PAIRS:
        want = exp["product_span"][f"{m},{mp}"]

        def check_span(r, want=want):
            got = [[[d, k] for d, k in sorted(r[0].items())], r[2]]
            return None if got == want else f"product span differs: {r}"

        ops.append(Op("product_span", False,
                      lambda m=m, mp=mp: halgebra.product_span(PA, m, mp),
                      check_span))

    # a linear image keeps a conjugate of the swap as a symmetry
    A = sign_flip(rng, 2)
    sign = A[0][0] * A[1][1]
    g = ((0, sign), (sign, 0))   # A . swap . A^-1 for a diagonal sign matrix A
    sym_verts = apply_affine(A, (0, 0), CASE_TRIANGLE)
    PS = LatticePolytope(sym_verts, name="case-triangle-image")
    elem = GroupElement("swap-image", g)
    inputs.update(generation=jsonio.polytope_out(PA),
                  character=jsonio.polytope_out(PS), symmetry=g)
    with open(os.path.join(workdir, "inputs.json"), "w") as fh:
        fh.write(json.dumps(inputs, sort_keys=True) + "\n")
    for m in range(CHARACTER_M + 1):
        want = exp["character"][m]

        def check_char(ch, want=want, m=m):
            if jsonio.qpoly_out(ch) != want:
                return f"character at m={m} differs from the expected file"
            if ch(1) != _fixed_points(sym_verts, g, m):
                return f"character at m={m}, q=1 differs from the fixed points"
            return None

        ops.append(Op("graded_character", False,
                      lambda m=m: equivariant.graded_character(PS, elem, m),
                      check_char))
    return ops


BUILDERS = {"dilates": build_dilates, "guess-search": build_guess_search,
            "dual-algebra": build_dual_algebra}


def build(name, seed, workdir, expected):
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, workdir, expected)
