"""Regenerate bench/expected.json, the expected values of the base shapes.

Every value is invariant under the unimodular maps the workloads apply, so
one file covers every seed.  Run from the repository root:

    python3 bench/make_expected.py

Only rerun it when a workload's base shapes or sizes change; the values are
recorded from the program, so a rerun on a broken program records wrong
values.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from qehrhart import ehrhart, jsonio  # noqa: E402
from qehrhart.equivariant import GroupElement, graded_character  # noqa: E402
from qehrhart.halgebra import generation_check, product_span  # noqa: E402
from qehrhart.polytope import LatticePolytope  # noqa: E402

import workloads as W  # noqa: E402

CATALOG_DEGREE = 3   # largest coordinate sum of a catalog polygon


def dilates():
    interior = {}
    for row in W.dilates_rows():
        rec = ehrhart.compute_record(row.polytope(), W.DILATES_T)
        interior[row.key] = jsonio.record_out(rec)["iqInterior"]
    return {"T": W.DILATES_T, "interior": interior}


def _young_polygons(xmax, ymax):
    """Vertex sets of down-closed lattice polygons in [0,xmax] x [0,ymax]."""
    out = []

    def heights(prefix):
        if len(prefix) == xmax + 1:
            yield prefix
            return
        top = prefix[-1] if prefix else ymax + 1
        for h in range(top, -1, -1):
            yield from heights(prefix + [h])

    for hs in heights([]):
        pts = [(x, y) for x, h in enumerate(hs) for y in range(h)]
        if not pts:
            continue
        P = LatticePolytope(pts)
        if P.dim == 2:
            out.append(P)
    return out


def guess_catalog():
    """Seeded polygons of guess-search: one size class, quick forms.

    The class is every down-closed polygon with largest coordinate sum
    CATALOG_DEGREE whose forms need at most 3 denominator factors; the scan
    time grows with the coordinate sum, so one class keeps a seed from
    changing the cost.  Shapes equal to an anchor, or to the swap of a kept
    shape, are dropped.
    A hit with nu <= 3 comes before every 4-factor candidate in the canonical
    order, so searching with nu_max 3 finds the same first hit as the
    workload's nu_max 4.
    """
    b_max, a_max, _ = W.GUESS_BOUNDS
    bounds = {"b_max": b_max, "a_max": a_max, "nu_max": 3}
    anchors = [r.vertices for r in W.guess_anchors() if len(r.vertices[0]) == 2]
    seen = {frozenset(v) for v in anchors}
    seen |= {frozenset(W.swap_xy(v)) for v in anchors}
    catalog = []
    for P in _young_polygons(CATALOG_DEGREE, CATALOG_DEGREE):
        key = frozenset(P.vertices)
        if key in seen or max(map(sum, P.vertices)) != CATALOG_DEGREE:
            continue
        seen |= {key, frozenset(W.swap_xy(P.vertices))}
        rec = ehrhart.compute_record(P, W.GUESS_T, with_guess=True,
                                     bounds=bounds)
        if rec.guess_E is None or rec.guess_Ebar is None:
            continue
        catalog.append({"vertices": sorted(map(list, P.vertices)),
                        "guess": jsonio.ratfun_out(rec.guess_E),
                        "guessInterior": jsonio.ratfun_out(rec.guess_Ebar)})
    return {"T": W.GUESS_T, "bounds": list(W.GUESS_BOUNDS), "catalog": catalog}


def dual_algebra():
    P = LatticePolytope(W.CASE_TRIANGLE, name="case-triangle")
    spans = {}
    for m, mp in W.SPAN_PAIRS:
        dims, _, equals = product_span(P, m, mp)
        spans[f"{m},{mp}"] = [[[d, k] for d, k in sorted(dims.items())], equals]
    swap = GroupElement("swap", W.SWAP)
    return {
        "generation": generation_check(P, 2, W.GENERATION_T).to_json(),
        "product_span": spans,
        "character": [jsonio.qpoly_out(graded_character(P, swap, m))
                      for m in range(W.CHARACTER_M + 1)],
    }


def main():
    out = {"dilates": dilates(), "guess_search": guess_catalog(),
           "dual_algebra": dual_algebra()}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(out['guess_search']['catalog'])} catalog shapes")


if __name__ == "__main__":
    main()
