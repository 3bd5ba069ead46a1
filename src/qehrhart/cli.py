"""Command-line entry points.

Exit codes: 0 success, 1 comparison/property failure, 2 input parse error,
3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from multiprocessing import Pool

from . import corpora, jsonio
from .ehrhart import (check_dilation, check_join, check_product,
                      classical_check, compute_record, iq, series_E)
from .equivariant import GroupElement, graded_character
from .harmonics import InconsistencyError, closure_check
from .modp import beta_bound, closure_check_modp
from .polytope import LatticePolytope, PointLocus
from .posets import all_posets, stanley_transfer, chain_polytope, order_polytope
from .qseries import QPoly, denominator_search
from .halgebra import chain_order_equality


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def _load_polytope(path):
    try:
        return jsonio.polytope_in(_load_json(path))
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: bad polytope file: {exc}", file=sys.stderr)
        sys.exit(2)


def _emit(obj, out):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _bounds_from_args(args):
    b = {}
    if args.den_b_max is not None:
        b["b_max"] = args.den_b_max
    if args.den_a_max is not None:
        b["a_max"] = args.den_a_max
    if args.nu_max is not None:
        b["nu_max"] = args.nu_max
    return b or None


def cmd_compute(args, interior_only=False):
    P = _load_polytope(args.polytope)
    cache = jsonio.RecordCache(args.cache)
    key = cache.key(P, args.max_t, {"command": "compute"})
    rec = cache.load(key)
    if rec is None or rec.vertices != P.vertices:
        try:
            rec = compute_record(P, args.max_t)
        except InconsistencyError as exc:
            print(f"internal inconsistency: {exc}", file=sys.stderr)
            return 3
        cache.store(key, rec)
    rec.name = P.name or "polytope"  # the input names it, not the cache
    obj = jsonio.record_out(rec)
    if interior_only:
        obj = {"polytope": obj["polytope"], "T": obj["T"],
               "iqInterior": obj["iqInterior"]}
    _emit(obj, args.out)
    return 0


def cmd_guess(args):
    P = _load_polytope(args.polytope)
    bounds = _bounds_from_args(args)
    try:
        rec = compute_record(P, args.max_t, with_guess=True, bounds=bounds)
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    cache = jsonio.RecordCache(args.cache)
    cache.store(cache.key(P, args.max_t, {"command": "guess",
                                          "bounds": bounds or {}}), rec)
    _emit(jsonio.record_out(rec), args.out)
    return 0


def _table_row(job):
    key, verts, form_obj, provenance, T = job
    row_form = jsonio.ratfun_in(form_obj) if form_obj else None
    P = LatticePolytope(verts, name=key)
    S = series_E(P, T)
    if row_form is None:
        return (key, "unknown", [jsonio.qpoly_out(c) for c in S.coeffs])
    ok = row_form.expand(T) == S
    if provenance == "refuted":
        return (key, "refuted-guess" if not ok else "unexpectedly-consistent", None)
    if provenance == "guess":
        return (key, "truncation-ok" if ok else "truncation-mismatch", None)
    if not ok:
        return (key, "mismatch", None)
    # re-derive the form by searching with bounds taken from the stored one
    b_max = max(b for (b, _) in row_form.denom_factors)
    a_max = max(a for (_, a) in row_form.denom_factors)
    nu = len(row_form.denom_factors)
    sum_b = sum(b for (b, _) in row_form.denom_factors)
    t_deg = row_form.numerator.t_degree()
    if T >= t_deg + sum_b + 2:
        hits = denominator_search(S, b_max, a_max, nu, t_deg_max=t_deg,
                                  first_only=True)
        if not hits or hits[0].expand(T) != S:
            return (key, "guess-mismatch", None)
        return (key, "ok", None)
    return (key, "ok-expansion-only", None)


def cmd_table(args):
    if args.corpus not in corpora.CORPORA:
        print(f"error: unknown corpus {args.corpus}", file=sys.stderr)
        return 2
    rows = corpora.CORPORA[args.corpus]
    default_t = {"fig1": 10, "fig2": 10, "fig3": 10,
                 "closedforms": 8, "extradata": 6}[args.corpus]
    T = args.max_t if args.max_t is not None else default_t
    jobs = [(r.key, r.vertices,
             jsonio.ratfun_out(r.form) if r.form else None, r.provenance, T)
            for r in rows]
    if args.jobs > 1:
        with Pool(args.jobs) as pool:
            results = pool.map(_table_row, jobs)
    else:
        results = [_table_row(j) for j in jobs]
    failures = 0
    for key, status, payload in results:
        print(f"{args.corpus}/{key}: {status}")
        if status in ("mismatch", "guess-mismatch", "truncation-mismatch"):
            failures += 1
        if payload is not None and args.verbose:
            print("  truncation:", payload)
    print(f"{args.corpus}: {len(results)} rows, {failures} failures")
    return 1 if failures else 0


def _random_locus(rng, max_size=8, lo=-3, hi=3):
    size = rng.randint(1, max_size)
    pts = set()
    while len(pts) < size:
        pts.add((rng.randint(lo, hi), rng.randint(lo, hi)))
    return PointLocus(2, sorted(pts))


def _closure_trial(seed):
    rng = random.Random(seed)
    Z = _random_locus(rng)
    Zp = _random_locus(rng)
    holds, _, _ = closure_check(Z, Zp)
    return holds


def _modp_trial(job):
    seed, p = job
    rng = random.Random(seed)
    cap = min(5, p * p)  # loci live in F_p^2
    size1 = rng.randint(1, cap)
    size2 = rng.randint(1, cap)
    Z = set()
    while len(Z) < size1:
        Z.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
    Zp = set()
    while len(Zp) < size2:
        Zp.add((rng.randint(0, p - 1), rng.randint(0, p - 1)))
    return closure_check_modp(sorted(Z), sorted(Zp), p)


def _verify_closure(args):
    seeds = [args.seed * 100003 + i for i in range(args.trials)]
    if args.jobs > 1:
        with Pool(args.jobs) as pool:
            results = pool.map(_closure_trial, seeds)
    else:
        results = [_closure_trial(s) for s in seeds]
    bad = results.count(False)
    print(f"closure: {len(results)} trials, {bad} failures")
    return 1 if bad else 0


def _verify_identities(args):
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)], name="unit-square")
    d1 = LatticePolytope([(1, 0), (0, 1)], name="simplex-1d")
    T = args.max_t if args.max_t is not None else 8
    checks = [
        ("dilation(square, 2)", check_dilation(square, 2, T)),
        ("dilation(simplex, 3)", check_dilation(d1, 3, T)),
        ("product(square, simplex)", check_product(square, d1, T)),
        ("join(square, simplex)", check_join(square, d1, T)),
    ]
    bad = 0
    for name, ok in checks:
        print(f"identities: {name}: {'pass' if ok else 'FAIL'}")
        bad += not ok
    return 1 if bad else 0


def _verify_chainorder(args):
    M = args.max_m if args.max_m is not None else 3
    bad = 0
    total = 0
    for n in range(1, 5):
        for i, poset in enumerate(all_posets(n)):
            ok = chain_order_equality(poset, M)
            total += 1
            if not ok:
                bad += 1
                print(f"chainorder: poset n={n} #{i}: FAIL")
    print(f"chainorder: {total} posets checked to M={M}, {bad} failures")
    return 1 if bad else 0


def _verify_modp(args):
    primes = [args.prime] if args.prime else [2, 3, 5]
    bad = 0
    for p in primes:
        jobs = [(args.seed * 7919 + i, p) for i in range(args.trials)]
        if args.jobs > 1:
            with Pool(args.jobs) as pool:
                results = pool.map(_modp_trial, jobs)
        else:
            results = [_modp_trial(j) for j in jobs]
        fails = results.count(False)
        bad += fails
        print(f"modp closure p={p}: {len(results)} trials, {fails} failures")
    return 1 if bad else 0


def _verify_equivariant(args):
    bad = 0
    for b in (1, 2, 3):
        seg = LatticePolytope([(-b,), (b,)])
        neg = GroupElement("neg", ((-1,),))
        for m in range(0, 4):
            ch = graded_character(seg, neg, m)
            fixed = sum(1 for z in seg.lattice_points(m) if z[0] == -z[0])
            if ch(1) != fixed or graded_character(
                    seg, GroupElement("e", ((1,),)), m) != iq(seg, m):
                print(f"equivariant: segment b={b} m={m}: FAIL")
                bad += 1
    tri = LatticePolytope([(0, 0), (1, 2), (2, 1)])
    swap = GroupElement("swap", ((0, 1), (1, 0)))
    if graded_character(tri, swap, 1) != QPoly([1, 0, 1]):
        print("equivariant: triangle swap: FAIL")
        bad += 1
    print(f"equivariant: {'pass' if not bad else f'{bad} failures'}")
    return 1 if bad else 0


def _verify_classical(args):
    rows = corpora.FIG1 + corpora.CLOSEDFORMS
    bad = 0
    for row in rows:
        try:
            classical_check(row.polytope())
        except InconsistencyError as exc:
            print(f"classical: {row.key}: FAIL ({exc})")
            bad += 1
    print(f"classical: {len(rows)} polytopes, {bad} failures")
    return 1 if bad else 0


def cmd_verify(args):
    suites = {
        "closure": _verify_closure,
        "identities": _verify_identities,
        "chainorder": _verify_chainorder,
        "modp": _verify_modp,
        "equivariant": _verify_equivariant,
        "classical": _verify_classical,
    }
    if args.what not in suites:
        print(f"error: unknown suite {args.what}", file=sys.stderr)
        return 2
    return suites[args.what](args)


def cmd_equivariant(args):
    P = _load_polytope(args.polytope)
    try:
        elements = jsonio.group_in(_load_json(args.group))
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: bad group file: {exc}", file=sys.stderr)
        return 2
    M = args.max_m if args.max_m is not None else 4
    out = {}
    for g in elements:
        out[g.id] = [jsonio.qpoly_out(graded_character(P, g, m))
                     for m in range(M + 1)]
    _emit(out, args.out)
    return 0


def cmd_poset(args):
    try:
        poset = jsonio.poset_in(_load_json(args.poset))
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: bad poset file: {exc}", file=sys.stderr)
        return 2
    if args.kind == "order":
        _emit(jsonio.polytope_out(order_polytope(poset)), args.out)
    elif args.kind == "chain":
        _emit(jsonio.polytope_out(chain_polytope(poset)), args.out)
    else:  # transfer
        try:
            g = [int(x) for x in args.point.split(",")]
            img = stanley_transfer(poset, g)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _emit({"point": g, "image": list(img)}, args.out)
    return 0


def cmd_modp(args):
    if args.kind == "beta":
        print(beta_bound(args.r, args.rp, args.prime or 0))
        return 0
    # closure trials
    p = args.prime or 3
    jobs = [(args.seed * 7919 + i, p) for i in range(args.trials)]
    results = [_modp_trial(j) for j in jobs]
    fails = results.count(False)
    print(f"modp closure p={p}: {len(results)} trials, {fails} failures")
    return 1 if fails else 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="qehrhart",
        description="exact graded lattice-point series of lattice polytopes")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-t", type=int, default=10)
        p.add_argument("--max-m", type=int, default=None)
        p.add_argument("--den-b-max", type=int, default=None)
        p.add_argument("--den-a-max", type=int, default=None)
        p.add_argument("--nu-max", type=int, default=None)
        p.add_argument("--prime", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--out", default=None)
        p.add_argument("--cache", default=None)
        p.add_argument("--verbose", action="store_true")

    pc = sub.add_parser("compute", help="per-dilate graded counts to order T")
    pc.add_argument("polytope")
    common(pc)

    pi = sub.add_parser("interior", help="interior graded counts to order T")
    pi.add_argument("polytope")
    common(pi)

    pg = sub.add_parser("guess", help="compute counts and search a rational form")
    pg.add_argument("polytope")
    common(pg)

    pt = sub.add_parser("table", help="reproduce a built-in corpus")
    pt.add_argument("corpus",
                    choices=["fig1", "fig2", "fig3", "closedforms", "extradata"])
    common(pt)
    pt.set_defaults(max_t=None)

    pv = sub.add_parser("verify", help="run a property suite")
    pv.add_argument("what", choices=["closure", "identities", "chainorder",
                                     "modp", "equivariant", "classical"])
    common(pv)
    pv.set_defaults(max_t=None)

    pe = sub.add_parser("equivariant", help="graded characters of symmetries")
    pe.add_argument("polytope")
    pe.add_argument("group")
    common(pe)

    pp = sub.add_parser("poset", help="poset polytopes and the transfer map")
    pp.add_argument("kind", choices=["order", "chain", "transfer"])
    pp.add_argument("poset")
    pp.add_argument("--point", default="", help="comma-separated values for transfer")
    common(pp)

    pm = sub.add_parser("modp", help="positive-characteristic checks")
    pm.add_argument("kind", choices=["closure", "beta"])
    pm.add_argument("r", type=int, nargs="?", default=2)
    pm.add_argument("rp", type=int, nargs="?", default=2)
    common(pm)

    args = ap.parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "interior":
            return cmd_compute(args, interior_only=True)
        if args.command == "guess":
            return cmd_guess(args)
        if args.command == "table":
            return cmd_table(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "equivariant":
            return cmd_equivariant(args)
        if args.command == "poset":
            return cmd_poset(args)
        if args.command == "modp":
            return cmd_modp(args)
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
