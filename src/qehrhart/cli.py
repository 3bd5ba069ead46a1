"""Command-line entry points.

Exit codes: 0 success, 1 comparison or property failure, 2 input error
(unreadable or malformed file, unknown flag, out-of-range value),
3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import isqrt
from multiprocessing import Pool

from . import corpora, jsonio
from .ehrhart import (check_dilation, check_join, check_product,
                      classical_check, compute_record, iq, series_E)
from .equivariant import (GroupElement, NotASymmetryError, fixed_point_count,
                          graded_character)
from .harmonics import InconsistencyError, closure_check
from .modp import beta_bound, closure_check_modp
from .polytope import LatticePolytope, PointLocus
from .posets import all_posets, stanley_transfer, chain_polytope, order_polytope
from .qseries import QPoly, denominator_search
from .halgebra import chain_order_equality


class InputError(Exception):
    """Bad input: ``main`` prints ``error: <message>`` and returns 2."""


def _load(path, reader, what):
    """``reader`` applied to the JSON in ``path``."""
    try:
        with open(path) as fh:
            return reader(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"bad {what} file: {exc}") from None


def _emit(obj, out):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _map(fn, items, jobs):
    """[fn(x) for x in items], in a pool of ``jobs`` processes if jobs > 1."""
    if jobs > 1:
        with Pool(jobs) as pool:
            return pool.map(fn, items)
    return [fn(x) for x in items]


def _cached_record(args, P, config, **kwargs):
    """The record cached under (P, T, config), or a freshly computed one.

    A fresh record is stored; either way the input file names it, not the
    cache.
    """
    cache = jsonio.RecordCache(args.cache)
    key = cache.key(P, args.max_t, config)
    rec = cache.load(key)
    if rec is None or rec.vertices != P.vertices:
        rec = compute_record(P, args.max_t, **kwargs)
        cache.store(key, rec)
    rec.name = P.name or "polytope"
    return rec


def cmd_compute(args, interior_only=False):
    P = _load(args.polytope, jsonio.polytope_in, "polytope")
    obj = jsonio.record_out(_cached_record(args, P, {"command": "compute"}))
    if interior_only:
        obj = {"polytope": obj["polytope"], "T": obj["T"],
               "iqInterior": obj["iqInterior"]}
    _emit(obj, args.out)
    return 0


def cmd_interior(args):
    return cmd_compute(args, interior_only=True)


def cmd_guess(args):
    P = _load(args.polytope, jsonio.polytope_in, "polytope")
    bounds = {k: v for k, v in (("b_max", args.den_b_max),
                                ("a_max", args.den_a_max),
                                ("nu_max", args.nu_max)) if v is not None}
    rec = _cached_record(args, P, {"command": "guess", "bounds": bounds},
                         with_guess=True, bounds=bounds or None)
    _emit(jsonio.record_out(rec), args.out)
    return 0


def _table_row(job):
    corpus, index, T = job
    row = corpora.CORPORA[corpus][index]
    key, row_form, provenance = row.key, row.form, row.provenance
    S = series_E(row.polytope(), T)
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
    default_t = {"fig1": 10, "fig2": 10, "fig3": 10,
                 "closedforms": 8, "extradata": 6}[args.corpus]
    T = args.max_t if args.max_t is not None else default_t
    jobs = [(args.corpus, i, T)
            for i in range(len(corpora.CORPORA[args.corpus]))]
    results = _map(_table_row, jobs, args.jobs)
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
    results = _map(_closure_trial, seeds, args.jobs)
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


def _modp_closure(args, primes):
    bad = 0
    for p in primes:
        jobs = [(args.seed * 7919 + i, p) for i in range(args.trials)]
        results = _map(_modp_trial, jobs, args.jobs)
        fails = results.count(False)
        bad += fails
        print(f"modp closure p={p}: {len(results)} trials, {fails} failures")
    return 1 if bad else 0


def _verify_modp(args):
    return _modp_closure(args, [args.prime] if args.prime else [2, 3, 5])


def _verify_equivariant(args):
    bad = 0
    for b in (1, 2, 3):
        seg = LatticePolytope([(-b,), (b,)])
        neg = GroupElement("neg", ((-1,),))
        for m in range(0, 4):
            ch = graded_character(seg, neg, m)
            if ch(1) != fixed_point_count(seg, neg, m) or graded_character(
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


SUITES = {
    "closure": _verify_closure,
    "identities": _verify_identities,
    "chainorder": _verify_chainorder,
    "modp": _verify_modp,
    "equivariant": _verify_equivariant,
    "classical": _verify_classical,
}


def cmd_verify(args):
    return SUITES[args.what](args)


def cmd_equivariant(args):
    P = _load(args.polytope, jsonio.polytope_in, "polytope")
    elements = _load(args.group, jsonio.group_in, "group")
    try:
        out = {g.id: [jsonio.qpoly_out(graded_character(P, g, m))
                      for m in range(args.max_m + 1)] for g in elements}
    except NotASymmetryError as exc:
        raise InputError(f"bad group file: {exc}") from None
    _emit(out, args.out)
    return 0


def cmd_poset(args):
    poset = _load(args.poset, jsonio.poset_in, "poset")
    if args.kind == "order":
        _emit(jsonio.polytope_out(order_polytope(poset)), args.out)
    elif args.kind == "chain":
        _emit(jsonio.polytope_out(chain_polytope(poset)), args.out)
    else:  # transfer
        try:
            g = [int(x) for x in args.point.split(",")]
            img = stanley_transfer(poset, g)
        except ValueError as exc:
            raise InputError(exc) from None
        _emit({"point": g, "image": list(img)}, args.out)
    return 0


def cmd_modp(args):
    if args.kind == "beta":
        print(beta_bound(args.r, args.rp, args.prime))
        return 0
    return _modp_closure(args, [args.prime or 3])


def _int_where(test, what):
    """An argparse type: an integer passing ``test``, else exit 2."""
    def parse(text):
        try:
            if test(int(text)):
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_NAT = _int_where(lambda n: n >= 0, "an integer >= 0")
_POS = _int_where(lambda n: n >= 1, "an integer >= 1")
POLYTOPE = ("polytope", {})
MAX_T = ("--max-t", {"type": _NAT, "default": 10})
SUITE_T = ("--max-t", {"type": _NAT})  # None: the corpus's or suite's own T
MAX_M = ("--max-m", {"type": _NAT})
CACHE = ("--cache", {})
OUT = ("--out", {})
JOBS = ("--jobs", {"type": _POS, "default": 1})
SEED = ("--seed", {"type": int, "default": 0})
TRIALS = ("--trials", {"type": _NAT, "default": 100})
# 0 is characteristic 0 for `modp beta` and the default prime(s) elsewhere;
# below 2^31 trial division takes at most 46,341 steps
PRIME = ("--prime", {"type": _int_where(
    lambda n: n == 0 or 1 < n < 2 ** 31
    and all(n % d for d in range(2, isqrt(n) + 1)),
    "0 or a prime below 2^31"), "default": 0})
BETA_ARG = {"type": _POS, "nargs": "?", "default": 2}

# subcommand: (help, handler, arguments); each takes only what it reads,
# except that compute and guess accept and ignore --jobs, which the
# benchmark passes them
COMMANDS = {
    "compute": ("per-dilate graded counts to order T", cmd_compute,
                [POLYTOPE, MAX_T, CACHE, OUT, JOBS]),
    "interior": ("interior graded counts to order T", cmd_interior,
                 [POLYTOPE, MAX_T, CACHE, OUT]),
    "guess": ("compute counts and search a rational form", cmd_guess,
              [POLYTOPE, MAX_T, ("--den-b-max", {"type": _POS}),
               ("--den-a-max", {"type": _NAT}), ("--nu-max", {"type": _POS}),
               CACHE, OUT, JOBS]),
    "table": ("reproduce a built-in corpus", cmd_table,
              [("corpus", {"choices": list(corpora.CORPORA)}), SUITE_T, JOBS,
               ("--verbose", {"action": "store_true"})]),
    "verify": ("run a property suite", cmd_verify,
               [("what", {"choices": list(SUITES)}), TRIALS, SEED, JOBS,
                PRIME, SUITE_T, MAX_M]),
    "equivariant": ("graded characters of symmetries", cmd_equivariant,
                    [POLYTOPE, ("group", {}),
                     ("--max-m", {"type": _NAT, "default": 4}), OUT]),
    "poset": ("poset polytopes and the transfer map", cmd_poset,
              [("kind", {"choices": ["order", "chain", "transfer"]}),
               ("poset", {}), OUT,
               ("--point", {"default": "",
                            "help": "comma-separated values for transfer"})]),
    "modp": ("positive-characteristic checks", cmd_modp,
             [("kind", {"choices": ["closure", "beta"]}), ("r", BETA_ARG),
              ("rp", BETA_ARG), PRIME, TRIALS, SEED, JOBS]),
}


@functools.cache
def parser():
    """The argument parser, built once per process (argparse keeps no state
    between calls); each subcommand dispatches through ``run``."""
    ap = argparse.ArgumentParser(
        prog="qehrhart",
        description="exact graded lattice-point series of lattice polytopes")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(run=handler)
    return ap


def main(argv=None):
    args = parser().parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
