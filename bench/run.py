"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload dilates --seed 1 --seconds 30 --trace 0

Runs rounds of the workload (bench/worker.py), one at a time, each in a
fresh single-threaded interpreter, until the next round would end after
``--seconds`` (at least two rounds).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics, the tracing overhead, the tracer
self-checks and the predicted layer shares.  The full result record is
printed and written to .bench_out/; the last line of standard output is
the summary JSON object.  Exit code 0 means the benchmark ran, whatever the
programs' outputs were; ``correct`` says whether they were.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("dilates", "guess-search", "dual-algebra")
MIN_ROUNDS = 2
SETUP_SAMPLES = 5   # set-up-only rounds per run, beside the full rounds
RUN_LIMIT_S = 170   # a run gives up (exit code 1) rather than pass 180 s

# end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MiB"}

# Workloads on which each wrapper must fire at least once.
MUST_FIRE = {
    "dilates": ("polytope.LatticePolytope", "polytope.lattice_points",
                "polytope.interior_lattice_points", "polytope.hull_coords",
                "harmonics.hilbert_qpoly", "linalg.solve", "ehrhart.iq",
                "ehrhart.iq_interior", "ehrhart.compute_record",
                "ehrhart.check_dilation", "jsonio.RecordCache.store",
                "jsonio.RecordCache.load", "cli.main"),
    "guess-search": ("polytope.LatticePolytope", "polytope.lattice_points",
                     "qseries.denominator_search", "qseries.fit_numerator",
                     "qseries.RatFun2.expand", "ehrhart.guess", "cli.main"),
    "dual-algebra": ("polytope.LatticePolytope", "harmonics.buchberger_moeller",
                     "harmonics.gr_component", "harmonics.harmonic_basis",
                     "harmonics.closure_check", "linalg.rref",
                     "linalg.nullspace", "linalg.solve", "linalg.Echelon.add",
                     "linalg.Echelon.contains", "halgebra.component",
                     "halgebra.product_span", "halgebra.generation_check",
                     "modp.closure_check_modp", "modp.harmonic_basis_modp",
                     "equivariant.graded_character"),
}
MUST_NOT_FIRE = {"guess-search": ("harmonics.hilbert_qpoly",)}

PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "points": "points",
                   "max_points": "points", "cells": "cells", "bytes": "bytes",
                   "accept_ratio": "ratio", "hit_ratio": "ratio",
                   "fresh_ratio": "ratio", "overhead_frac": "ratio"}


# -- environment record (read-only) -------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose:
        return loose.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qehrhart")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment():
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
              if ln.startswith("model name")]
    return {
        "nproc": sum(1 for ln in cpuinfo.splitlines()
                     if ln.startswith("processor")),
        "cpu_model": models[0] if models else None,
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "loadavg_before": (_read("/proc/loadavg") or "").split()[:3],
    }


# -- rounds -------------------------------------------------------------------

def run_round(workload, seed, mode, deadline):
    path = os.path.join(OUT, f"round-{os.getpid()}.json")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("QEHRHART_CACHE", None)   # rounds must not write outside the checkout
    timeout = max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(seed),
         mode, repr(spawned_at), path],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with {proc.returncode}:\n{proc.stderr}")
    with open(path) as fh:
        out = json.load(fh)
    os.unlink(path)
    out["wall_s"] = sum(op[2] for op in out["ops"])
    out["trace"] = mode == "traced"
    return out


def run_rounds(workload, seed, seconds, trace):
    """Set-up-only samples, then full rounds (alternating traced ones)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [run_round(workload, seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES)]
    rounds = []
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS:
            typical = statistics.median(r["round_s"] for r in rounds)
            if elapsed + typical > seconds:
                break
        mode = "traced" if trace and len(rounds) % 2 == 1 else "plain"
        t0 = time.monotonic()
        r = run_round(workload, seed, mode, deadline)
        r["round_s"] = time.monotonic() - t0
        rounds.append(r)
    return setups, rounds


# -- metrics ------------------------------------------------------------------

def tail(samples):
    """Value at the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def end_to_end(setups, rounds):
    primary = [op[2] for r in rounds for op in r["ops"] if op[1]]
    t, pct, n = tail(primary)
    setups = [r["setup_s"] for r in setups + rounds]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_s": statistics.median(primary),
        "op_tail_s": t,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    extra = {"op_tail_percentile": pct, "op_samples": n,
             "round_wall_s": [r["wall_s"] for r in rounds],
             "setup_samples_s": setups}
    warm = [sum(op[2] for op in r["ops"] if op[0] == "compute_warm")
            for r in rounds]
    if any(warm):
        extra["cache_read_s"] = statistics.median(warm)
    return metrics, extra


def predictions(workload, traced):
    """Predicted layer shares of the traced ops' time, against the measured ones."""
    def share(names):
        return statistics.median(
            sum(r["op_self_s"][n] for n in names) / r["wall_s"] for r in traced)

    names = list(traced[0]["op_self_s"])
    calls = statistics.median(r["calls"]["harmonics.hilbert_qpoly"]
                              for r in traced)
    if workload == "dilates":
        s = share(["harmonics.hilbert_qpoly"])
        return [{"claim": "harmonics.hilbert_qpoly is the majority of self time",
                 "share": s, "confirmed": s > 0.5}]
    if workload == "guess-search":
        s = share(["qseries.fit_numerator"])
        return [{"claim": "qseries.fit_numerator is the majority of self time",
                 "share": s, "confirmed": s > 0.5},
                {"claim": "harmonics.hilbert_qpoly has 0 calls",
                 "calls": calls, "confirmed": calls == 0}]
    group = [n for n in names if n.startswith(("harmonics.", "linalg.", "halgebra."))
             and n != "harmonics.hilbert_qpoly"]
    s = share(group)
    return [{"claim": "harmonics without count-mode BM, linalg and halgebra "
                      "are the majority of self time",
             "share": s, "confirmed": s > 0.5},
            {"claim": "harmonics.hilbert_qpoly has 0 calls "
                      "(halgebra.component cross-checks each component "
                      "against ehrhart.iq)",
             "calls": calls, "confirmed": calls == 0}]


def per_layer(workload, rounds):
    traced = [r for r in rounds if r["trace"]]
    plain = [r for r in rounds if not r["trace"]]
    metrics = {k: statistics.median(r["layers"][k] for r in traced)
               for k in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1)

    def calls(name):
        return statistics.median(r["calls"][name] for r in traced)

    checks = [{"check": f"{name} fires", "calls": calls(name),
               "ok": calls(name) >= 1} for name in MUST_FIRE[workload]]
    checks += [{"check": f"{name} does not fire", "calls": calls(name),
                "ok": calls(name) == 0}
               for name in MUST_NOT_FIRE.get(workload, ())]
    extra = {"spans_per_round": [r["spans"] for r in traced],
             "tracer_checks": checks,
             "predictions": predictions(workload, traced)}
    return metrics, extra


def unit_of(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def main():
    # turn SIGTERM into an exception, so a running round is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qehrhart", "__init__.py")):
        print("error: no qehrhart sources under src/ next to bench/",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    setups, rounds = run_rounds(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    env["loadavg_after"] = (_read("/proc/loadavg") or "").split()[:3]
    failures = [f"round {i}: {op[3]}" for i, r in enumerate(rounds)
                for op in r["ops"] if op[3]]
    # every round of a run must have generated byte-identical inputs
    digests = sorted({r["inputs_sha256"] for r in setups + rounds})
    attempted = sum(len(r["ops"]) for r in rounds)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "rounds": len(rounds),
              "attempted": attempted, "failed": len(failures),
              "ops_failed_frac": len(failures) / attempted,
              "failures": failures[:20], "inputs_sha256": digests}
    if args.trace:
        metrics, extra = per_layer(args.workload, rounds)
        units = {k: unit_of(k) for k in metrics}
        correct = all(c["ok"] for c in extra["tracer_checks"])
    else:
        metrics, extra = end_to_end(setups, rounds)
        units = END_TO_END
        correct = True
    correct = correct and not failures and len(digests) == 1
    record.update(extra)
    record["metrics"] = metrics
    record["correct"] = correct
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
