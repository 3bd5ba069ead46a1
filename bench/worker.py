"""One round of a workload in a fresh interpreter.

Started by bench/run.py as

    python3 bench/worker.py WORKLOAD SEED MODE SPAWNED_AT OUT

where SPAWNED_AT is the parent's ``time.monotonic()`` just before the start
(the clock is system-wide, so set-up time counts interpreter start).  The
round imports the package, generates the inputs, runs every operation once
in order and writes a JSON result to OUT.  MODE is ``plain``, ``traced``
(every layer is wrapped before the inputs are built) or ``setup`` (stop
after set-up, to sample set-up time alone).  Every round first checks that
no wrapper is in place.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    name, seed, mode, spawned_at, out_path = argv
    seed, trace, spawned_at = int(seed), mode == "traced", float(spawned_at)
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    stray = tracer.wrapped_sites()
    if stray:
        raise RuntimeError(f"wrappers present before the round: {stray}")
    tr = tracer.install() if trace else None
    workdir = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ops = workloads.build(name, seed, workdir, expected)
        setup_s = time.monotonic() - spawned_at
        digest = hashlib.sha256()
        for fname in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
        results = []
        for i, op in enumerate(ops if mode != "setup" else ()):
            if tr:
                tr.op_id = i
            error = None
            t0 = time.perf_counter()
            try:
                value = op.run()
            except Exception as exc:  # an op failure is counted, not fatal
                value, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tr:
                tr.op_id = "check"
            if error is None:
                try:
                    error = op.check(value)
                except Exception as exc:
                    error = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
            results.append([op.kind, op.primary, dt, error])
    finally:
        if tr:
            tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"setup_s": setup_s, "ops": results,
           "inputs_sha256": digest.hexdigest(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tr:
        left = tracer.wrapped_sites()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left}")
        op_ids = set(range(len(ops)))
        agg = tr.layer_metrics(op_ids | {"setup"})
        out["layers"] = tracer.per_layer_values(agg)
        out["calls"] = {k: v["calls"] for k, v in agg.items()}
        # shares of the ops' time leave set-up out
        out["op_self_s"] = {k: v["self_ns"] / 1e9
                            for k, v in tr.layer_metrics(op_ids).items()}
        out["spans"] = len(tr.spans)
        tr.write_spans(os.path.join(ROOT, ".bench_out", f"spans-{name}.jsonl"))
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
