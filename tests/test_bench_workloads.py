"""One traced round of every benchmark workload runs correctly.

A benchmark run reads ``correct: false`` when an operation's check fails or
when a layer that must (or must not) fire on a workload does not (or does).
This runs each workload once at seed 1, in process and with the tracer
installed, so such a failure shows in the tests.  Nothing under bench/ is
changed.
"""

import importlib.util
import json
import os
import sys

import pytest

from qehrhart import ehrhart

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["dilates", "guess-search", "dual-algebra"])
def test_traced_round(workload, tmp_path):
    tracer, workloads, run = load("tracer"), load("workloads"), load("run")
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    ehrhart.clear_memo()
    tr = tracer.install()
    try:
        ops = workloads.build(workload, 1, str(tmp_path), expected)
        errors = []
        for i, op in enumerate(ops):
            tr.op_id = i
            value = op.run()
            tr.op_id = "check"
            errors.append(op.check(value))
    finally:
        tr.uninstall()
        ehrhart.clear_memo()
    assert [e for e in errors if e is not None] == []
    calls = {k: v["calls"] for k, v in
             tr.layer_metrics(set(range(len(ops))) | {"setup"}).items()}
    assert [n for n in run.MUST_FIRE[workload] if not calls[n]] == []
    assert [n for n in run.MUST_NOT_FIRE.get(workload, ()) if calls[n]] == []
