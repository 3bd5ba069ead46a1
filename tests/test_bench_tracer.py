"""The benchmark's tracer resolves every traced name in the package.

Every benchmark round, traced or not, resolves the tracer's targets first,
so a renamed or removed target fails every run; this shows it in the tests.
"""

import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(BENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_target_resolves():
    tracer = load_tracer()
    sites = tracer.patch_sites()
    assert {name for *_, name in sites} == {name for name, *_ in tracer.TARGETS}
    assert tracer.wrapped_sites() == []
