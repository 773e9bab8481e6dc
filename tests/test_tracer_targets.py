"""The benchmark's tracer wraps package attributes by name, so a moved or
renamed function would break ``perfbench/run.py --trace 1`` while every other
test still passes."""
import importlib

import acmgenera
from conftest import benchmark_tracer


def test_every_tracer_target_resolves_to_a_callable():
    for module, attr, _ in benchmark_tracer().TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_the_bound_cache_statistics_the_benchmark_reads_exist():
    # run.py reads acmgenera.macaulay_bound and clitrace.py acmgenera.macaulay's
    for fn in (acmgenera.macaulay_bound, acmgenera.macaulay.macaulay_bound):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0
