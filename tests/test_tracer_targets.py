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


def test_one_classification_traces_each_step_once_under_its_span():
    # the per-layer metrics read these spans; a step called by another name
    # or more than once would make them read 0 or double without failing
    tracer_module = benchmark_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for d in (40, 100):
            tracer.spans.clear()
            acmgenera.acm_genera(d)
            names = [span[tracer_module.NAME] for span in tracer.spans]
            (top,) = [i for i, name in enumerate(names) if name == "search.acm_genera"]
            for step in ("ranges.certified_gaps", "continuity.certain_genera"):
                (i,) = [i for i, name in enumerate(names) if name == step]
                assert tracer.spans[i][tracer_module.PARENT] == top, (d, step)
            assert "kernels.search_fixed_both" in names, d
    finally:
        tracer.uninstall()
