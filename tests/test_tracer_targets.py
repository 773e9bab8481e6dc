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
    # or more than once would make them read 0 or double without failing.
    # Step 3 asks _kernels.length_hits at every length, short ones included,
    # so search_fixed_both is traced at no degree, not even at d = 15, whose
    # step 3 holds a pending value at a short length.  A classification
    # builds no certificate: each read of its gaps calls certified_gaps once,
    # outside the classification's span
    tracer_module = benchmark_tracer()
    name_of, parent_of = tracer_module.NAME, tracer_module.PARENT
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for d in (15, 40, 100):
            tracer.spans.clear()
            cls = acmgenera.acm_genera(d)
            names = [span[name_of] for span in tracer.spans]
            (top,) = [i for i, name in enumerate(names) if name == "search.acm_genera"]
            (i,) = [i for i, name in enumerate(names) if name == "continuity.certain_genera"]
            assert tracer.spans[i][parent_of] == top, d
            assert "ranges.certified_gaps" not in names, d
            assert "kernels.search_fixed_both" not in names, d
            for reads in (1, 2):
                assert cls.gaps, d
                spans = [span for span in tracer.spans if span[name_of] == "ranges.certified_gaps"]
                assert len(spans) == reads and all(span[parent_of] == -1 for span in spans), (d, reads)
    finally:
        tracer.uninstall()
