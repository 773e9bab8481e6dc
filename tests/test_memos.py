"""Every memo of the package is a functools cache listed in one registry,
``acmgenera._MEMOS``, and ``clear_caches()`` empties each of them, also
while the benchmark's tracer has swapped module attributes for wrappers."""
import importlib
import pkgutil
import random
import sys
import threading
from math import comb

import acmgenera
from acmgenera import (
    TreeFamily,
    acm_genera,
    clear_caches,
    genus_search,
    max_oseq,
    min_acm_regularity,
    ranges,
)
from acmgenera._kernels import length_profile, shortest_length
from acmgenera.ranges import max_genus
from conftest import benchmark_tracer


def test_every_cached_function_is_registered():
    names = [f"acmgenera.{info.name}" for info in pkgutil.iter_modules(acmgenera.__path__)]
    modules = [acmgenera, *map(importlib.import_module, names)]
    cached = {
        (module.__name__, name)
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_clear") and obj not in acmgenera._MEMOS
    }
    assert cached == set()
    assert all(hasattr(memo, "cache_info") for memo in acmgenera._MEMOS)


def _fill_every_memo():
    acm_genera(40)
    min_acm_regularity(30, 100)
    genus_search(25, TreeFamily.fixed_both(15, 6))  # a short length, walked directly
    genus_search(108, TreeFamily.fixed_both(20, 16))  # a long length
    max_oseq(40, 10)
    length_profile(20)


def _assert_cleared_from_full():
    clear_caches()
    _fill_every_memo()
    sizes = [memo.cache_info().currsize for memo in acmgenera._MEMOS]
    assert all(sizes), sizes  # the calls above reach every memo
    clear_caches()
    assert [memo.cache_info().currsize for memo in acmgenera._MEMOS] == [0] * len(sizes)


def test_clear_caches_empties_every_memo():
    _assert_cleared_from_full()


def test_clear_caches_empties_every_memo_under_the_benchmark_tracer():
    # the traced benchmark passes call clear_caches() with the wrappers in place
    tracer = benchmark_tracer().Tracer()
    tracer.install()
    try:
        _assert_cleared_from_full()
        assert tracer.spans  # the wrappers were called
    finally:
        tracer.uninstall()


def test_threads_resuming_one_profile_and_one_row_agree_with_one_thread():
    # _max_row and _profile_prefix extend a shared cached object under its
    # own lock; a lost or doubled step would change an answer.  Every thread
    # extends the rows in one order, a few multiplicities per call, and asks
    # for the profile queries in an order of its own
    rows = [(d, s) for s in range(2, 61) for d in range(max(20, 2 * s), 121, 5)]
    queries = [(d, g) for d in (40, 60) for g in range(0, comb(d - 1, 2) + 1, 7)]
    clear_caches()
    expected = [max_genus(d, s) for d, s in rows], [shortest_length(d, g) for d, g in queries]
    orders = [random.Random(i).sample(queries, len(queries)) for i in range(6)]
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def ask(i):
        start.wait()
        tops = [max_genus(d, s) for d, s in rows]
        lengths = {q: shortest_length(*q) for q in orders[i]}
        results[i] = tops, [lengths[q] for q in queries]

    clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * len(orders)
    # two unlocked extensions of one row would both run, past the last degree asked
    last = {s: d for d, s in rows}
    assert {s: len(ranges._row(s).genera) for s in last} == {s: d - s + 1 for s, d in last.items()}
