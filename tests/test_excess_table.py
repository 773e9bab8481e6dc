"""The per-excess witness table behind ``search_fixed_both`` at long lengths.

At s >= d//2 + 1 the fixed-(d, s) tree depends only on the excess k = d - s,
so one table of cores per k serves every degree.  These tests hold the table
to the direct walk, to the genus profile's dynamic program, and to the walks
a cold classification made before the table existed.
"""
import random
import threading
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acmgenera
from acmgenera import _kernels, acm_genera, max_genus, min_genus
from acmgenera._kernels import bound_table, length_profile, search_fixed_both


def _long_lengths(d):
    return range(d // 2 + 1, d + 1)


def _whole_range(d, s):
    return range(min_genus(s), max_genus(d, s) + 1)


@lru_cache(maxsize=None)
def _direct(d, s):
    """The direct walk of the fixed-(d, s) tree over its whole genus range."""
    targets = list(_whole_range(d, s))
    found = _kernels._search_impl(d, s, targets, bound_table(d))
    return {g: found[g] for g in targets if g in found}


def _assert_table_matches_direct_walk(degrees):
    # up to d = 40 also s = d//2, the longest short length: the cap at s - 1
    # binds there and the table must not answer (length 1 holds only d = 1)
    for d in degrees:
        for s in range(max(d // 2 + (d > 40), min(d, 2)), d + 1):
            got = search_fixed_both(d, s, _whole_range(d, s))
            assert list(got.items()) == list(_direct(d, s).items()), (d, s)


def _assert_watermark_invariant():
    for k, (mark, known) in _kernels._excess_cache.items():
        assert all(o in known for o in range(mark + 1)), k
        assert mark <= comb(k, 2) and all(0 <= o <= comb(k, 2) for o in known), k


def test_long_lengths_match_the_direct_walk_from_cold():
    # within one degree each length has its own excess, so every request
    # after the clearing is the first for its k
    for d in range(1, 61):
        acmgenera.clear_caches()
        _assert_table_matches_direct_walk([d])


@pytest.mark.parametrize("order", [range(3, 61), range(60, 2, -1)], ids=["ascending", "descending"])
def test_long_lengths_match_the_direct_walk_after_a_warm_up(order):
    acmgenera.clear_caches()
    for d in order:
        acm_genera(d)
    _assert_table_matches_direct_walk(range(1, 61))
    _assert_watermark_invariant()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_requests_sharing_an_excess_answer_as_the_direct_walk(data):
    k = data.draw(st.integers(0, 12), label="k")
    requests = data.draw(
        st.lists(
            st.tuples(
                st.integers(2 * k + 1, 2 * k + 30),
                st.sets(st.integers(-2, comb(k, 2) + 2), max_size=12),
            ),
            min_size=1,
            max_size=8,
        ),
        label="requests",
    )
    acmgenera.clear_caches()
    for d, offsets in requests:
        s = d - k
        targets = sorted(comb(s - 1, 2) + o for o in offsets)
        found = _kernels._search_impl(d, s, targets, bound_table(d))
        expected = [(g, found[g]) for g in targets if g in found]
        assert list(search_fixed_both(d, s, targets).items()) == expected, (d, s, targets)
        _assert_watermark_invariant()


def test_clear_caches_drops_the_excess_table():
    acm_genera(40)
    assert _kernels._excess_cache
    acmgenera.clear_caches()
    assert not _kernels._excess_cache


def _record_walks(monkeypatch):
    """Record step 3's requests and the kernel's walks, each as (k, offsets)."""
    asked, walked = [], []

    def as_excess(d, s, targets):
        return d - s, sorted(g - comb(s - 1, 2) for g in set(targets))

    def search(d, s, targets, _inner=_kernels.search_fixed_both):
        asked.append(as_excess(d, s, targets))
        return _inner(d, s, targets)

    def walk(d, s, targets, bounds, _inner=_kernels._search_impl):
        walked.append(as_excess(d, s, targets))
        return _inner(d, s, targets, bounds)

    monkeypatch.setattr(_kernels, "search_fixed_both", search)
    monkeypatch.setattr(_kernels, "_search_impl", walk)
    return asked, walked


@pytest.mark.parametrize("d, walks", [(30, 8), (57, 13), (100, 17), (150, 20)])
def test_cold_classification_walks_what_step_3_asks(monkeypatch, d, walks):
    # a cold acm_genera asks each excess once, so the table walks exactly the
    # offsets step 3 asks for, as the direct walk did
    asked, walked = _record_walks(monkeypatch)
    acmgenera.clear_caches()
    acm_genera(d)
    assert walked == asked
    assert len(walked) == walks


def test_warm_ascending_sweep_reuses_the_walks(monkeypatch):
    _, walked = _record_walks(monkeypatch)
    acmgenera.clear_caches()
    for d in range(3, 71):
        acm_genera(d)
    assert len(walked) <= 100  # 582 with one walk per request


def _assert_present_offsets_follow_the_profile(degrees, max_excess):
    """The profile at each long length is C(s-1,2) plus a mask of k alone; up
    to ``max_excess`` the table, asked for whole ranges, holds exactly it."""
    acmgenera.clear_caches()
    masks = {}
    for d in degrees:
        profile = length_profile(d)
        for s in _long_lengths(d):
            k = d - s
            mask = profile[s] >> comb(s - 1, 2)
            assert masks.setdefault(k, mask) == mask, (d, s)
            if k <= max_excess:
                search_fixed_both(d, s, _whole_range(d, s))
                mark, known = _kernels._excess_cache[k]
                assert mark == comb(k, 2) or d == 2 * k + 1, (d, s)
                present = sum(1 << o for o, core in known.items() if core is not None)
                assert present == mask, (d, s)


def test_present_offsets_follow_the_profile():
    _assert_present_offsets_follow_the_profile(range(1, 61), 29)


@pytest.mark.slow
def test_present_offsets_follow_the_profile_audit():
    # a whole-range walk doubles in cost about every two excess steps (0.18 s
    # at k = 34), so the table is asked up to k = 36; the profile masks are
    # checked for every long length of every degree
    _assert_present_offsets_follow_the_profile(range(1, 121), 36)


def _summary(c):
    return c.genera.bits, c.gaps, c.witnesses, c.certain.bits, c.stats


def test_concurrent_cold_classifications_match_sequential_ones():
    degrees = list(range(3, 71))
    acmgenera.clear_caches()
    sequential = {d: _summary(acm_genera(d)) for d in degrees}
    orders = [degrees, degrees[::-1], *(random.Random(i).sample(degrees, len(degrees)) for i in (1, 2))]
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def classify(i):
        start.wait()
        results[i] = {d: _summary(acm_genera(d)) for d in orders[i]}

    acmgenera.clear_caches()
    threads = [threading.Thread(target=classify, args=(i,)) for i in range(len(orders))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == sequential for r in results)
    _assert_watermark_invariant()
