"""The per-excess witness table behind ``search_fixed_both`` at long lengths.

At s >= d//2 + 1 the fixed-(d, s) tree depends only on the excess k = d - s,
so one complete table per k, the witnesses of the canonical tree
(2k + 1, k + 1), serves every degree.  These tests hold the table to the
direct walk, to the genus profile's dynamic program, to the independent
dynamic program in ``perfbench/checker.py``, and to one whole walk per
excess.
"""
import random
import threading
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acmgenera
from acmgenera import _kernels, acm_genera, is_admissible, max_genus, min_genus
from acmgenera._kernels import bound_table, length_profile, search_fixed_both
from acmgenera.ranges import hole_window
from conftest import independent_checker


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


def _assert_tables_complete(excesses):
    """The tables kept are those of ``excesses``, and each holds every genus
    of its canonical tree, with a witness."""
    assert _kernels._excess_witnesses.cache_info().currsize == len(excesses)
    for k in excesses:
        table = _kernels._excess_witnesses(k)
        d, s = 2 * k + 1, k + 1
        assert sum(1 << g for g in table) == length_profile(d)[s], k
        for g, w in table.items():
            assert len(w) == s and sum(w) == d and acmgenera.genus(w) == g, (k, g)
            assert is_admissible(w), (k, g)


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
    _assert_tables_complete(range(30))  # every long length of d <= 60 has k <= 29


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
    asked = set()  # a request with no target builds no table
    for d, offsets in requests:
        s = d - k
        targets = sorted(comb(s - 1, 2) + o for o in offsets)
        found = _kernels._search_impl(d, s, targets, bound_table(d))
        expected = [(g, found[g]) for g in targets if g in found]
        assert list(search_fixed_both(d, s, targets).items()) == expected, (d, s, targets)
        if targets:
            asked.add(k)
        _assert_tables_complete(asked)


def test_clear_caches_drops_the_excess_table():
    acm_genera(40)
    assert _kernels._excess_witnesses.cache_info().currsize
    acmgenera.clear_caches()
    assert _kernels._excess_witnesses.cache_info().currsize == 0


def _record_walks(monkeypatch):
    """Record step 3's requests and the kernel's walks, each as (d, s, targets)."""
    asked, walked = [], []

    def search(d, s, targets, _inner=_kernels.search_fixed_both):
        asked.append((d, s, sorted(set(targets))))
        return _inner(d, s, targets)

    def walk(d, s, targets, bounds, _inner=_kernels._search_impl):
        walked.append((d, s, sorted(set(targets))))
        return _inner(d, s, targets, bounds)

    monkeypatch.setattr(_kernels, "search_fixed_both", search)
    monkeypatch.setattr(_kernels, "_search_impl", walk)
    return asked, walked


def _expected_walks(asked):
    """A short length's request walks itself; a long one walks its excess's
    whole canonical tree, the first time that excess is asked."""
    walks, seen = [], set()
    for d, s, targets in asked:
        k = d - s
        if s <= k:
            walks.append((d, s, targets))
        elif k not in seen:
            seen.add(k)
            walks.append((2 * k + 1, k + 1, list(range(comb(k, 2), 2 * comb(k, 2) + 1))))
    return walks


@pytest.mark.parametrize("d, walks", [(30, 8), (57, 13), (100, 17), (150, 20)])
def test_cold_classification_walks_what_step_3_asks(monkeypatch, d, walks):
    # within one degree each length has its own excess, so a cold acm_genera
    # walks one whole canonical tree per length it searches, in step 3's order
    asked, walked = _record_walks(monkeypatch)
    acmgenera.clear_caches()
    acm_genera(d)
    assert walked == _expected_walks(asked)
    assert len(walked) == len(asked) == walks


def test_warm_ascending_sweep_reuses_the_walks(monkeypatch):
    asked, walked = _record_walks(monkeypatch)
    acmgenera.clear_caches()
    for d in range(3, 71):
        acm_genera(d)
    assert walked == _expected_walks(asked)
    # one walk per excess asked at a long length, 15, and one per short-length
    # request, at (15, 7), (16, 8) and (18, 9); 582 with one walk per request
    short = [(d, s) for d, s, _ in asked if s <= d - s]
    assert short == [(15, 7), (16, 8), (18, 9)]
    assert len(walked) == len({d - s for d, s, _ in asked if s > d - s}) + len(short) == 18


def test_long_lengths_read_only_the_canonical_bound_table(monkeypatch):
    # every bound the canonical walk reads has a + t <= 2k + 1, and
    # bound_table(2k + 1) raises past that domain; the long lengths build that
    # table once per excess and never bound_table(d)
    read = []

    def table(d, _inner=_kernels.bound_table):
        read.append(d)
        return _inner(d)

    monkeypatch.setattr(_kernels, "bound_table", table)
    acmgenera.clear_caches()
    for d, s in [(150, 128), (150, 140), (90, 68), (200, 178)]:
        search_fixed_both(d, s, _whole_range(d, s))
    assert read == [2 * 22 + 1, 2 * 10 + 1]  # k = 22, k = 10; the last two share k = 22


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
                present = sum(1 << (g - comb(k, 2)) for g in _kernels._excess_witnesses(k))
                assert present == mask, (d, s)


def test_present_offsets_follow_the_profile():
    _assert_present_offsets_follow_the_profile(range(1, 61), 29)


@pytest.mark.slow
def test_present_offsets_follow_the_profile_audit():
    # a whole canonical walk grows about 1.3-fold per excess step (42 ms at
    # k = 32, 0.82 s at k = 44), so the table is asked up to k = 36; the
    # profile masks are checked for every long length of every degree
    _assert_present_offsets_follow_the_profile(range(1, 121), 36)


def _assert_offsets_match_the_checker(excesses):
    """Off(k), the present offsets at excess k, equals the checker's DP, and
    the paper's closed-form maximum and hole window follow from it."""
    checker = independent_checker()
    acmgenera.clear_caches()
    for k in excesses:
        top = comb(k, 2)
        off = sum(1 << (g - top) for g in _kernels._excess_witnesses(k))
        assert off == checker.length_profile(2 * k + 1)[k + 1] >> top, k
        # the top offset is C(k,2): max genus C(s-1,2) + C(d-s,2) at every long length
        assert off.bit_length() - 1 == top, k
        if k >= 4:  # the k - 3 offsets below the top are absent, the next one is present
            assert not off >> (top - (k - 3)) & ((1 << (k - 3)) - 1), k
            assert off >> (top - (k - 2)) & 1, k
        for d in (2 * k + 1, 2 * k + 8):
            s = d - k
            assert max_genus(d, s) == comb(s - 1, 2) + off.bit_length() - 1, (d, s)
            window = hole_window(d, s)
            if window:
                assert window == range(comb(s - 1, 2) + top - (k - 3), comb(s - 1, 2) + top), (d, s)


def test_offsets_match_the_independent_checker():
    _assert_offsets_match_the_checker(range(31))


@pytest.mark.slow
def test_offsets_match_the_independent_checker_audit():
    _assert_offsets_match_the_checker(range(31, 37))


def _summary(c):
    return c.genera.bits, c.gaps, c.witnesses, c.certain.bits, c.stats


def test_concurrent_cold_classifications_match_sequential_ones(monkeypatch):
    asked, _ = _record_walks(monkeypatch)
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
    _assert_tables_complete({d - s for d, s, _ in asked if s > d - s})
