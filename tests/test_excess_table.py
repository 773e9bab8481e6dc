"""The backward excess table behind step 3 and ``length_witness`` at long lengths.

At s >= d//2 + 1 the fixed-(d, s) tree depends only on the excess k = d - s,
so one table of suffix offsets, which grows with the largest excess asked,
serves every degree: Off(k) holds the offsets present at excess k, and a
greedy pass over the table builds each witness.  These tests hold the table
to the multi-target reference walk in ``conftest.py``, to the genus
profile's dynamic program, to the independent dynamic program in
``perfbench/checker.py``, and to the rule that the long lengths walk no
tree.
"""
import hashlib
import random
import subprocess
import sys
import threading
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acmgenera
from acmgenera import (
    BudgetError,
    TreeFamily,
    _kernels,
    acm_genera,
    genus,
    genus_search,
    is_admissible,
    macaulay_bound,
    max_genus,
    min_genus,
    multiplicity,
)
from acmgenera._kernels import bound_table, length_profile, search_fixed_both
from acmgenera.errors import MAX_DEGREE
from acmgenera.ranges import hole_window
from conftest import (
    independent_checker,
    record_step3_requests,
    reference_excess_table,
    reference_excess_witness,
    reference_walk,
)


def _long_lengths(d):
    return range(d // 2 + 1, d + 1)


def _whole_range(d, s):
    return range(min_genus(s), max_genus(d, s) + 1)


@lru_cache(maxsize=None)
def _direct(d, s):
    """The reference walk of the fixed-(d, s) tree over its whole genus range."""
    targets = list(_whole_range(d, s))
    found = reference_walk(d, s, targets, bound_table(d))
    return {g: found[g] for g in targets if g in found}


def _assert_table_matches_direct_walk(degrees):
    # up to d = 40 also s = d//2, the longest short length: the cap at s - 1
    # binds there and the table must not answer (length 1 holds only d = 1)
    for d in degrees:
        for s in range(max(d // 2 + (d > 40), min(d, 2)), d + 1):
            got = search_fixed_both(d, s, _whole_range(d, s))
            assert list(got.items()) == list(_direct(d, s).items()), (d, s)


def _assert_tables_complete(excesses):
    """The table reaches the largest of ``excesses`` and no further, and
    Off(k) of each holds every genus of its canonical tree, with a witness."""
    assert len(_kernels._excess_table()[2]) == max(excesses, default=-1) + 1
    for k in excesses:
        d, s = 2 * k + 1, k + 1
        off = _kernels._excess_offsets(k)
        assert off << comb(k, 2) == length_profile(d)[s], k
        for o in range(off.bit_length()):
            if off >> o & 1:
                w = _kernels._excess_witness(k, o)
                assert len(w) == s and sum(w) == d and acmgenera.genus(w) == comb(k, 2) + o, (k, o)
                assert is_admissible(w), (k, o)


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
    # a request with no target in the range, or only hole values, builds no table
    asked = set()
    for d, offsets in requests:
        s = d - k
        targets = sorted(comb(s - 1, 2) + o for o in offsets)
        found = reference_walk(d, s, targets, bound_table(d))
        expected = [(g, found[g]) for g in targets if g in found]
        assert list(search_fixed_both(d, s, targets).items()) == expected, (d, s, targets)
        if any(g in _whole_range(d, s) and g not in hole_window(d, s) for g in targets):
            asked.add(k)
        _assert_tables_complete(asked)


def test_clear_caches_drops_the_excess_table():
    acm_genera(40)
    memos = (_kernels._excess_table, _kernels._excess_witness)
    assert all(memo.cache_info().currsize for memo in memos)
    acmgenera.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]
    assert _kernels._excess_table()[:4] == ([], [], [], [])


def _witnesses_checked_against_the_reference(kmax):
    """The offsets of Off(k), k <= kmax, whose witness was held to the all-sums scan."""
    acmgenera.clear_caches()
    checked = 0
    for k in range(kmax + 1):
        off = _kernels._excess_offsets(k)
        for o in _kernels._set_bits(off):
            assert _kernels._excess_witness(k, o) == reference_excess_witness(k, o), (k, o)
            checked += 1
    return checked


def test_the_witness_pass_equals_the_reference_on_every_offset():
    # e_2 from the first-entry masks and one greedy path per kept sum,
    # against the scan of every sum's candidates at every position, on all
    # 11,481 offsets of Off(k) for k <= 45
    assert _witnesses_checked_against_the_reference(45) == 11481


@pytest.mark.slow
def test_the_witness_pass_equals_the_reference_on_every_offset_up_to_excess_60():
    assert _witnesses_checked_against_the_reference(60) == 27794


def test_the_offsets_are_the_or_of_the_first_entry_masks():
    # M[k][v] ORs the rows R[2][u][v] of the sums u < k whose cap at
    # position 2, min(B(k - u + 1, 1) - 1, u), reaches v; Off(k) is 1, the
    # all-ones sequence, ORed with every M[k][v]
    acmgenera.clear_caches()
    off = [_kernels._excess_offsets(k) for k in range(61)]
    R, _, _, M, (tab,), _ = _kernels._excess_table()
    assert len(M) == len(off) == 61
    for k in range(61):
        caps = {u: min(macaulay_bound(k - u + 1, 1) - 1, u) for u in range(k)}
        first = [0] * (max(caps.values(), default=-1) + 1)
        for v in range(len(first)):
            for u, cap in caps.items():
                if cap >= v:
                    first[v] |= R[2][u][v]
        assert M[k] == first, k
        masks = 1
        for m in M[k]:
            masks |= m
        assert off[k] == masks, k
        assert all(m for m in M[k]), k  # every e_2 up to the largest cap occurs


@pytest.mark.parametrize("steps", [(60,), (5, 13, 22, 40, 60)], ids=["cold", "grown"])
def test_the_table_equals_the_reference_build(steps):
    # rows split at the crossover and M grown by excess, against per-entry
    # caps and M rebuilt from every sum, whether built at once or in steps
    acmgenera.clear_caches()
    for K in steps:
        _kernels._excess_offsets(K)
        R, P, off, M, _, _ = _kernels._excess_table()
        ref_R, ref_P, ref_M, ref_off = reference_excess_table(K)
        assert len(R) == len(ref_R) and len(off) == K + 1, K
        for i in range(2, K + 1):
            assert R[i] == ref_R[i], (K, i)
            if i >= 3:
                assert P[i] == ref_P[i], (K, i)
        assert M == ref_M, K
        assert off == ref_off, K


def test_the_first_entry_masks_grow_with_the_excess():
    # one more unit of e_1 keeps a sequence admissible, and the cap of each
    # sum at position 2 only rises with k, so M[k] holds M[k - 1]
    acmgenera.clear_caches()
    _kernels._excess_offsets(60)
    M = _kernels._excess_table()[3]
    for k in range(1, 61):
        assert len(M[k]) >= len(M[k - 1]), k
        assert all(new & old == old for new, old in zip(M[k], M[k - 1])), k


def _record_walks(monkeypatch):
    """Record step 3's requests, each as (d, s, targets), long lengths and
    short ones alike, and the kernel's tree walks, each as (d, s, g)."""
    asked, walked = record_step3_requests(monkeypatch), []

    def walk(d, s, g, bounds, _inner=_kernels._walk_to):
        walked.append((d, s, g))
        return _inner(d, s, g, bounds)

    monkeypatch.setattr(_kernels, "_walk_to", walk)
    return asked, walked


def _short_requests(asked):
    """The requests at short lengths, s <= d - s: the only ones that walk a tree."""
    return [(d, s, targets) for d, s, targets in asked if s <= d - s]


@pytest.mark.parametrize("d, requests", [(30, 8), (57, 13), (100, 17), (150, 20)])
def test_cold_classification_walks_what_step_3_asks(monkeypatch, d, requests):
    # a tree is walked only for a short-length request, and every length step
    # 3 asks about at these degrees is long: nothing is walked, and the table
    # grows once, to the largest excess asked.  No hole value is asked, so
    # d = 150 grows the table to excess 22; without the hole mask it grows to 23
    asked, walked = _record_walks(monkeypatch)
    acmgenera.clear_caches()
    acm_genera(d)
    assert len(asked) == requests
    assert walked == _short_requests(asked) == []
    assert not any(set(hole_window(d, s)) & set(targets) for d, s, targets in asked)
    largest = max(d - s for d, s, _ in asked)
    assert largest == {30: 10, 57: 15, 100: 19, 150: 22}[d]
    _assert_tables_complete(range(largest + 1))


def test_warm_ascending_sweep_walks_only_its_short_lengths(monkeypatch):
    asked, walked = _record_walks(monkeypatch)
    acmgenera.clear_caches()
    counts = {}
    for d in range(3, 301):
        acm_genera(d)
        counts[d] = len(asked)
    # three short-length requests, each with one target, and one walk for
    # each; the long lengths of the other requests read the table
    assert _short_requests(asked) == [(15, 7, [33]), (16, 8, [41]), (18, 9, [53])]
    assert walked == [(15, 7, 33), (16, 8, 41), (18, 9, 53)]
    assert (counts[70], counts[300]) == (582, 5985)
    _assert_tables_complete(range(max(d - s for d, s, _ in asked if s > d - s) + 1))


def test_step3_and_the_per_length_search_apply_one_rule():
    # step 3 reads a long length as one mask of offsets; what it finds there
    # is what search_fixed_both finds for that genus alone, and what it
    # leaves as a gap has no offset in Off(d - s) at any long length s
    # whose range holds it
    acmgenera.clear_caches()
    for d in range(1, 161):
        cls = acm_genera(d)
        for g, w in cls.witnesses.items():
            s = len(w)
            if s > d - s:
                assert search_fixed_both(d, s, [g]) == {g: w}, (d, g)
        searched = 0
        for c in cls.gaps:
            if c.reason == "searched":
                searched |= 1 << c.value
        for s in _long_lengths(d):
            k = d - s
            offsets = (searched >> comb(s - 1, 2)) & ((1 << (comb(k, 2) + 1)) - 1)
            if offsets:
                assert not offsets & _kernels._excess_offsets(k), (d, s)


def test_long_lengths_read_only_the_tables_bound_table(monkeypatch):
    # the table through excess K reads bound_table(K + 2), once, when it grows
    # to K; a smaller excess is a lookup, and bound_table(d) is never read
    read = []

    def table(d, _inner=_kernels.bound_table):
        read.append(d)
        return _inner(d)

    monkeypatch.setattr(_kernels, "bound_table", table)
    acmgenera.clear_caches()
    for d, s in [(150, 128), (150, 140), (90, 68), (200, 178)]:
        search_fixed_both(d, s, _whole_range(d, s))
    assert read == [22 + 2]  # k = 22; then k = 10 and k = 22 again


def test_a_whole_long_length_range_is_one_mask(monkeypatch):
    # search_fixed_both hands its targets to the per-length rule as one mask,
    # so a long length reads the table once however many genera it is asked
    # for, and answers as length_witness does genus by genus
    asked = []

    def hits(d, s, offsets, found, _inner=_kernels.long_length_hits):
        asked.append((d, s))
        return _inner(d, s, offsets, found)

    monkeypatch.setattr(_kernels, "long_length_hits", hits)
    acmgenera.clear_caches()
    for d, s in [(100, 60), (150, 128), (60, 31)]:
        asked.clear()
        found = search_fixed_both(d, s, _whole_range(d, s))
        assert asked == [(d, s)]
        by_genus = ((g, _kernels.length_witness(d, s, g)) for g in _whole_range(d, s))
        assert list(found.items()) == [(g, w) for g, w in by_genus if w is not None], (d, s)


def test_an_oversized_table_is_refused_before_it_is_built():
    # k = 499, the largest excess a degree allows: the table would take
    # terabytes, so its owner refuses the mask before it builds a row, and a
    # list of genera there walks for each one instead
    acmgenera.clear_caches()
    acm_genera(60)
    built = len(_kernels._excess_table()[2])
    with pytest.raises(BudgetError, match="excess table"):
        _kernels.long_length_hits(1000, 501, 1 << 1, {})
    assert len(_kernels._excess_table()[2]) == built
    assert 57 <= _kernels.MAX_EXCESS
    g = comb(500, 2) + 1
    found = search_fixed_both(1000, 501, [g])
    assert list(found) == [g]
    assert independent_checker().witness_problems(1000, g, found[g], s=501) == []
    assert len(_kernels._excess_table()[2]) == built
    # in a child, so that a table built after all fails by the timeout; the
    # child's ru_maxrss would also count the test process it was forked from
    code = (
        "import tracemalloc; from acmgenera import BudgetError, _kernels\n"
        "tracemalloc.start()\n"
        "try:\n    _kernels.long_length_hits(1000, 501, 1 << 1, {})\n"
        "except BudgetError:\n    print(tracemalloc.get_traced_memory()[1])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 1 << 20  # peak bytes allocated by the refused request


@pytest.mark.parametrize("d, s, offset", [(1000, 501, 1), (1000, 501, 300), (1000, 600, 500)])
def test_single_queries_past_the_excess_limit_walk(d, s, offset):
    # k = 499 and 400 lie far past MAX_EXCESS: the excess table refuses
    # them, so a single query walks for its one genus and answers
    assert d - s > _kernels.MAX_EXCESS
    g = comb(s - 1, 2) + offset
    w = genus_search(g, TreeFamily.fixed_both(d, s))
    assert w is not None and is_admissible(w), (d, s, offset)
    assert (multiplicity(w), len(w), genus(w)) == (d, s, g)


def test_the_excess_limit_holds_however_the_table_grew(monkeypatch):
    # grown one excess at a time up to the limit, the table refuses the next
    # excess as a cold build does, and keeps what it holds
    monkeypatch.setattr(_kernels, "MAX_EXCESS", 12)
    acmgenera.clear_caches()
    for k in range(13):
        assert _kernels._excess_offsets(k) == length_profile(2 * k + 1)[k + 1] >> comb(k, 2), k
    with pytest.raises(BudgetError, match="excess table"):
        _kernels._excess_offsets(13)
    assert len(_kernels._excess_table()[2]) == 13
    acmgenera.clear_caches()
    with pytest.raises(BudgetError, match="excess table"):
        _kernels._excess_offsets(13)
    assert _kernels._excess_table()[2] == []


def test_the_degree_budget_classifies_within_the_table_limit():
    # acm_genera(1000) asks for excesses up to 57, the largest of any degree
    acmgenera.clear_caches()
    cls = acm_genera(1000)
    assert len(cls.genera) + len(cls.gaps) == comb(999, 2) + 1
    assert len(_kernels._excess_table()[2]) == 58


def test_the_genera_of_degree_k_plus_1_lie_in_the_offsets_of_excess_k():
    # an O-sequence (1, e_1, ..., e_r) of multiplicity k + 1 has excesses
    # e_i summing to k, and (1, e_1 + 1, ..., e_r + 1, 1, ..., 1) is admissible,
    # since a -> a^<t> strictly increases; its offset sum (i-1)e_i is the first
    # sequence's genus.  acm_genera(k + 1) reads the rows of excess up to
    # about (k + 1)/2, so this ties those rows to Off(k)
    acmgenera.clear_caches()
    for k in range(61):
        assert acm_genera(k + 1).genera.bits & ~_kernels._excess_offsets(k) == 0, k


# sha256 of repr([(d, the largest excess d - s that step 3 asks at d), ...]) over
# the degrees 3..1000 whose step 3 asks a long length
LARGEST_EXCESS_BY_DEGREE = "d7e408aa8a8139057e31a716e5f5eaa0b90f2f51c4f23ae56eb641c7b1c89f4b"


@pytest.mark.slow
def test_the_largest_excess_step_3_asks_is_pinned_up_to_the_degree_budget(monkeypatch):
    # a classification sized before it runs would check this excess against
    # MAX_EXCESS; the pin catches a step 3 that asks a larger one
    largest = {}

    def spy(d, s, offsets, found, _inner=_kernels.long_length_hits):
        largest[d] = max(largest.get(d, 0), d - s)
        return _inner(d, s, offsets, found)

    monkeypatch.setattr(_kernels, "long_length_hits", spy)
    acmgenera.clear_caches()
    for d in range(3, MAX_DEGREE + 1):
        acm_genera(d)
    pairs = sorted(largest.items())
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == LARGEST_EXCESS_BY_DEGREE
    assert max(largest.values()) == largest[MAX_DEGREE] == 57 <= _kernels.MAX_EXCESS


def _assert_present_offsets_follow_the_profile(degrees, max_excess):
    """The profile at each long length is C(s-1,2) plus a mask of k alone; up
    to ``max_excess`` Off(k), and the hits of a search for the whole range,
    are exactly it."""
    acmgenera.clear_caches()
    masks = {}
    for d in degrees:
        profile = length_profile(d)
        for s in _long_lengths(d):
            k = d - s
            mask = profile[s] >> comb(s - 1, 2)
            assert masks.setdefault(k, mask) == mask, (d, s)
            if k <= max_excess:
                hits = search_fixed_both(d, s, _whole_range(d, s))
                present = sum(1 << (g - comb(s - 1, 2)) for g in hits)
                assert present == mask == _kernels._excess_offsets(k), (d, s)


def test_present_offsets_follow_the_profile():
    _assert_present_offsets_follow_the_profile(range(1, 61), 29)


@pytest.mark.slow
def test_present_offsets_follow_the_profile_audit():
    # the profile masks are checked for every long length of every degree,
    # and the table at each of them
    _assert_present_offsets_follow_the_profile(range(1, 121), 59)


def _assert_offsets_match_the_checker(excesses):
    """Off(k), the present offsets at excess k, equals the checker's DP, and
    the paper's closed-form maximum and hole window follow from it."""
    checker = independent_checker()
    acmgenera.clear_caches()
    for k in excesses:
        top = comb(k, 2)
        off = _kernels._excess_offsets(k)
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
    # through k = 57, the largest excess acm_genera(1000) asks for
    _assert_offsets_match_the_checker(range(31, 58))


def test_threads_growing_the_table_agree_with_one_thread():
    # the table grows in place under its lock while other threads read Off and
    # build witnesses from it; a lost or doubled row would change an answer
    excesses = list(range(41))
    acmgenera.clear_caches()
    expected = {k: _kernels._excess_offsets(k) for k in excesses}
    witnesses = {(k, o): _kernels._excess_witness(k, o)
                 for k in excesses for o in range(0, comb(k, 2) + 1, 5) if expected[k] >> o & 1}
    orders = [random.Random(i).sample(excesses, len(excesses)) for i in range(6)]
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def ask(i):
        start.wait()
        results[i] = (
            {k: _kernels._excess_offsets(k) for k in orders[i]},
            {(k, o): _kernels._excess_witness(k, o) for k, o in witnesses},
        )

    acmgenera.clear_caches()
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
    assert not any(t.is_alive() for t in threads)
    assert results == [(expected, witnesses)] * len(orders)
    _assert_tables_complete(excesses)


def test_threads_sharing_the_first_entry_masks_agree_with_one_thread():
    # each thread asks the whole offset range of its own excesses, so the
    # table, its first-entry masks and the witnesses grow from a cleared
    # table while other threads read them for other excesses
    excesses = list(range(36))
    groups = [excesses[i::4] for i in range(4)]
    groups = [g if i % 2 else g[::-1] for i, g in enumerate(groups)]

    def ask(ks):
        answers = {}
        for k in ks:
            found = {}
            answers[k] = _kernels.long_length_hits(2 * k + 1, k + 1, (1 << (comb(k, 2) + 1)) - 1, found), found
        return answers

    acmgenera.clear_caches()
    expected = ask(excesses)
    results = [None] * len(groups)
    start = threading.Barrier(len(groups))

    def run(i):
        start.wait()
        results[i] = ask(groups[i])

    acmgenera.clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(groups))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [{k: expected[k] for k in g} for g in groups]
    assert len(_kernels._excess_table()[3]) == len(excesses)
    _assert_tables_complete(excesses)


def test_an_offset_set_already_built_is_read_without_the_lock():
    # a warm Off(j) is one list read; a reader that queued on the lock would
    # wait behind every growth of the table, once per single query
    acmgenera.clear_caches()
    expected = {j: _kernels._excess_offsets(j) for j in range(21)}
    results = {}

    def read():
        results.update({j: _kernels._excess_offsets(j) for j in expected})

    with _kernels._excess_table()[-1]:
        reader = threading.Thread(target=read)
        reader.start()
        reader.join(timeout=10)
        blocked = reader.is_alive()
    reader.join()
    assert not blocked
    assert results == expected


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
