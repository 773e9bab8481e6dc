import random
import sys
import threading

import pytest

from acmgenera import GenusSet, binomial, certain_genera, clear_caches, continuity_prefix, m_sequence
from acmgenera import continuity
from acmgenera.errors import MAX_DEGREE
from acmgenera.search import brute_force_genera
from conftest import reference_certain_masks

# the published thresholds for degrees 1..45
M_TABLE = [
    0, 0, 1, 1, 3, 4, 4, 7, 11, 13, 18, 19, 19, 25, 32,
    40, 43, 52, 62, 73, 85, 89, 102, 116, 118, 133, 149, 166, 184, 203,
    208, 228, 229, 229, 250, 272, 295, 319, 344, 370, 376, 403, 431, 460, 490,
]


def test_genus_set_basics():
    s = GenusSet.from_values(7, [0, 3, 15])
    assert 3 in s and 4 not in s and -1 not in s
    assert list(s) == [0, 3, 15]
    assert len(s) == 3
    s.add(5)
    assert list(s) == [0, 3, 5, 15]
    with pytest.raises(ValueError):
        s.add(16)  # outside [0, C(6,2)]
    assert s.copy() == s and s.copy() is not s


def test_genus_set_iterates_its_members_in_order():
    rng = random.Random(2014)
    for d in (1, 2, 3, 7, 30, 120):
        top = binomial(d - 1, 2)
        for density in (0.0, 0.05, 0.5, 0.95, 1.0):
            bits = sum(1 << v for v in range(top + 1) if rng.random() < density)
            s = GenusSet(d, bits | rng.getrandbits(8) << (top + 1))  # bits past the top are dropped
            assert s.to_list() == [v for v in range(top + 1) if v in s], (d, density)


def test_certain_genera_examples():
    assert certain_genera(1).to_list() == [0]
    assert certain_genera(4).to_list() == [0, 1, 3]
    assert certain_genera(5).to_list() == [0, 1, 2, 3, 6]
    assert certain_genera(6).to_list() == [0, 1, 2, 3, 4, 6, 10]
    # degree 7 misses genus 5, which only the search recovers
    assert certain_genera(7).to_list() == [0, 1, 2, 3, 4, 6, 7, 10, 15]
    assert len(certain_genera(25)) == 176


def test_certain_genera_monotone_inclusion():
    prev = certain_genera(1)
    for d in range(2, 101):
        cur = certain_genera(d)
        assert prev.bits & cur.bits == prev.bits, d
        prev = cur


def test_certain_genera_sound():
    for d in range(1, 31):
        assert certain_genera(d).bits & ~brute_force_genera(d).bits == 0, d


def test_m_sequence_published_values():
    assert m_sequence(45) == M_TABLE
    assert m_sequence(1) == [0]
    assert m_sequence(7)[-1] == 4
    assert m_sequence(15)[-1] == 32
    assert m_sequence(25)[-1] == 118
    assert m_sequence(28)[-1] == 166


def test_m_sequence_monotone():
    ms = m_sequence(250)
    assert all(a <= b for a, b in zip(ms, ms[1:]))


def test_m_sequence_lower_bound():
    ms = m_sequence(250)
    for d in range(18, 251):
        assert ms[d - 1] >= binomial((d + 1) // 2 + 1, 2), d
    assert ms[18 - 1] == 52 >= binomial(10, 2) == 45


def test_continuity_prefix():
    assert continuity_prefix(1).to_list() == [0]
    assert continuity_prefix(15).to_list() == list(range(33))
    for d in range(1, 31):
        reference = brute_force_genera(d)
        assert all(g in reference for g in continuity_prefix(d)), d


def test_prefix_inside_certain_genera():
    for d in range(1, 101):
        certain = certain_genera(d)
        assert all(g in certain for g in continuity_prefix(d)), d


def test_certain_masks_equal_the_plain_recursion():
    expected = reference_certain_masks(300)
    for order in ("ascending", "descending", "cold"):
        clear_caches()
        for d in range(300, 0, -1) if order == "descending" else range(1, 301):
            if order == "cold":  # the cache holds only the degrees one request read
                clear_caches()
            assert certain_genera(d).bits == expected[d], (order, d)


def test_the_chained_prefix_is_all_ones():
    # the chain starts from 0..K(K-1), K = (d-1)//2, and each part k > K
    # whose shift C(k,2) is at most one past the prefix adds its degree's own
    # prefix; below degree 32 that prefix is read from a table
    expected = reference_certain_masks(400)
    assert continuity._PLAIN_PREFIX_TOPS == tuple((~m & (m + 1)).bit_length() - 2 for m in expected[:32])
    for d in range(32, 401):
        top = continuity._certain_prefix(d)
        assert expected[d] & ((1 << top + 1) - 1) == (1 << top + 1) - 1, d


def test_a_cold_degree_150_builds_no_other_degrees_mask():
    # every term of degree 150 starts inside the chained prefix or is read
    # from the plain masks, which are built only up to the largest degree read
    clear_caches()
    certain_genera(150)
    assert continuity._certain_mask.cache_info().currsize == 1
    assert len(continuity._plain_masks()[0]) == 25


def test_threads_growing_the_plain_masks_agree_with_the_recursion():
    # the masks below degree 32 grow under one lock as far as each degree
    # reads them; a lost or doubled step would shift every later degree
    degrees = [*range(1, 32), 40, 64, 100, 150, 200, 300]
    expected = reference_certain_masks(300)
    orders = [random.Random(i).sample(degrees, len(degrees)) for i in range(6)]
    start = threading.Barrier(len(orders))

    def ask(i):
        start.wait()
        results[i] = {d: certain_genera(d).bits for d in orders[i]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # a race shows in most rounds, not in every one
            clear_caches()
            results = [None] * len(orders)
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(orders))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [{d: expected[d] for d in degrees}] * len(orders)
            assert continuity._plain_masks()[0] == expected[:32]
    finally:
        sys.setswitchinterval(interval)


def test_certain_terms_equal_the_plain_recursion_from_their_cut():
    # _certain_mask reads the term of degree j = d - k only when its top
    # C(k,2) + C(j-1,2) passes the chained prefix's top L, and only from bit
    # t = L + 1 - C(k,2) on, and past j's own prefix takes j's largest parts alone
    expected = reference_certain_masks(400)
    pruned = 0
    for d in range(32, 401):
        K, top = (d - 1) // 2, continuity._certain_prefix(d)
        for k in range(K + 1, d - 31):  # the terms of degree j >= 32
            j, shift = d - k, binomial(k, 2)
            if shift + binomial(j - 1, 2) <= top:
                continue
            t = max(top + 1 - shift, 0)
            assert continuity._certain_term(j, t) >> t == expected[j] >> t, (d, j, t)
            pruned += t > (j - 1) // 2 * ((j - 1) // 2 - 1)
    assert pruned


@pytest.mark.slow
def test_certain_masks_equal_the_plain_recursion_up_to_the_degree_budget():
    # from d = 32 on, certain_genera builds only the partitions' largest
    # parts above (d-1)//2 and takes the values below as one all-ones prefix;
    # this checks that prefix at every supported degree
    expected = reference_certain_masks(MAX_DEGREE)
    clear_caches()
    for d in range(1, MAX_DEGREE + 1):
        assert certain_genera(d).bits == expected[d], d
