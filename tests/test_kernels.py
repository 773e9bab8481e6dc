from math import comb

import pytest

from acmgenera import TreeFamily, children, genus, iter_family, macaulay_bound
from acmgenera._kernels import bound_table, search_fixed_both
from conftest import pascal_bound


def test_bound_table_matches_pascal_bound():
    expected = {(a, t): pascal_bound(a, t) for t in range(1, 40) for a in range(41 - t)}
    for d in range(1, 41):
        tab = bound_table(d)
        assert len(tab) == d and tab[0] == []
        for t in range(1, d):
            assert tab[t] == [expected[a, t] for a in range(d + 1 - t)], (d, t)


def test_bound_table_matches_macaulay_bound_on_sampled_rows():
    for d in (150, 300):
        tab = bound_table(d)
        for t in (1, 2, 3, 7, 20, d // 3, d // 2, d - 2, d - 1):
            assert tab[t] == [macaulay_bound(a, t) for a in range(d + 1 - t)], (d, t)


def test_bound_table_index_past_domain_raises():
    d = 30
    tab = bound_table(d)
    for t in range(1, d):
        tab[t][d - t]  # the last entry with a + t <= d
        with pytest.raises(IndexError):
            tab[t][d - t + 1]
    with pytest.raises(IndexError):
        tab[d]


def _last_raised(h):
    """Highest index >= 2 holding an entry above 1; 1 when there is none."""
    return max((i for i in range(2, len(h)) if h[i] > 1), default=1)


def test_fixed_both_children_sit_at_j_and_j_plus_one():
    # the search kernel's child loop tries only these two positions
    for d in range(3, 21):
        for s in range(2, d + 1):
            family = TreeFamily.fixed_both(d, s)
            for h in iter_family(family):
                kids = children(h, family)
                jlast = _last_raised(h)
                assert len(kids) <= 2, (d, s, h)
                for c in kids:
                    j = next(i for i in range(2, s) if c[i] != h[i])
                    assert j in (jlast, jlast + 1), (d, s, h, c)


def test_search_fixed_both_returns_first_preorder_witness_of_every_genus():
    for d in range(3, 19):
        targets = range(comb(d - 1, 2) + 1)
        for s in range(2, d + 1):
            first: dict[int, tuple[int, ...]] = {}
            for h in iter_family(TreeFamily.fixed_both(d, s)):
                first.setdefault(genus(h), h)
            assert search_fixed_both(d, s, targets) == first, (d, s)
