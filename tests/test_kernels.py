import hashlib
from math import comb

import pytest

import acmgenera
from acmgenera import (
    BudgetError,
    TreeFamily,
    acm_genera,
    certain_genera,
    certified_gaps,
    children,
    count_osequences,
    export_json,
    genus,
    genus_search,
    iter_family,
    m_sequence,
    macaulay_bound,
    max_genus,
    max_oseq,
    min_acm_regularity,
    parent,
    range_table,
)
from acmgenera import _kernels, errors
from acmgenera._kernels import bound_table, brute_force_attained, length_profile, search_fixed_both
from conftest import pascal_bound, reference_sequences, reference_walk


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


def test_fixed_multiplicity_children_bump_the_last_entry_or_append():
    # with 0 past the last entry, J is the last position: a child at J
    # raises the last entry and one at J + 1 appends a 1
    for d in range(2, 21):
        family = TreeFamily.fixed_multiplicity(d)
        for h in iter_family(family):
            kids = children(h, family)
            jlast = len(h) - 1
            assert len(kids) <= 2, (d, h)
            for c in kids:
                assert c[:2] == (1, h[1] - 1), (d, h, c)
                if len(c) == len(h):
                    assert c[2:] == h[2:jlast] + (h[jlast] + 1,) and jlast >= 2, (d, h, c)
                else:
                    assert c[2:] == h[2:] + (1,), (d, h, c)


def _assert_multiplicity_witnesses_are_first_in_preorder(degrees):
    for d in degrees:
        first: dict[int, tuple[int, ...]] = {}
        for h in iter_family(TreeFamily.fixed_multiplicity(d)):
            first.setdefault(genus(h), h)
        for g in range(-1, comb(d - 1, 2) + 2):
            assert _kernels.search_multiplicity(d, g) == first.get(g), (d, g)


def test_search_multiplicity_returns_first_preorder_witness_or_none():
    # called directly, so a negative genus or a gap must come back None from
    # the profile with no exception, and a genus from the per-length searches
    _assert_multiplicity_witnesses_are_first_in_preorder(range(1, 23))


@pytest.mark.slow
def test_search_multiplicity_first_preorder_witness_audit():
    _assert_multiplicity_witnesses_are_first_in_preorder(range(23, 37))


def test_search_multiplicity_answers_a_long_length_top_genus_without_walking_it(monkeypatch):
    # at s >= d//2 + 1 the top genus is max_oseq(d, s)'s alone, and a walk for
    # it visits nearly the whole (d, s) tree; the other lengths still walk
    walk = _kernels._walk_to
    walked = []

    def recording(d, s, g, bounds):
        walked.append((d, s))
        return walk(d, s, g, bounds)

    monkeypatch.setattr(_kernels, "_walk_to", recording)
    for d in range(3, 41):
        bounds = bound_table(d)
        for s in range(d // 2 + 1, d + 1):
            g = max_genus(d, s)
            walked.clear()
            got = genus_search(g, TreeFamily.fixed_multiplicity(d))
            assert (d, s) not in walked, (d, s)
            expected = max(
                (reference_walk(d, t, [g], bounds)[g] for t in _kernels._lengths_of(d, g)),
                key=lambda w: w[2:] + (0,) * (d - len(w)),
            )
            assert got == expected, (d, s)


def test_search_fixed_both_returns_first_preorder_witness_of_every_genus():
    for d in range(3, 19):
        targets = range(comb(d - 1, 2) + 1)
        for s in range(2, d + 1):
            first: dict[int, tuple[int, ...]] = {}
            for h in iter_family(TreeFamily.fixed_both(d, s)):
                first.setdefault(genus(h), h)
            assert search_fixed_both(d, s, targets) == first, (d, s)


def test_length_profile_matches_exhaustive_generation():
    for d in range(1, 37):
        masks, _ = brute_force_attained(d)
        assert length_profile(d) == tuple(masks), d


def test_exhaustive_generation_matches_the_reference_sequences():
    # the count and every per-length mask, against prefix extension by recursion
    for d in range(1, 17):
        masks = [0] * (d + 1)
        for h in reference_sequences(d):
            masks[len(h)] |= 1 << genus(h)
        assert brute_force_attained(d) == (masks, len(reference_sequences(d))), d


@pytest.mark.slow
def test_exhaustive_generation_is_pinned_up_to_its_budget():
    # the masks and counts of every degree the budget allows, as first
    # recorded: a faster generator must reproduce them byte for byte
    digest = hashlib.sha256()
    for d in range(1, 41):
        digest.update(repr(brute_force_attained(d)).encode())
    assert digest.hexdigest() == "25132cb848f0e2a98ad85ab8bc7eee5ad4b5307c1195a64a8dc851b44e6b0f0d"
    assert count_osequences(40) == 164347


def test_length_profile_union_matches_classification_past_the_exhaustive_oracle():
    for d in [*range(31, 61), 100]:
        union = 0
        for m in length_profile(d):
            union |= m
        assert union == acm_genera(d).genera.bits, d


def test_length_profile_agrees_with_single_target_search():
    for d in range(2, 19):
        masks = length_profile(d)
        for s in range(2, d + 1):
            for g in range(comb(d - 1, 2) + 2):
                found = search_fixed_both(d, s, [g])
                assert (g in found) == bool(masks[s] >> g & 1), (d, s, g)


def test_clear_caches_drops_length_profile():
    acmgenera.clear_caches()
    length_profile(12)
    assert _kernels._profile.cache_info().currsize == 1  # degree 12's
    acmgenera.clear_caches()
    assert _kernels._profile.cache_info().currsize == 0
    assert length_profile(12) == tuple(brute_force_attained(12)[0])


def test_shortest_length_is_the_first_length_holding_g():
    for d in range(1, 26):
        masks = length_profile(d)
        for g in range(comb(d - 1, 2) + 2):
            first = next((s for s, m in enumerate(masks) if m >> g & 1), None)
            assert _kernels.shortest_length(d, g) == first, (d, g)


def test_short_lengths_build_only_a_prefix_of_the_profile():
    acmgenera.clear_caches()
    assert _kernels.shortest_length(300, 0) == 2
    assert _kernels.shortest_length(300, 1) == 3
    assert len(_kernels._profile(300)[0]) == 4  # masks[0..3] only
    whole = length_profile(28)
    acmgenera.clear_caches()
    assert _kernels.shortest_length(28, 150) == 16
    assert len(_kernels._profile(28)[0]) == 17
    assert length_profile(28) == whole  # a resumed build equals a whole one


def test_search_fixed_both_at_length_one():
    assert search_fixed_both(1, 1, [0, 1]) == {0: (1,)}
    assert search_fixed_both(5, 1, [0, 3]) == {}
    # no multiplicity-d sequence is longer than d
    assert search_fixed_both(3, 5, [6, 7]) == {}
    assert search_fixed_both(4, 6, range(20)) == {}
    for s in (0, -2):
        with pytest.raises(ValueError, match="length must be >= 1"):
            search_fixed_both(5, s, [0])


def test_length_witness_at_length_one():
    # only d = 1 has a sequence of length 1, as in search_fixed_both
    assert _kernels.length_witness(1, 1, 0) == (1,)
    assert _kernels.length_witness(1, 1, 1) is None
    for d in (2, 5, 40):
        assert _kernels.length_witness(d, 1, 0) is None, d


def test_length_witness_past_the_degree():
    # no multiplicity-d sequence is longer than d
    assert _kernels.length_witness(3, 5, 6) is None
    assert _kernels.length_witness(4, 6, 10) is None
    assert _kernels.length_witness(5, 6, comb(5, 2)) is None


def test_length_witness_below_length_one():
    for s in (0, -2):
        with pytest.raises(ValueError, match="length must be >= 1"):
            _kernels.length_witness(5, s, 0)


def test_degree_budget_refuses_every_entry_point_before_allocating():
    limit = errors.MAX_DEGREE
    over = limit + 1
    calls = [
        lambda: acm_genera(over),
        lambda: certain_genera(over),
        lambda: m_sequence(over),
        lambda: max_genus(over, 2),
        lambda: max_genus(over, over),
        lambda: max_oseq(over, over - 1),
        lambda: bound_table(over),
        lambda: length_profile(over),
        lambda: _kernels.shortest_length(over, 0),
        lambda: search_fixed_both(over, 2, [0]),
        lambda: _kernels.search_multiplicity(over, 1),
        lambda: _kernels.length_witness(over, 2, 0),
        lambda: _kernels.length_witness(over, over, 0),
        lambda: genus_search(0, TreeFamily.fixed_multiplicity(over)),
        lambda: min_acm_regularity(over, 0),
        lambda: min_acm_regularity(over, comb(over - 1, 2) + 1),
        lambda: next(iter_family(TreeFamily.fixed_multiplicity(over))),
        lambda: next(iter_family(TreeFamily.fixed_both(over, 3))),
        lambda: children((1, over - 1), TreeFamily.fixed_multiplicity(over)),
        lambda: children((1, over - 2, 1), TreeFamily.fixed_both(over, 3)),
        lambda: parent((1, over - 2, 1), TreeFamily.fixed_multiplicity(over)),
        lambda: parent((1, over - 2, 1), TreeFamily.fixed_both(over, 3)),
        lambda: export_json(TreeFamily.fixed_multiplicity(over)),
        lambda: export_json(TreeFamily.fixed_both(over, 3)),
        lambda: range_table(over),
        lambda: certified_gaps(over),
    ]
    for call in calls:
        with pytest.raises(BudgetError):
            call()
    assert max_genus(limit, limit) == comb(limit - 1, 2)  # the limit itself is allowed
    for call in (
        lambda: acm_genera(0),
        lambda: certain_genera(0),
        lambda: bound_table(0),
        lambda: range_table(0),
        lambda: certified_gaps(-2),
    ):
        with pytest.raises(ValueError):
            call()
