import hashlib
import random
from math import comb

import pytest

import acmgenera.search as search_module
from acmgenera import (
    BudgetError,
    EmptyFamilyError,
    GenusSet,
    TreeFamily,
    acm_genera,
    brute_force_genera,
    certain_genera,
    clear_caches,
    count_osequences,
    genus,
    genus_search,
    iter_family,
    multiplicity,
)
from acmgenera._kernels import search_fixed_both
from acmgenera import _kernels, ranges, trees
from acmgenera.ranges import closed_max_oseq, hole_window, max_genus, min_genus
from acmgenera.search import brute_force_length_profile
from conftest import independent_checker, reference_genera, reference_genera_by_length, reference_sequences


def test_genus_search_examples():
    w = genus_search(25, TreeFamily.fixed_both(15, 6))
    assert w is not None and genus(w) == 25 and multiplicity(w) == 15 and len(w) == 6
    assert genus_search(25, TreeFamily.fixed_both(15, 5)) is None
    for s in range(2, 13):
        assert genus_search(26, TreeFamily.fixed_both(12, s)) is None, s
    for d in (2, 5, 9, 40):
        assert genus_search(0, TreeFamily.fixed_multiplicity(d)) == (1, d - 1)
    assert genus_search(5, TreeFamily.fixed_multiplicity(7)) == (1, 2, 3, 1)
    with pytest.raises(ValueError):
        genus_search(-1, TreeFamily.fixed_multiplicity(7))


def test_genus_search_returns_first_preorder_witness():
    # the pruned search must return exactly the first vertex of the target
    # genus in depth-first preorder, for every family kind
    families = [
        TreeFamily.fixed_multiplicity(11),
        TreeFamily.fixed_multiplicity(13),
        TreeFamily.fixed_both(11, 5),
        TreeFamily.fixed_both(13, 6),
        TreeFamily.full(cap=9),
        TreeFamily.fixed_length(4, cap=12),
    ]
    for family in families:
        order = list(iter_family(family))
        top = max(genus(h) for h in order)
        for g in range(top + 2):
            expected = next((h for h in order if genus(h) == g), None)
            assert genus_search(g, family) == expected, (family.kind, g)


def test_capped_genus_search_keeps_the_node_budget(monkeypatch):
    # the walk for C(29,2) - 1 on full(cap=30) expands some 67k vertices
    monkeypatch.setattr(trees, "DEFAULT_NODE_BUDGET", 1000)
    for family in (TreeFamily.full(cap=30), TreeFamily.fixed_length(8, cap=30)):
        with pytest.raises(BudgetError):
            genus_search(comb(29, 2) - 1, family)
    assert genus_search(3, TreeFamily.full(cap=30)) is not None  # a short walk stays within it


def test_genus_search_absent_iff_unattained():
    for d in range(2, 16):
        attained = reference_genera(d)
        family = TreeFamily.fixed_multiplicity(d)
        for g in range(comb(d - 1, 2) + 2):
            found = genus_search(g, family)
            if g in attained:
                assert found is not None and genus(found) == g, (d, g)
            else:
                assert found is None, (d, g)
        for s in range(2, d + 1):
            by_len = reference_genera_by_length(d, s)
            fam = TreeFamily.fixed_both(d, s)
            for g in range(max_genus(d, s) + 2):
                found = genus_search(g, fam)
                assert (found is not None) == (g in by_len), (d, s, g)


def test_genus_search_is_none_exactly_on_oracle_gaps():
    for d in range(2, 26):
        genera = brute_force_genera(d)
        family = TreeFamily.fixed_multiplicity(d)
        for g in range(comb(d - 1, 2) + 1):
            found = genus_search(g, family)
            if g in genera:
                assert found is not None and genus(found) == g and multiplicity(found) == d, (d, g)
            else:
                assert found is None, (d, g)


def test_genus_search_above_the_range_returns_none_without_a_walk(monkeypatch):
    # a walk for a genus above max_genus(d, s) would visit the whole tree:
    # at (200, 120), k = 80, it does not finish
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(_kernels, "_search_impl", no_walk)
    for d, s in [(200, 120), (100, 54), (15, 6), (1, 1)]:
        assert genus_search(max_genus(d, s) + 1, TreeFamily.fixed_both(d, s)) is None, (d, s)
    assert genus_search(15000, TreeFamily.fixed_both(200, 120)) is None


def test_genus_search_answers_a_long_length_top_and_holes_without_a_walk(monkeypatch):
    # at a long length the top genus is attained by max_oseq(d, s) alone and
    # no hole value is attained; walks for them visit nearly the whole tree
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(_kernels, "_search_impl", no_walk)
    for d in range(1, 61):
        for s in range(d // 2 + 1, d + 1):
            family = TreeFamily.fixed_both(d, s)
            assert genus_search(max_genus(d, s), family) == closed_max_oseq(d, s), (d, s)
            for g in hole_window(d, s):
                assert genus_search(g, family) is None, (d, s, g)


def test_genus_search_long_length_top_is_the_walk_witness():
    for d in range(1, 31):
        for s in range(d // 2 + 1, d + 1):
            top = max_genus(d, s)
            walked = _kernels._search_impl(d, s, [top], _kernels.bound_table(d))[top]
            assert genus_search(top, TreeFamily.fixed_both(d, s)) == walked, (d, s)


def test_genus_search_at_a_long_length_builds_no_max_genus_row(monkeypatch):
    # min_acm_regularity searches at its shortest length, often a long one;
    # there max_genus answers by the closed form C(s-1,2) + C(d-s,2)
    def no_row(d, s):
        raise AssertionError(f"max-genus row for ({d}, {s})")

    monkeypatch.setattr(ranges, "_max_row", no_row)
    for d, s in [(200, 120), (100, 51), (30, 16), (7, 4), (1, 1)]:
        top = comb(s - 1, 2) + comb(d - s, 2)
        assert genus_search(top + 1, TreeFamily.fixed_both(d, s)) is None, (d, s)
    for d, s in [(40, 21), (30, 16), (7, 4), (1, 1)]:
        top = comb(s - 1, 2) + comb(d - s, 2)
        w = genus_search(top, TreeFamily.fixed_both(d, s))
        assert (genus(w), multiplicity(w), len(w)) == (top, d, s), (d, s)
    with pytest.raises(AssertionError, match="max-genus row"):
        genus_search(30, TreeFamily.fixed_both(30, 15))


def test_genus_search_at_length_one():
    family = TreeFamily.fixed_both(1, 1)
    assert genus_search(0, family) == (1,)
    for g in (1, 2, 7):
        assert genus_search(g, family) is None
    for d in (2, 5, 40):
        with pytest.raises(EmptyFamilyError, match="length 1"):
            TreeFamily.fixed_both(d, 1)


def test_batched_search_matches_fresh_searches():
    for d in (12, 15, 18):
        for s in range(2, d - 1):
            targets = list(range(min_genus(s), max_genus(d, s) + 1))
            batched = search_fixed_both(d, s, targets)
            fam = TreeFamily.fixed_both(d, s)
            for g in targets:
                assert batched.get(g) == genus_search(g, fam), (d, s, g)


def test_brute_force_examples():
    assert brute_force_genera(4).to_list() == [0, 1, 3]
    assert brute_force_genera(5).to_list() == [0, 1, 2, 3, 6]
    assert brute_force_genera(1).to_list() == [0]
    assert count_osequences(7) == 12
    for d in range(1, 16):
        assert count_osequences(d) == len(reference_sequences(d)), d
        assert set(brute_force_genera(d)) == set(reference_genera(d)), d


def test_brute_force_budget():
    with pytest.raises(BudgetError):
        brute_force_genera(75)
    with pytest.raises(BudgetError):
        count_osequences(41)
    with pytest.raises(BudgetError):
        _kernels.brute_force_attained(41)


def test_length_profile():
    profile = brute_force_length_profile(12)
    assert profile.shape == (56, 13)
    assert type(profile[0, 1]) is bool
    attained = {(g, s) for g in range(profile.shape[0]) for s in range(profile.shape[1]) if profile[g, s]}
    expected = {(genus(h), len(h)) for h in reference_sequences(12)}
    assert attained == expected


def test_classification_d7():
    cls = acm_genera(7)
    assert cls.genera.to_list() == [0, 1, 2, 3, 4, 5, 6, 7, 10, 15]
    assert cls.gap_values() == [8, 9, 11, 12, 13, 14]
    assert cls.witnesses == {5: (1, 2, 3, 1)}
    assert cls.stats == {"certain_genera": 9, "certain_gaps": 6, "searched": 1}
    assert cls.provenance_of(5) == "searched"
    assert cls.provenance_of(0) == "step1"
    assert cls.provenance_of(8) == "step2"


def test_provenance_of_refuses_values_outside_the_range():
    cls = acm_genera(12)
    top = comb(11, 2)
    assert {cls.provenance_of(v) for v in range(top + 1)} <= {"step1", "step2", "searched", "post-loop"}
    for value in (-1, top + 1, 10**6):
        with pytest.raises(ValueError):
            cls.provenance_of(value)


def test_classification_small_degrees():
    for d in (1, 2):
        timings = {}
        cls = acm_genera(d, timings=timings)
        assert cls.genera.to_list() == [0]
        assert cls.gaps == []
        assert cls.stats == {"certain_genera": 1, "certain_gaps": 0, "searched": 0}
        assert cls.witnesses == {}
        assert set(timings) == {"step1", "step2", "step3"}


def test_classification_counts_d25_d50():
    cls = acm_genera(25)
    assert len(cls.genera) == 187
    assert cls.stats == {"certain_genera": 176, "certain_gaps": 88, "searched": 13}
    cls = acm_genera(50)
    assert len(cls.genera) == 870
    assert cls.stats == {"certain_genera": 835, "certain_gaps": 289, "searched": 53}


def test_classification_d28_min_gap():
    cls = acm_genera(28)
    values = cls.gap_values()
    assert min(values) == 188
    assert {188, 207, 208, 209, 222, 223, 224, 239, 240, 258} <= set(values)
    reasons = {c.value: c.reason for c in cls.gaps}
    assert reasons[188] == "searched"  # beyond both closed-form rules
    assert reasons[258] == "hole-always-gap"


def test_classification_d12_unique_extra_gap():
    cls = acm_genera(12)
    beyond_separated = [c for c in cls.gaps if c.reason != "between-ranges"]
    assert [c.value for c in beyond_separated] == [26]


def test_oracle_equivalence():
    for d in range(1, 21):
        assert acm_genera(d).genera == brute_force_genera(d), d


@pytest.mark.parametrize(
    "step, nothing",
    [("certain_genera", lambda d: GenusSet(d)), ("certified_gaps", lambda d: [])],
)
def test_step3_classifies_what_steps_1_and_2_leave(monkeypatch, step, nothing):
    # step 3 decides every value left to it by search, so the result must not
    # depend on step 1 having covered the longest lengths
    monkeypatch.setattr(search_module, step, nothing)
    if step == "certified_gaps":  # step 3 masks the certified values from their runs
        monkeypatch.setattr(ranges, "certified_runs", lambda d: [])
    for d in range(2, 21):
        assert acm_genera(d).genera == brute_force_genera(d), d


def test_step2_certificates_and_step3_mask_must_agree(monkeypatch):
    # step 3 ORs the runs behind step 2's list; a list that lost a value fails loudly
    monkeypatch.setattr(search_module, "certified_gaps", lambda d: ranges.certified_gaps(d)[1:])
    with pytest.raises(RuntimeError, match="partition"):
        acm_genera(30)


def test_step3_sends_no_hole_value_to_its_length(monkeypatch):
    sent = []
    real = _kernels.search_fixed_both

    def recording(d, s, targets):
        sent.append((d, s, list(targets)))
        return real(d, s, targets)

    monkeypatch.setattr(_kernels, "search_fixed_both", recording)
    for d in (14, 30, 57, 100):
        clear_caches()
        acm_genera(d)
    assert sent
    assert all(not set(hole_window(d, s)) & set(ts) for d, s, ts in sent)
    # a hole value that is a genus is found at a longer length
    assert any(set(hole_window(d, s)) & set(acm_genera(d).witnesses) for d in (57, 100)
               for s in range(2, d + 1))


def test_step3_skips_the_lengths_below_every_pending_value():
    # a length-s sequence has genus at most C(s-1,2) + (s-2)(d-s); at d = 300
    # that lies below the lowest pending value at every length s <= d//2, the
    # only lengths whose max_genus builds a row
    clear_caches()
    acm_genera(300)
    assert ranges._row.cache_info().currsize == 0


# sha256 over _classification_record(d) for d = 1..160: any change to an output of acm_genera moves it
CLASSIFICATIONS_1_160 = "0b032887fd3a20e247b4b5c854eec97e448c6fce02472f899fab1384df703c18"


def _classification_digest(records: dict[int, bytes]) -> str:
    digest = hashlib.sha256()
    for d in sorted(records):
        digest.update(records[d])
    return digest.hexdigest()


def _classification_record(d: int) -> bytes:
    cls = acm_genera(d)
    return repr((d, tuple(cls.genera), [tuple(c) for c in cls.gaps], sorted(cls.witnesses.items()),
                 tuple(cls.certain), sorted(cls.stats.items()))).encode()


def test_classifications_are_byte_identical_in_any_order():
    # every certificate field in list order, the witnesses, the certain set and
    # the stats; warm and ascending, then cold in a shuffled order
    clear_caches()
    assert _classification_digest({d: _classification_record(d) for d in range(1, 161)}) \
        == CLASSIFICATIONS_1_160
    degrees = list(range(1, 161))
    random.Random(2014).shuffle(degrees)
    cold = {}
    for d in degrees:
        clear_caches()
        cold[d] = _classification_record(d)
    assert _classification_digest(cold) == CLASSIFICATIONS_1_160


def test_stats_partition_range():
    for d in range(1, 61):
        cls = acm_genera(d)
        assert sum(cls.stats.values()) == comb(d - 1, 2) + 1, d
        assert len(cls.genera) + len(cls.gaps) == comb(d - 1, 2) + 1, d


def test_witness_validity_up_to_60():
    for d in range(3, 61):
        cls = acm_genera(d)
        for g, h in cls.witnesses.items():
            assert multiplicity(h) == d and genus(h) == g, (d, g, h)
            assert TreeFamily.fixed_both(d, len(h)).contains(h), (d, g, h)
            if d <= 15:
                assert h in set(iter_family(TreeFamily.fixed_both(d, len(h))))
        # searched values are exactly the non-certain genera
        assert set(cls.witnesses) == set(cls.genera) - set(cls.certain)


def _assert_checker_confirms(degrees):
    """The independent checker's DP confirms each classification past the
    exhaustive oracle: genera, gaps and witnesses, each witness at the
    shortest length of its genus, and no step-1 genus among the gaps.  At
    every long length, s >= d//2 + 1, the checker's profile is C(s-1,2) plus
    one offset mask per excess k = d - s, Off(k), whatever the degree."""
    checker = independent_checker()
    offsets = {}
    for d in degrees:
        cls = acm_genera(d)
        assert checker.classification_problems(cls) == [], d
        for g, h in cls.witnesses.items():
            assert len(h) == checker.min_length(d, g), (d, g)
        assert not cls.certain.bits & ~checker.genera_mask(d), d
        profile = checker.length_profile(d)
        for s in range(d // 2 + 1, d + 1):
            mask = profile[s] >> comb(s - 1, 2)
            assert offsets.setdefault(d - s, mask) == mask, (d, s)
        checker.length_profile.cache_clear()  # one degree's profile at a time


def test_classification_confirmed_by_the_checker_past_the_oracle():
    _assert_checker_confirms(range(41, 91, 7))


@pytest.mark.slow
def test_classification_confirmed_by_the_checker_audit():
    _assert_checker_confirms(range(41, 301))


def test_cold_and_warm_runs_agree():
    clear_caches()
    cold = acm_genera(25)
    warm = acm_genera(25)
    assert warm.genera == cold.genera
    assert warm.witnesses == cold.witnesses
    assert warm.gaps == cold.gaps
    assert warm.stats == cold.stats


def test_certain_genera_included_in_result():
    for d in (10, 25, 40):
        cls = acm_genera(d)
        assert cls.certain == certain_genera(d)
        assert cls.certain.bits & ~cls.genera.bits == 0
