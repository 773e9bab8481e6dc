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
from acmgenera import _kernels
from acmgenera.ranges import hole_window, max_genus, min_genus
from acmgenera.search import brute_force_length_profile
from conftest import reference_genera, reference_genera_by_length, reference_sequences


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


def test_length_profile():
    profile = brute_force_length_profile(12)
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
    for d in range(2, 21):
        assert acm_genera(d).genera == brute_force_genera(d), d


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
