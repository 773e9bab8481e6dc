import hashlib
import random
import sys
import threading
from collections import Counter

import pytest

from acmgenera import (
    EmptyFamilyError,
    acm_genera,
    binomial,
    certified_gaps,
    clear_caches,
    genus,
    genus_range,
    holes,
    max_genus,
    max_oseq,
    min_genus,
    min_oseq,
    range_table,
    separated_after,
    total_compare,
)
from acmgenera import _kernels, ranges
from acmgenera.errors import MAX_DEGREE
from acmgenera.ranges import (
    GapCertificate,
    certified_runs,
    closed_max_genus,
    closed_max_oseq,
    hole_window,
    is_separated,
)
from acmgenera.search import brute_force_genera, brute_force_length_profile
from conftest import (
    range_complement,
    reference_certified_gaps,
    reference_genera_by_length,
    reference_sequences,
    reference_walk,
)


def test_min_genus():
    assert min_genus(5) == 6
    assert min_genus(2) == 0
    assert min_genus(1) == 0
    for s in range(2, 51):
        assert min_genus(s + 1) - min_genus(s) == s - 1


def test_min_oseq():
    assert min_oseq(7, 4) == (1, 4, 1, 1)
    assert min_oseq(5, 5) == (1, 1, 1, 1, 1)
    assert genus(min_oseq(9, 4)) == min_genus(4)
    for d, s in ((3, 7), (5, 0), (5, -1)):
        with pytest.raises(EmptyFamilyError):
            min_oseq(d, s)


def test_max_oseq_examples():
    assert max_oseq(10, 4) == (1, 2, 3, 4)
    assert max_genus(10, 4) == 11
    assert max_oseq(7, 4) == (1, 2, 2, 2)
    assert max_genus(7, 4) == 6
    for s in (2, 3, 5, 8):
        assert max_oseq(s, s) == (1,) * s
        assert max_genus(s, s) == binomial(s - 1, 2)
    assert max_oseq(15, 5) == (1, 2, 3, 4, 5)
    assert max_genus(15, 5) == 26
    with pytest.raises(EmptyFamilyError):
        max_oseq(4, 6)


def test_max_genus_near_top_lengths():
    # one-point ranges just below the plane-curve case
    for d in range(3, 21):
        assert max_genus(d, d - 1) == binomial(d - 2, 2)
        assert max_genus(d, d) == binomial(d - 1, 2)


def test_max_genus_12_8_is_27():
    # the closed form, the recursion, and exhaustive generation all give 27
    assert closed_max_genus(12, 8) == 21 + 6
    assert max_genus(12, 8) == 27
    attained = reference_genera_by_length(12, 8)
    assert max(attained) == 27
    assert attained == {21, 22, 23, 24, 25, 27}  # 26 is the hole


def test_closed_form_matches_recursion():
    for d in range(4, 61):
        for s in range(d // 2 + 1, d + 1):
            assert max_oseq(d, s) == closed_max_oseq(d, s), (d, s)
            assert max_genus(d, s) == binomial(s - 1, 2) + binomial(d - s, 2), (d, s)
    for d, s in ((20, 5), (20, 10), (5, 7), (20, 21)):  # below d//2 + 1 or above d
        for closed_form in (closed_max_genus, closed_max_oseq):
            with pytest.raises(ValueError, match="closed form"):
                closed_form(d, s)


def test_recursion_matches_the_closed_form_at_long_lengths():
    # max_genus and max_oseq answer long lengths by the closed form and never
    # build a row there, so the rows are replayed directly to keep the
    # recursion under test on the lengths where the two must agree
    for d in range(4, 61):
        for s in range(d // 2 + 1, d + 1):
            genera = ranges._max_row(d, s)
            h = [1] * s
            for m in range(d - s):  # each step raises the index one above its genus difference
                h[genera[m + 1] - genera[m] + 1] += 1
            assert tuple(h) == closed_max_oseq(d, s), (d, s)
            assert genera[d - s] == closed_max_genus(d, s), (d, s)
    clear_caches()


def test_max_genus_is_the_top_of_the_genus_profile():
    # the closed form is wrong at s = d//2 for every d from 4 to 60, so a
    # switch to it one length too early fails here
    for d in range(1, 61):
        profile = _kernels.length_profile(d)
        for s in range(min(d, 2), d + 1):
            assert max_genus(d, s) == profile[s].bit_length() - 1, (d, s)


def test_max_genus_does_not_decrease_with_the_length():
    # so no short length holds a value above max_genus(d, d//2 + 1), the
    # closed form C(d//2, 2) + C(d - d//2 - 1, 2) at the first long length
    for d in range(2, 201):
        tops = [max_genus(d, s) for s in range(2, d + 1)]
        assert tops == sorted(tops), d


def test_genus_ceiling_bounds_max_genus_and_is_the_top_at_long_lengths():
    # step 3 skips a length whose ceiling C(s-1,2) + min(C(k,2), (s-2)k),
    # k = d - s, lies below every pending value, so a ceiling under a
    # length's top would lose that length's genera
    for d in range(2, 201):
        for s in range(2, d + 1):
            k = d - s
            ceiling = binomial(s - 1, 2) + min(binomial(k, 2), (s - 2) * k)
            assert max_genus(d, s) <= ceiling, (d, s)
            if s >= d // 2 + 1:
                assert closed_max_genus(d, s) == ceiling, (d, s)


@pytest.mark.parametrize("d", [40, 50, 51, 100, 150])
def test_classification_builds_max_genus_rows_only_below_the_long_lengths(monkeypatch, d):
    # from d = 52 on (checked up to 400) the ceiling skips every short
    # length of a cold classification; 51 is the last degree that reads one
    built = []
    real = ranges._max_genera
    monkeypatch.setattr(ranges, "_max_genera", lambda s: built.append(s) or real(s))
    clear_caches()
    acm_genera(d)
    if d in (40, 51):
        assert built and max(built) <= d // 2
    else:
        assert built == []


def test_extremes_against_enumeration():
    for d in range(2, 16):
        for s in range(2, d + 1):
            attained = reference_genera_by_length(d, s)
            assert max_genus(d, s) == max(attained), (d, s)
            assert min_genus(s) == min(attained), (d, s)
            seqs = [h for h in reference_sequences(d) if len(h) == s]
            top = max_oseq(d, s)
            assert all(h == top or total_compare(h, top) == -1 for h in seqs), (d, s)


def test_short_length_tops_are_the_walk_witness():
    # max_oseq rebuilds a short length's top from the row's genus differences;
    # the reference walk finds the first vertex of that genus on its own
    for d in range(4, 46):
        bounds = _kernels.bound_table(d)
        for s in range(2, d // 2 + 1):
            top = max_genus(d, s)
            assert reference_walk(d, s, [top], bounds) == {top: max_oseq(d, s)}, (d, s)


def test_short_length_tops_have_one_sequence():
    # checked by enumeration only: no top-genus shortcut rests on it at short lengths
    for d in range(4, 19):
        for s in range(2, d // 2 + 1):
            top = max_genus(d, s)
            assert [h for h in reference_sequences(d) if len(h) == s and genus(h) == top] == [
                max_oseq(d, s)
            ], (d, s)


def test_max_rows_do_not_depend_on_order():
    pairs = [(d, s) for d in range(2, 61) for s in range(2, d + 1)]
    clear_caches()
    expected = {(d, s): (max_oseq(d, s), max_genus(d, s)) for d, s in pairs}
    shuffled = pairs[:]
    random.Random(3).shuffle(shuffled)
    for order in (pairs[::-1], shuffled):
        clear_caches()
        got = {(d, s): (max_oseq(d, s), max_genus(d, s)) for d, s in order}
        assert got == expected
    for (d, s), (top, g) in expected.items():
        if d <= 14:
            seqs = {h for h in reference_sequences(d) if len(h) == s}
            assert top in seqs and genus(top) == g == max(map(genus, seqs)), (d, s)
    clear_caches()
    assert ranges._row.cache_info().currsize == 0


def test_separated_examples():
    assert separated_after(7) == {5, 6}
    assert separated_after(3) == set()
    with pytest.raises(ValueError):
        separated_after(2)


def test_separated_matches_enumeration():
    for d in range(3, 13):
        expected = {
            s
            for s in range(2, d)
            if max(reference_genera_by_length(d, s)) < min_genus(s + 1) - 1
        }
        assert separated_after(d) == expected, d


def test_is_separated_is_a_gap_of_width_above_one_to_the_next_range():
    # the closed form (2k+1)^2 < 8d - 15, k = d - s, against the exact range
    # endpoints: every long length up to the degree budget, every length to d = 200
    for d in range(3, MAX_DEGREE + 1):
        for s in range(2 if d <= 200 else d // 2 + 1, d):
            assert is_separated(d, s) == (max_genus(d, s) + 1 < min_genus(s + 1)), (d, s)


def test_separated_lengths_form_a_tail():
    for d in range(3, 101):
        seps = sorted(separated_after(d))
        if seps:
            assert seps == list(range(seps[0], d)), d


def test_holes_examples():
    assert holes(28, 24) == [258]
    assert holes(28, 23) == [239, 240]
    assert holes(28, 22) == [222, 223, 224]
    assert holes(15, 11) == [50]  # single hole, d - s - 3 = 1


def test_holes_outside_hypotheses_warn():
    for d, s in [(10, 6), (28, 25), (28, 13), (15, 7)]:
        with pytest.warns(UserWarning):
            assert holes(d, s) == []


def test_holes_are_unattained():
    for d in range(12, 31):
        for s in range(d // 2 + 1, d - 3):
            hs = holes(d, s)
            attained = reference_genera_by_length(d, s) if d <= 15 else None
            if attained is None:
                profile = brute_force_length_profile(d)
                attained = {g for g in range(profile.shape[0]) if profile[g, s]}
            assert not (set(hs) & attained), (d, s)


def _assert_hole_windows_unattained(d):
    profile = _kernels.length_profile(d)
    for s in range(2, d + 1):
        window = hole_window(d, s)
        assert (not window) == (not 7 <= d // 2 + 1 <= s <= d - 4), (d, s)
        if window:
            assert window.stop == max_genus(d, s) and len(window) == d - s - 3, (d, s)
            assert profile[s] >> window.start & ((1 << len(window)) - 1) == 0, (d, s)


def test_hole_windows_unattained_past_brute_force():
    # the per-length profile reaches where the exhaustive oracle cannot
    for d in range(31, 122, 10):
        _assert_hole_windows_unattained(d)


@pytest.mark.slow
def test_hole_windows_unattained_audit():
    for d in range(1, 181):
        _assert_hole_windows_unattained(d)
        clear_caches()  # one degree's profile at a time


def test_no_holes_at_top_lengths():
    for d in range(5, 31):
        profile = brute_force_length_profile(d)
        for s in (d - 1, d - 2, d - 3):
            if s < 2:
                continue
            attained = {g for g in range(profile.shape[0]) if profile[g, s]}
            assert attained == set(range(min_genus(s), max_genus(d, s) + 1)), (d, s)


def test_certified_gaps_d28():
    values = {c.value for c in certified_gaps(28)}
    assert {207, 208, 209, 222, 223, 224, 239, 240, 258} <= values
    assert 188 not in values  # the minimal gap of d=28 needs the search


def test_certified_gaps_d25_count():
    assert len(certified_gaps(25)) == 88


def test_top_hole_formula_is_certified():
    for d in range(12, 41):
        values = {c.value for c in certified_gaps(d)}
        assert d * (d - 11) // 2 + 20 in values, d


def test_certified_gap_reasons_reconstruct():
    # every closed-form certificate must be recomputable from its rule
    for d in (12, 25, 28, 33):
        for cert in certified_gaps(d):
            if cert.reason == "between-ranges":
                assert cert.s in separated_after(d)
                assert closed_max_genus(d, cert.s) < cert.value < min_genus(cert.s + 1)
            else:
                assert cert.reason == "hole-always-gap"
                assert cert.value == closed_max_genus(d, cert.s) - cert.i
                assert cert.s - 1 - binomial(d - cert.s, 2) + cert.i > 0


def test_certified_gaps_ascend_and_equal_the_two_rules():
    for d in range(3, 301):
        values = [c.value for c in certified_gaps(d)]
        assert all(a < b for a, b in zip(values, values[1:])), d
        expected = set()
        for s in separated_after(d):
            expected.update(range(max_genus(d, s) + 1, min_genus(s + 1)))
        if d // 2 + 1 >= 7:
            for s in range(d // 2 + 1, d - 3):
                expected.update(v for v in holes(d, s) if v < min_genus(s + 1))
        assert set(values) == expected, d


def test_certified_gaps_equal_the_reference_loop():
    # the certificates are built from the cached runs on every call: no
    # order of degrees and no cleared cache may change a list
    degrees = list(range(1, 301))
    expected = {d: reference_certified_gaps(d) for d in degrees}
    shuffled = degrees[:]
    random.Random(24).shuffle(shuffled)
    for order in (degrees, degrees[::-1], shuffled):
        clear_caches()
        for d in order:
            got = certified_gaps(d)
            assert got == expected[d], d
            assert all(type(c) is GapCertificate for c in got), d
    for d in degrees[::-1]:
        clear_caches()
        assert certified_gaps(d) == expected[d], d


def test_changing_a_returned_certificate_list_changes_no_later_answer():
    degrees = range(3, 81)
    clear_caches()
    expected = {d: (reference_certified_gaps(d), acm_genera(d).gaps[:]) for d in degrees}
    clear_caches()
    junk = GapCertificate(-1, "between-ranges", 0)
    for d in degrees:
        got = certified_gaps(d)
        gaps = acm_genera(d).gaps
        for returned in (got, gaps):
            returned.reverse()
            returned[len(returned) // 2:] = [junk]
            returned.append(junk)
    for d in degrees:
        assert certified_gaps(d) == expected[d][0], d
        assert acm_genera(d).gaps == expected[d][1], d
    clear_caches()


def test_threads_sharing_the_certificate_rows_agree_with_one_thread():
    # the threads share the cached runs that every list is built from; a
    # race may build a degree's runs twice, but every answer must stay exact
    degrees = list(range(3, 161))
    expected = {d: reference_certified_gaps(d) for d in degrees}
    orders = [random.Random(i).sample(degrees, len(degrees)) for i in range(6)]
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def ask(i):
        start.wait()
        results[i] = {d: certified_gaps(d) for d in orders[i]}

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
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(orders)
    clear_caches()


def _value_mask(values) -> int:
    """The bitmask of ``values``, one byte write per value rather than one big-integer OR."""
    values = list(values)
    buf = bytearray(max(values, default=0) // 8 + 1)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _assert_runs_equal_the_reference(degrees):
    for d in degrees:
        runs = certified_runs(d)
        assert all(0 <= start < stop <= binomial(d - 1, 2) + 1 for start, stop, *_ in runs), d
        assert all(a[1] <= b[0] for a, b in zip(runs, runs[1:])), d  # ascending and disjoint
        assert max(Counter(run[3] for run in runs).values(), default=0) <= 2, d
        expanded = [
            GapCertificate(v, reason, s, top - v if reason == "hole-always-gap" else None)
            for start, stop, reason, s, top in runs
            for v in range(start, stop)
        ]
        reference = reference_certified_gaps(d)
        assert expanded == reference, d
        mask = 0
        for start, stop, *_ in runs:
            mask |= ((1 << (stop - start)) - 1) << start
        assert mask == _value_mask(c.value for c in reference), d


def test_certified_runs_equal_the_reference():
    _assert_runs_equal_the_reference(range(1, 301))


def test_certified_runs_are_pinned_up_to_the_degree_budget():
    # the reference above reads closed_max_genus and is_separated, as certified_runs
    # does, so only this digest sees an edit to a rule function that both would follow
    digest = hashlib.sha256(repr([certified_runs(d) for d in range(1, MAX_DEGREE + 1)]).encode()).hexdigest()
    assert digest == "c5ac5b298a75ea4fbf0bc76706ce1d1e68036352c096ed4dc6122fb0e2c622bb"


def test_certified_runs_lie_at_the_lengths_where_a_rule_can_hold():
    # a hole run needs C(k,2) < d - 4 and a between-range run C(k+1,2) < d - 2,
    # k = d - s, so certified_runs starts its pass at the largest k with C(k,2) < d - 2
    for d in range(1, MAX_DEGREE + 1):
        assert all(binomial(d - s, 2) < d - 2 for _, _, _, s, _ in certified_runs(d)), d


@pytest.mark.slow
def test_certified_runs_equal_the_reference_up_to_the_degree_budget():
    _assert_runs_equal_the_reference(range(301, MAX_DEGREE + 1))


def test_certified_gaps_sound():
    for d in range(3, 31):
        certified = {c.value for c in certified_gaps(d)}
        assert not (certified & set(brute_force_genera(d))), d


def test_range_complement_subsumed_by_certificates():
    for d in range(3, 61):
        certified = {c.value for c in certified_gaps(d)}
        assert set(range_complement(d)) <= certified, d


def test_range_table_and_genus_range():
    rows = range_table(7)
    assert [(r.s, r.min_genus, r.max_genus) for r in rows] == [
        (2, 0, 0),
        (3, 1, 3),
        (4, 3, 6),
        (5, 6, 7),
        (6, 10, 10),
        (7, 15, 15),
    ]
    r = genus_range(10, 4)
    assert (r.min_genus, r.max_genus) == (3, 11)
    assert genus(r.max_witness) == r.max_genus
    assert genus(r.min_witness) == r.min_genus
    assert not r.separated
