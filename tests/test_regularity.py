from math import comb

import pytest

from acmgenera import (
    UnattainableGenusError,
    acm_genera,
    genus,
    hilbert_data,
    min_acm_regularity,
    multiplicity,
)
from acmgenera._kernels import search_fixed_both
from acmgenera.search import brute_force_length_profile
from conftest import reference_sequences


def test_example_15_32():
    answer = min_acm_regularity(15, 32)
    assert answer.min_regularity == 8
    assert answer.postulation_regularity == 6
    assert len(answer.witness) == 8
    assert multiplicity(answer.witness) == 15 and genus(answer.witness) == 32


def test_hole_attained_at_longer_length():
    # 25 is missed at length 5 for degree 15 but found at length 6
    answer = min_acm_regularity(15, 25)
    assert answer.min_regularity == 6
    assert genus(answer.witness) == 25


def test_genus_zero():
    for d in range(2, 12):
        answer = min_acm_regularity(d, 0)
        assert answer.min_regularity == 2
        assert answer.witness == (1, d - 1)
        assert answer.postulation_regularity == 0
    assert min_acm_regularity(1, 0).witness == (1,)


def test_gap_raises():
    with pytest.raises(UnattainableGenusError) as exc:
        min_acm_regularity(12, 26)
    assert exc.value.kind == "gap"


def test_out_of_range_raises():
    with pytest.raises(UnattainableGenusError) as exc:
        min_acm_regularity(5, 7)  # C(4,2) = 6 is the top
    assert exc.value.kind == "out-of-range"
    with pytest.raises(ValueError):
        min_acm_regularity(0, 0)
    with pytest.raises(ValueError):
        min_acm_regularity(4, -1)


def test_matches_exhaustive_minimum_length():
    for d in range(1, 21):
        best: dict[int, int] = {}
        for h in reference_sequences(d):
            g = genus(h)
            best[g] = min(best.get(g, 99), len(h))
        for g, expected in sorted(best.items()):
            answer = min_acm_regularity(d, g)
            assert answer.min_regularity == expected, (d, g)
            assert answer.postulation_regularity == expected - 2
            assert len(answer.witness) == expected


def test_errors_exactly_on_gaps():
    for d in range(3, 21):
        genera = set(acm_genera(d).genera)
        profile = brute_force_length_profile(d)
        for g in range(profile.shape[0]):
            if g in genera:
                assert min_acm_regularity(d, g).g == g
            else:
                with pytest.raises(UnattainableGenusError):
                    min_acm_regularity(d, g)


def test_witness_hilbert_function_stabilizes_at_rho():
    for d, g in [(15, 32), (15, 25), (12, 21), (9, 7), (20, 40)]:
        answer = min_acm_regularity(d, g)
        rho = answer.postulation_regularity
        data = hilbert_data(answer.witness, rho + 3)
        for t in range(rho, rho + 4):
            assert data.curve[t] == d * t + 1 - g
        if rho >= 1:
            assert data.curve[rho - 1] != d * (rho - 1) + 1 - g


def _scan_every_length(d, g):
    """(length, witness) of the first length whose search finds g, or None."""
    for s in range(2, d + 1):
        found = search_fixed_both(d, s, [g])
        if g in found:
            return s, found[g]
    return None


def test_answers_match_a_search_at_every_length():
    for d in range(2, 23):
        for g in range(comb(d - 1, 2) + 1):
            expected = _scan_every_length(d, g)
            if expected is None:
                with pytest.raises(UnattainableGenusError) as exc:
                    min_acm_regularity(d, g)
                assert exc.value.kind == "gap", (d, g)
            else:
                answer = min_acm_regularity(d, g)
                assert (answer.min_regularity, answer.witness) == expected, (d, g)
