import itertools

import pytest

from acmgenera import (
    BudgetError,
    binomial,
    expand,
    format_oseq,
    genus,
    hilbert_data,
    is_admissible,
    macaulay_bound,
    multiplicity,
    parse_oseq,
)
from acmgenera.macaulay import MAX_TMAX
from conftest import pascal_admissible, reference_sequences


def test_binomial_conventions():
    assert binomial(4, 3) == 4
    assert binomial(2, 5) == 0  # zero whenever n < m
    assert binomial(7, 0) == 1  # C(n, 0) = 1 for every n
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_expand_examples():
    assert expand(7, 3).terms == ((4, 3), (3, 2))
    assert expand(6, 2).terms == ((4, 2),)
    for t in range(1, 10):
        assert expand(1, t).terms == ((t, t),)
    with pytest.raises(ValueError):
        expand(0, 3)


def test_expand_round_trip():
    for a in range(1, 501):
        for t in range(1, 21):
            e = expand(a, t)
            assert e.value() == a
            ks = [k for k, _ in e.terms]
            bases = [i for _, i in e.terms]
            assert all(x > y for x, y in zip(ks, ks[1:]))
            assert bases == list(range(t, t - len(bases), -1))
            assert ks[-1] >= bases[-1] >= 1


def test_expand_is_greedy():
    # each k is the largest with C(k, i) <= what is left, so C(k+1, i) exceeds it
    for a, t in [(10**12, 1), (10**12, 2), (10**18, 2), (10**18, 7), (999_983, 5)]:
        rem = a
        for k, i in expand(a, t).terms:
            assert binomial(k, i) <= rem < binomial(k + 1, i), (a, t, k, i)
            rem -= binomial(k, i)
        assert rem == 0


def test_macaulay_bound_of_a_huge_entry():
    # the expansion does not step through every k up to the entry
    assert macaulay_bound(10**12, 1) == binomial(10**12 + 1, 2)
    assert macaulay_bound(10**18, 2) == expand(10**18, 2).shifted_sum()
    assert is_admissible((1, 10**12, 5))


def test_macaulay_bound_examples():
    assert macaulay_bound(3, 1) == 6  # 3 = C(3,1) shifts to C(4,2)
    assert macaulay_bound(7, 3) == 9  # C(5,4) + C(4,3)
    for t in range(1, 12):
        assert macaulay_bound(1, t) == 1
    assert macaulay_bound(0, 4) == 0  # a vanished sequence stays zero


def test_macaulay_bound_strictly_monotone():
    for t in range(1, 31):
        prev = macaulay_bound(1, t)
        for a in range(2, 202):
            cur = macaulay_bound(a, t)
            assert cur > prev, (a, t)
            prev = cur


def test_is_admissible_examples():
    assert is_admissible((1, 3, 6, 10))  # every bound met with equality
    assert not is_admissible((1, 2, 4))  # 4 > bound(2, 1) = 3
    assert is_admissible((1, 2, 3, 1))
    assert is_admissible((1,))
    assert is_admissible((1, 99))  # second entry is unconstrained


def test_is_admissible_malformed():
    assert not is_admissible(())
    assert not is_admissible((2, 1))
    assert not is_admissible((1, 0, 1))
    assert not is_admissible((1, -2))
    assert not is_admissible((1, 2.5))
    assert not is_admissible((1, True))
    assert not is_admissible(5)


def _all_candidates(max_mult):
    """Every positive integer tuple starting with 1 of multiplicity <= max_mult."""
    for total in range(1, max_mult + 1):
        rest = total - 1
        if rest == 0:
            yield (1,)
            continue
        for nparts in range(1, rest + 1):
            for cuts in itertools.combinations(range(1, rest), nparts - 1):
                parts = []
                prev = 0
                for c in list(cuts) + [rest]:
                    parts.append(c - prev)
                    prev = c
                yield (1, *parts)


def test_is_admissible_matches_pascal_recheck():
    n = 0
    for cand in _all_candidates(12):
        assert is_admissible(cand) == pascal_admissible(cand), cand
        n += 1
    assert n == 2**11  # all compositions with first part 1, multiplicity <= 12


def test_genus_examples():
    assert genus((1, 2, 3, 1)) == 5
    assert genus((1, 6, 4, 2, 1)) == 11
    assert genus((1, 4, 7, 1, 1)) == 12
    assert genus((1, 4, 6, 2, 1)) == 13
    assert genus((1,)) == 0
    assert genus((1, 7)) == 0
    assert genus((1, 3, 3, 4, 2, 2)) == 25


def test_genus_ignores_second_entry():
    # adding or removing a unit at position 1 changes the degree, not the genus
    for d in range(2, 11):
        for h in reference_sequences(d):
            up = (1, h[1] + 1) + h[2:]
            assert is_admissible(up)
            assert genus(up) == genus(h)


def _integrate_twice(h, tmax):
    hz = [sum(h[: t + 1]) if t < len(h) else sum(h) for t in range(tmax + 1)]
    hc = list(itertools.accumulate(hz))
    return hz, hc


def test_hilbert_data_examples():
    data = hilbert_data((1, 1), 3)
    assert data.zero_dim == (1, 2, 2, 2)
    assert data.curve == (1, 3, 5, 7)
    assert data.polynomial == (2, 1)  # plane conic: 2t + 1

    data = hilbert_data((1, 2, 1), 3)
    hz, hc = _integrate_twice((1, 2, 1), 3)
    assert list(data.zero_dim) == hz
    assert list(data.curve) == hc
    assert data.curve == (1, 4, 8, 12)
    assert data.polynomial == (4, 0)
    assert genus((1, 2, 1)) == 1

    with pytest.raises(ValueError):
        hilbert_data((1, 2, 4), 3)
    with pytest.raises(ValueError):
        hilbert_data((1, 1), -1)
    assert len(hilbert_data((1, 1), MAX_TMAX).curve) == MAX_TMAX + 1
    with pytest.raises(BudgetError):
        hilbert_data((1, 1), MAX_TMAX + 1)


def test_hilbert_polynomial_holds_from_postulation_regularity():
    for d in range(3, 13):
        for h in reference_sequences(d):
            s = len(h)
            if s < 3:
                continue
            data = hilbert_data(h, s + 2)
            g = genus(h)
            for t in range(s - 2, s + 3):
                assert data.curve[t] == d * t + 1 - g, (h, t)
            assert data.curve[s - 3] != d * (s - 3) + 1 - g, h
            assert data.postulation_regularity == s - 2


def test_genus_agrees_with_hilbert_polynomial_form():
    # the weighted-sum genus must satisfy g = 1 + (s-2)*d - H_C(s-2)
    for d in range(2, 13):
        for h in reference_sequences(d):
            s = len(h)
            if s < 2:
                continue
            data = hilbert_data(h, s)
            assert genus(h) == 1 + (s - 2) * d - data.curve[s - 2], h


def test_parse_and_format():
    assert parse_oseq("1,2,3,1") == (1, 2, 3, 1)
    assert parse_oseq("1,2^3,1^2") == (1, 2, 2, 2, 1, 1)
    assert parse_oseq(" 1 , 4 ") == (1, 4)
    assert format_oseq((1, 2, 2, 2, 1, 1)) == "1,2,2,2,1,1"  # never exponent form
    assert parse_oseq(format_oseq((1, 5, 2))) == (1, 5, 2)
    with pytest.raises(ValueError):
        parse_oseq("1,,2")
    with pytest.raises(ValueError):
        parse_oseq("1,2^0")
    with pytest.raises(ValueError):
        parse_oseq("")
    assert len(parse_oseq("1^1000")) == 1000  # the degree budget itself is allowed
    with pytest.raises(BudgetError):
        parse_oseq("1,1^1000")


def test_multiplicity():
    assert multiplicity((1, 2, 3, 1)) == 7
    assert multiplicity((1,)) == 1
