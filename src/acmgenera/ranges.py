"""Genus ranges by length, their extremes, and closed-form gap certificates.

For a degree ``d`` the genus of an aCM curve lies in ``[0, C(d-1,2)]``.
Restricting the h-vector length to ``s`` confines it further to the
``(d, s)``-range ``[C(s-1,2), max_genus(d, s)]``.  At a long length,
``s >= d//2 + 1``, the maximum is the closed form ``C(s-1,2) + C(d-s,2)``,
attained by ``(1, 2^(d-s), 1^(2s-d-1))``.  At a shorter length it comes from
an exact one-unit-per-step recursion in the multiplicity, kept as one row per
length: the top genera so far, resumed from a generator on demand, so every
degree shares the steps of the smaller ones and ``max_genus`` is a lookup; a
step's raised index is its genus difference plus one, so ``max_oseq`` reads
its sequence back from the same row.  :func:`max_genus` and :func:`max_oseq`
alone choose between the two.

Two closed-form rules certify gaps without any search: the integers strictly
between a range and the next one when those are separated, and the top few
values of a range ("holes") when they fall below the next range's minimum.
The holes of a length that a longer length may still reach are not gaps,
but no sequence of that length attains them, so the classification's
search at that length leaves them out (:func:`hole_window`).  Both rules
are kept as runs of consecutive values, at most two per length
(:func:`certified_runs`), composed from the functions that define the
rules: :func:`closed_max_genus`, :func:`min_genus`, :func:`_hole_count`
and :func:`is_separated`.  A certificate is built only when a list of them
is asked for (:func:`certified_gaps`).
"""
from __future__ import annotations

import threading
import warnings
from functools import cache
from itertools import islice, repeat
from math import isqrt
from typing import Iterator, NamedTuple, Optional

from .errors import EmptyFamilyError, _check_degree
from .macaulay import binomial, genus, macaulay_bound


def min_genus(s: int) -> int:
    """Smallest genus over all multiplicities for h-vectors of length ``s``."""
    if s < 1:
        raise ValueError("length must be >= 1")
    return binomial(s - 1, 2)


def min_oseq(d: int, s: int) -> tuple[int, ...]:
    """The genus-minimal O-sequence of multiplicity ``d`` and length ``s``."""
    if s < 1 or d < s:
        raise EmptyFamilyError(f"no O-sequence has multiplicity {d} and length {s}")
    if d == s:
        return (1,) * s
    if s == 1:
        raise EmptyFamilyError(f"no O-sequence of length 1 has multiplicity {d}")
    return (1, d - s + 1) + (1,) * (s - 2)


def _max_genera(s: int) -> Iterator[int]:
    """The top genus of length s at multiplicities s, s + 1, and so on.

    Each step increments the highest index that keeps the sequence
    admissible (position 1 is always legal) and raises the genus by that
    index minus 1.  Bit j of ``grow`` says whether h_j can be incremented,
    h_j + 1 <= macaulay_bound(h_{j-1}, j - 1), so the index is
    ``grow.bit_length() - 1``.  Raising h_i changes that test only at i,
    whose entry grew, and at i + 1, whose bound grew, so only those two
    bits are tested again.
    """
    h, g, grow = [1] * s, binomial(s - 1, 2), 0b10
    while True:
        yield g
        i = grow.bit_length() - 1
        h[i] += 1
        g += i - 1
        for j in range(max(i, 2), min(i + 2, s)):
            if h[j] + 1 <= macaulay_bound(h[j - 1], j - 1):
                grow |= 1 << j
            else:
                grow &= ~(1 << j)


def _grown(memo: tuple[list, Iterator, threading.Lock], n: int) -> list:
    """A memo's items, grown from its rest under its lock until they number n or the rest ends.

    A memo that grows on demand is (items, rest, lock): the results so far,
    the iterator that yields the next ones, and the lock that serialises
    growth.  The length is read before the lock, so a read of what is
    already built takes none.
    """
    items, rest, lock = memo
    if len(items) < n:
        with lock:
            items.extend(islice(rest, max(0, n - len(items))))
    return items


@cache
def _row(s: int) -> tuple[list[int], Iterator[int], threading.Lock]:
    """The length-s row so far, kept across degrees: (genera, the generator to resume, its lock)."""
    return [], _max_genera(s), threading.Lock()


def _max_row(d: int, s: int) -> list[int]:
    """The top genera of length s through multiplicity ``d``; asked for only at s <= d//2."""
    if s < 2:
        raise EmptyFamilyError(f"no O-sequence of length {s} has multiplicity {d}")
    if d < s:
        raise EmptyFamilyError(f"no O-sequence has multiplicity {d} and length {s}")
    _check_degree(d)
    return _grown(_row(s), d - s + 1)


def max_oseq(d: int, s: int) -> tuple[int, ...]:
    """The genus-maximal O-sequence of multiplicity ``d`` and length ``s``.

    At ``d//2 + 1 <= s <= d`` it is the closed form :func:`closed_max_oseq`.
    Below, it is built one multiplicity at a time from ``(1^s)``: each step
    increments the entry at the highest index that keeps the sequence
    admissible (position 1 is always legal), so the genus rises by that
    index minus 1.  Each step is read back from the length-s row of top
    genera, which every degree shares, as its genus difference plus one.
    """
    if d // 2 + 1 <= s <= d:
        _check_degree(d)
        return closed_max_oseq(d, s)
    genera = _max_row(d, s)
    h = [1] * s
    for g, g_next in zip(genera, islice(genera, 1, d - s + 1)):
        h[g_next - g + 1] += 1
    return tuple(h)


def max_genus(d: int, s: int) -> int:
    """Largest genus attained by an O-sequence of multiplicity ``d``, length ``s``.

    At ``d//2 + 1 <= s <= d`` it is the closed form :func:`closed_max_genus`;
    below, a lookup in the length-s row of :func:`max_oseq`'s recursion.
    """
    if d // 2 + 1 <= s <= d:
        _check_degree(d)
        return closed_max_genus(d, s)
    return _max_row(d, s)[d - s]


def closed_max_genus(d: int, s: int) -> int:
    """Closed form C(s-1,2) + C(d-s,2) of the maximal genus; valid for d//2 + 1 <= s <= d."""
    if not d // 2 + 1 <= s <= d:
        raise ValueError(f"closed form needs d//2 + 1 <= s <= d, got (d={d}, s={s})")
    return binomial(s - 1, 2) + binomial(d - s, 2)


def closed_max_oseq(d: int, s: int) -> tuple[int, ...]:
    """Closed form (1, 2^(d-s), 1^(2s-d-1)) of the maximal O-sequence; d//2 + 1 <= s <= d."""
    if not d // 2 + 1 <= s <= d:
        raise ValueError(f"closed form needs d//2 + 1 <= s <= d, got (d={d}, s={s})")
    return (1,) + (2,) * (d - s) + (1,) * (2 * s - d - 1)


class GenusRange(NamedTuple):
    """One (d, s)-range with its extreme genera and their witnesses."""

    d: int
    s: int
    min_genus: int
    max_genus: int
    min_witness: tuple[int, ...]
    max_witness: tuple[int, ...]
    separated: bool  # gap of width > 1 between this range and the next one up


def is_separated(d: int, s: int) -> bool:
    """True when every integer between range ``s`` and range ``s+1`` is a gap.

    Evaluated exactly: the real-root condition on ``s`` is squared and
    cleared of denominators, so no floating point is involved.
    """
    return 2 <= s <= d - 1 and (2 * d + 1 - 2 * s) ** 2 < 8 * d - 15


def separated_after(d: int) -> set[int]:
    """All lengths ``s`` whose range is separated from the range of ``s+1``."""
    if d <= 2:
        raise ValueError("separated ranges are only defined for d > 2")
    return {s for s in range(2, d) if is_separated(d, s)}


def genus_range(d: int, s: int) -> GenusRange:
    top = max_oseq(d, s)
    return GenusRange(d, s, min_genus(s), genus(top), min_oseq(d, s), top, is_separated(d, s))


def range_table(d: int) -> list[GenusRange]:
    """The ranges for every length ``s = 2 .. d`` (``s = 1`` when d = 1)."""
    _check_degree(d)
    return [genus_range(d, s) for s in range(min(d, 2), d + 1)]


def _hole_count(d: int, s: int) -> int:
    """How many values below the top of the (d, s)-range are holes: d - s - 3, or 0 outside the rule."""
    return d - s - 3 if 7 <= d // 2 + 1 <= s <= d - 4 else 0


def hole_window(d: int, s: int) -> range:
    """The hole values of the (d, s)-range, ascending: its top d - s - 3 values below the maximum.

    No O-sequence of multiplicity ``d`` and length ``s`` has a genus in
    ``range(top - (d - s - 3), top)``, ``top = max_genus(d, s)``.  The rule
    holds for ``7 <= d//2 + 1 <= s <= d - 4``; elsewhere the window is empty.
    """
    count = _hole_count(d, s)
    if not count:
        return range(0)
    top = closed_max_genus(d, s)
    return range(top - count, top)


def holes(d: int, s: int) -> list[int]:
    """The values just below the top of the (d, s)-range that length ``s`` never attains.

    They are unattained *at length s* only: a longer or shorter length may
    still reach them.  Step 3 of the classification relies on it and leaves
    them out of the length-s search.  Valid for ``7 <= d//2 + 1 <= s <= d - 4``;
    outside that window the statement is silent, so an empty list is
    returned with a warning.
    """
    window = hole_window(d, s)
    if not window:
        warnings.warn(
            f"hole rule does not apply for (d={d}, s={s}); returning no holes",
            stacklevel=2,
        )
        return []
    return list(window)


class GapCertificate(NamedTuple):
    """Why one integer cannot be the genus of an aCM curve of degree ``d``.

    ``reason`` is ``"between-ranges"`` or ``"hole-always-gap"`` for the two
    closed-form rules (reproducible from formulas alone) and ``"searched"``
    for values ruled out by exhausting the relevant search trees.
    """

    value: int
    reason: str
    s: Optional[int] = None
    i: Optional[int] = None


@cache
def certified_runs(d: int) -> tuple[tuple[int, int, str, int, int], ...]:
    """The closed-form gaps as ascending runs ``(start, stop, reason, s, top)``, at most two per length.

    A run certifies ``range(start, stop)`` at length ``s``, whose range tops
    out at ``top = closed_max_genus(d, s)``: first the holes
    (:func:`_hole_count`) below the next range's minimum ``min_genus(s + 1)``,
    then the integers up to that minimum when :func:`is_separated` holds.
    Both rules apply only from ``s = d//2 + 1`` on, and length ``s``
    certifies only values in ``[min_genus(s), min_genus(s + 1))``, so one
    ascending pass over the long lengths yields the runs in order.  With
    k = d - s the next minimum lies ``d - k - 1`` above ``C(s-1,2)`` and the
    top ``C(k,2)`` above it, so a hole run needs ``C(k,2) < d - 4`` and a
    between-range run ``C(k+1,2) < d - 2``.  Both need ``C(k,2) < d - 2``,
    so the pass starts at the largest such k, about ``sqrt(2d)``, and skips
    the lengths below.  Cached by degree, so a classification's step 2 ORs
    them into its mask and each read of its gaps expands them again
    (:func:`certified_gaps`).
    """
    _check_degree(d)
    runs: list[tuple[int, int, str, int, int]] = []
    k = (1 + isqrt(max(8 * d - 16, 0))) // 2  # the largest k with C(k,2) < d - 2
    for s in range(max(d // 2 + 1, d - k), d):
        top, nxt = closed_max_genus(d, s), min_genus(s + 1)
        start, stop = top - _hole_count(d, s), min(top, nxt)
        if start < stop:
            runs.append((start, stop, "hole-always-gap", s, top))
        if is_separated(d, s):
            runs.append((top + 1, nxt, "between-ranges", s, top))
    return tuple(runs)


def certified_gaps(d: int) -> list[GapCertificate]:
    """All gaps certified by closed formulas, sorted by value: the runs of :func:`certified_runs`.

    Combines the separated-range rule with the hole values that fall
    strictly below the next range's minimum (hole ``i`` is ``top - i``).
    The separated lengths form an upward-closed tail of 2..d-1, so the
    between-range intervals are also exactly the integers covered by no
    range at all; the tests hold this set to a reference that computes that
    complement from the exact range endpoints.

    Each run is expanded into its certificates on every call, so the list
    and the certificates in it are new each time and nothing is kept.
    """
    out: list[GapCertificate] = []
    for start, stop, reason, s, top in certified_runs(d):
        i = range(top - start, top - stop, -1) if reason == "hole-always-gap" else repeat(None)
        # tuple.__new__ builds each GapCertificate without the NamedTuple's per-call __new__
        out += map(tuple.__new__, repeat(GapCertificate), zip(range(start, stop), repeat(reason), repeat(s), i))
    return out
