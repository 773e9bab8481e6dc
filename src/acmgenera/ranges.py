"""Genus ranges by length, their extremes, and closed-form gap certificates.

For a degree ``d`` the genus of an aCM curve lies in ``[0, C(d-1,2)]``.
Restricting the h-vector length to ``s`` confines it further to the
``(d, s)``-range ``[C(s-1,2), max_genus(d, s)]``.  At a long length,
``s >= d//2 + 1``, the maximum is the closed form ``C(s-1,2) + C(d-s,2)``,
attained by ``(1, 2^(d-s), 1^(2s-d-1))``.  At a shorter length it comes from
an exact one-unit-per-step recursion in the multiplicity, kept as one row per
length: the positions incremented and the running genus, extended on demand,
so every degree shares the steps of the smaller ones and ``max_genus`` is a
lookup.  :func:`max_genus` and :func:`max_oseq` alone choose between the two.

Two closed-form rules certify gaps without any search: the integers strictly
between a range and the next one when those are separated, and the top few
values of a range ("holes") when they fall below the next range's minimum.
The holes of a length that a longer length may still reach are not gaps,
but no sequence of that length attains them, so the classification's
search at that length leaves them out (:func:`hole_window`).
"""
from __future__ import annotations

import threading
import warnings
from functools import cache
from itertools import repeat
from typing import NamedTuple, Optional

from .errors import EmptyFamilyError, _check_degree
from .macaulay import binomial, genus, macaulay_bound


def min_genus(s: int) -> int:
    """Smallest genus over all multiplicities for h-vectors of length ``s``."""
    if s < 1:
        raise ValueError("length must be >= 1")
    return binomial(s - 1, 2)


def min_oseq(d: int, s: int) -> tuple[int, ...]:
    """The genus-minimal O-sequence of multiplicity ``d`` and length ``s``."""
    if d < s:
        raise EmptyFamilyError(f"no O-sequence has multiplicity {d} and length {s}")
    if d == s:
        return (1,) * s
    if s == 1:
        raise EmptyFamilyError(f"no O-sequence of length 1 has multiplicity {d}")
    return (1, d - s + 1) + (1,) * (s - 2)


class _MaxRow:
    """The genus-maximal sequences of one length s, one multiplicity at a time.

    ``steps[m - s - 1]`` is the position incremented to go from multiplicity
    m - 1 to m, and ``genera[m - s]`` is the genus at multiplicity m.  ``h``
    is the sequence at the last multiplicity reached and ``last`` the highest
    index holding an entry >= 2 (0 while there is none).  ``lock`` guards
    :meth:`extend_to`.
    """

    __slots__ = ("h", "steps", "genera", "last", "lock")

    def __init__(self, s: int):
        self.h = [1] * s
        self.steps: list[int] = []
        self.genera = [binomial(s - 1, 2)]
        self.last = 0
        self.lock = threading.Lock()

    def extend_to(self, d: int):
        """Take the row on to multiplicity ``d``.

        Each step increments the highest index that keeps the sequence
        admissible (position 1 is always legal).  Every entry past ``last``
        is 1 and macaulay_bound(1, t) = 1, so no index above ``last + 1``
        can pass and the scan starts there.
        """
        h, steps, genera = self.h, self.steps, self.genera
        s = len(h)
        for _ in range(len(steps) + s, d):
            i = min(s - 1, self.last + 1)
            while i > 1 and h[i] + 1 > macaulay_bound(h[i - 1], i - 1):
                i -= 1
            h[i] += 1
            if i > self.last:
                self.last = i
            steps.append(i)
            genera.append(genera[-1] + i - 1)


@cache
def _row(s: int) -> _MaxRow:
    """The length-s row, kept across degrees."""
    return _MaxRow(s)


def _max_row(d: int, s: int) -> _MaxRow:
    """The length-s row, extended through multiplicity ``d``; asked for only at s <= d//2."""
    if s < 2:
        raise EmptyFamilyError(f"no O-sequence of length {s} has multiplicity {d}")
    if d < s:
        raise EmptyFamilyError(f"no O-sequence has multiplicity {d} and length {s}")
    _check_degree(d)
    row = _row(s)
    with row.lock:
        row.extend_to(d)
    return row


def max_oseq(d: int, s: int) -> tuple[int, ...]:
    """The genus-maximal O-sequence of multiplicity ``d`` and length ``s``.

    At ``d//2 + 1 <= s <= d`` it is the closed form :func:`closed_max_oseq`.
    Below, it is built one multiplicity at a time from ``(1^s)``: each step
    increments the entry at the highest index that keeps the sequence
    admissible (position 1 is always legal).  One row per length keeps the
    steps, so a degree reuses those of smaller degrees.
    """
    if d // 2 + 1 <= s <= d:
        _check_degree(d)
        return closed_max_oseq(d, s)
    row = _max_row(d, s)
    h = [1] * s
    for i in row.steps[: d - s]:
        h[i] += 1
    return tuple(h)


def max_genus(d: int, s: int) -> int:
    """Largest genus attained by an O-sequence of multiplicity ``d``, length ``s``.

    At ``d//2 + 1 <= s <= d`` it is the closed form :func:`closed_max_genus`;
    below, a lookup in the length-s row of :func:`max_oseq`'s recursion.
    """
    if d // 2 + 1 <= s <= d:
        _check_degree(d)
        return closed_max_genus(d, s)
    return _max_row(d, s).genera[d - s]


def closed_max_genus(d: int, s: int) -> int:
    """Closed form C(s-1,2) + C(d-s,2) of the maximal genus; valid for s >= d//2 + 1."""
    if s < d // 2 + 1:
        raise ValueError(f"closed form needs s >= d//2 + 1, got (d={d}, s={s})")
    return binomial(s - 1, 2) + binomial(d - s, 2)


def closed_max_oseq(d: int, s: int) -> tuple[int, ...]:
    """Closed form (1, 2^(d-s), 1^(2s-d-1)) of the maximal O-sequence; s >= d//2 + 1."""
    if s < d // 2 + 1:
        raise ValueError(f"closed form needs s >= d//2 + 1, got (d={d}, s={s})")
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
    if not 2 <= s <= d - 1:
        return False
    return (2 * d + 1 - 2 * s) ** 2 < 8 * d - 15


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


def certified_runs(d: int) -> list[tuple[int, int, str, int, int]]:
    """The closed-form gaps as ascending runs ``(start, stop, reason, s, top)``, at most two per length.

    A run certifies ``range(start, stop)`` at length ``s``, whose range tops
    out at ``top``: first the holes below the next range's minimum, then the
    integers up to that minimum when the two ranges are separated.
    """
    _check_degree(d)
    runs: list[tuple[int, int, str, int, int]] = []
    # Both rules start at s = d//2 + 1 (below it (2d+1-2s)^2 >= 8d-15, so no
    # s is separated), and length s certifies only values in [C(s-1,2),
    # C(s,2)): holes inside its range below the top, between-range values
    # above the top and below min_genus(s+1).  So one ascending pass over s,
    # holes first, yields the runs in order.
    for s in range(d // 2 + 1, d):
        top = closed_max_genus(d, s)
        nxt = min_genus(s + 1)
        start, stop = top - _hole_count(d, s), min(top, nxt)
        if start < stop:
            runs.append((start, stop, "hole-always-gap", s, top))
        if is_separated(d, s):
            runs.append((top + 1, nxt, "between-ranges", s, top))
    return runs


def certified_gaps(d: int) -> list[GapCertificate]:
    """All gaps certified by closed formulas, sorted by value: :func:`certified_runs`, value by value.

    Combines the separated-range rule with the hole values that fall
    strictly below the next range's minimum (hole ``i`` is ``top - i``).
    The separated lengths form an upward-closed tail of 2..d-1, so the
    between-range intervals are also exactly the integers covered by no
    range at all; the tests hold this set to a reference that computes that
    complement from the exact range endpoints.
    """
    out: list[GapCertificate] = []
    for start, stop, reason, s, top in certified_runs(d):
        i = range(top - start, top - stop, -1) if reason == "hole-always-gap" else repeat(None)
        # tuple.__new__ builds each GapCertificate without the NamedTuple's per-call __new__
        out.extend(map(tuple.__new__, repeat(GapCertificate),
                       zip(range(start, stop), repeat(reason), repeat(s), i)))
    return out
