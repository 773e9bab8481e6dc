"""Genus ranges by length, their extremes, and closed-form gap certificates.

For a degree ``d`` the genus of an aCM curve lies in ``[0, C(d-1,2)]``.
Restricting the h-vector length to ``s`` confines it further to the
``(d, s)``-range ``[C(s-1,2), max_genus(d, s)]``.  The maximum is computed by
an exact one-unit-per-step recursion in the multiplicity; for
``s >= d//2 + 1`` it collapses to the closed form ``C(s-1,2) + C(d-s,2)``.
The recursion is kept as one row per length: the positions incremented and
the running genus, extended on demand, so every degree shares the steps of
the smaller ones and ``max_genus`` is a lookup.

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
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple, Optional

from ._kernels import _check_degree
from .errors import EmptyFamilyError
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
    index holding an entry >= 2 (0 while there is none).
    """

    __slots__ = ("h", "steps", "genera", "last")

    def __init__(self, s: int):
        self.h = [1] * s
        self.steps: list[int] = []
        self.genera = [binomial(s - 1, 2)]
        self.last = 0

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


_max_rows: dict[int, _MaxRow] = {}
_max_lock = threading.Lock()


def _max_row(d: int, s: int) -> _MaxRow:
    """The length-s row, extended through multiplicity ``d``."""
    if s < 2 and (d, s) != (1, 1):
        raise EmptyFamilyError(f"no O-sequence of length {s} has multiplicity {d}")
    if d < s:
        raise EmptyFamilyError(f"no O-sequence has multiplicity {d} and length {s}")
    _check_degree(d)
    with _max_lock:
        row = _max_rows.get(s)
        if row is None:
            row = _max_rows[s] = _MaxRow(s)
        row.extend_to(d)
        return row


def max_oseq(d: int, s: int) -> tuple[int, ...]:
    """The genus-maximal O-sequence of multiplicity ``d`` and length ``s``.

    Built one multiplicity at a time from ``(1^s)``: each step increments the
    entry at the highest index that keeps the sequence admissible (position 1
    is always legal).  One row per length keeps the steps, so a degree reuses
    those of smaller degrees.
    """
    row = _max_row(d, s)
    h = [1] * s
    for i in row.steps[: d - s]:
        h[i] += 1
    return tuple(h)


def max_genus(d: int, s: int) -> int:
    """Largest genus attained by an O-sequence of multiplicity ``d``, length ``s``."""
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


@dataclass(frozen=True)
class GenusRange:
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
    """The ranges for every length ``s = 2 .. d`` (plus ``s = 1`` when d = 1)."""
    _check_degree(d)
    if d == 1:
        return [GenusRange(1, 1, 0, 0, (1,), (1,), False)]
    return [genus_range(d, s) for s in range(2, d + 1)]


def hole_window(d: int, s: int) -> range:
    """The hole values of the (d, s)-range, ascending: its top d - s - 3 values below the maximum.

    No O-sequence of multiplicity ``d`` and length ``s`` has a genus in
    ``range(top - (d - s - 3), top)``, ``top = max_genus(d, s)``.  The rule
    holds for ``7 <= d//2 + 1 <= s <= d - 4``; elsewhere the window is empty.
    """
    if not 7 <= d // 2 + 1 <= s <= d - 4:
        return range(0)
    top = (s - 1) * (s - 2) // 2 + (d - s) * (d - s - 1) // 2  # closed_max_genus(d, s)
    return range(top - (d - s - 3), top)


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


# builds a GapCertificate from one 4-tuple without the NamedTuple's per-call __new__
_certificate = partial(tuple.__new__, GapCertificate)


def certified_gaps(d: int) -> list[GapCertificate]:
    """All gaps certified by closed formulas, sorted by value.

    Combines the separated-range rule with the hole values that fall
    strictly below the next range's minimum.  The separated lengths form an
    upward-closed tail of 2..d-1, so the between-range intervals are also
    exactly the integers covered by no range at all; the per-degree
    invariant tests recompute that complement from the exact range endpoints
    and check it stays inside this certificate set.
    """
    _check_degree(d)
    if d <= 2:
        return []
    out: list[GapCertificate] = []
    # Both rules start at s = d//2 + 1 (below it (2d+1-2s)^2 >= 8d-15, so no
    # s is separated), and length s certifies only values in [C(s-1,2),
    # C(s,2)): holes inside its range below the top, between-range values
    # above the top and below min_genus(s+1).  So one ascending pass over s,
    # holes first, emits each value once and in order.
    for s in range(d // 2 + 1, d):
        top = closed_max_genus(d, s)
        nxt = min_genus(s + 1)
        window = hole_window(d, s)
        below = range(window.start, min(window.stop, nxt))  # hole i = top - value
        out.extend(map(_certificate, zip(below, repeat("hole-always-gap"), repeat(s),
                                         range(top - below.start, top - below.stop, -1))))
        if is_separated(d, s):
            out.extend(map(_certificate, zip(range(top + 1, nxt), repeat("between-ranges"),
                                             repeat(s), repeat(None))))
    return out


def range_complement(d: int) -> list[int]:
    """Integers of [0, C(d-1,2)] inside no (d, s)-range, from exact endpoints.

    Diagnostic counterpart of the closed-form between-range certificates.
    """
    uncovered: list[int] = []
    reach = -1
    for lo, hi in sorted((row.min_genus, row.max_genus) for row in range_table(d)):
        if lo > reach + 1:
            uncovered.extend(range(reach + 1, lo))
        reach = max(reach, hi)
    uncovered.extend(range(reach + 1, binomial(d - 1, 2) + 1))
    return uncovered


def clear_range_caches():
    with _max_lock:
        _max_rows.clear()
