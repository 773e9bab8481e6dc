"""Pruned genus searches and the complete classification of one degree.

The single-genus search walks a spanning tree depth-first (LIFO), returns
the first vertex with the requested genus, and prunes every subtree whose
root already exceeds it; the genus never decreases along tree edges, so the
pruning loses nothing.  The classification combines the certain genera from
the degree recursion, the closed-form gap certificates, and one rule for the
values still pending, applied for s = 2 .. d in ascending order: a pending
value below the least genus of length s is a gap, and the pending values in
the (d, s)-range are searched for at length s, except that length's hole
values (:func:`~acmgenera.ranges.hole_window`), which no length-s sequence
attains and which stay pending for the longer lengths.  Those searches go
through :func:`~acmgenera._kernels.search_fixed_both`, whose per-excess
table lets the classifications of a range of degrees share their walks at
the long lengths; a single-genus search applies the per-length rule
:func:`~acmgenera._kernels.length_witness`, which walks its tree directly.
"""
from __future__ import annotations

from bisect import bisect_left
from math import comb
from time import perf_counter
from typing import NamedTuple

from . import _kernels, ranges
from .continuity import GenusSet, certain_genera
from .errors import _check_degree
from .macaulay import genus
from .ranges import GapCertificate, certified_gaps, max_genus
from .trees import TreeFamily, _walk


def genus_search(g: int, family: TreeFamily):
    """First O-sequence of genus ``g`` in the family's tree, or None.

    Vertices are taken from a LIFO stack with children pushed so that the
    lowest incremented index is explored first, which fixes the witness.
    On the fixed-(d, s) family the answer is the per-length rule
    :func:`~acmgenera._kernels.length_witness`; on the fixed-multiplicity
    family it is that rule at each length whose genus profile holds ``g``
    (:func:`~acmgenera._kernels.search_multiplicity`), so an absent genus
    returns None without a walk.  On the capped families the family's own
    walk raises :class:`BudgetError` past ``trees.DEFAULT_NODE_BUDGET``
    vertices; the budget is read at call time.
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    if family.kind == "both":
        return _kernels.length_witness(family.d, family.s, g)
    if family.kind == "multiplicity":
        return _kernels.search_multiplicity(family.d, g)
    # capped infinite families: generic walk; genus can stay flat along
    # position-1 edges, so only strictly larger genera are pruned
    for h, _ in _walk(family, lambda h: genus(h) < g):
        if genus(h) == g:
            return h
    return None


def brute_force_genera(d: int) -> GenusSet:
    """Genera of degree ``d`` by exhaustive generation (independent oracle)."""
    masks, _ = _kernels.brute_force_attained(d)
    bits = 0
    for m in masks:
        bits |= m
    return GenusSet(d, bits)


def brute_force_length_profile(d: int) -> memoryview:
    """attained[genus, length] by exhaustive generation.

    A 2-D memoryview of bools with shape (C(d-1,2) + 1, d + 1).
    """
    masks, _ = _kernels.brute_force_attained(d)
    rows, cols = comb(d - 1, 2) + 1, d + 1
    attained = memoryview(bytearray(rows * cols)).cast("?", (rows, cols))
    for s, m in enumerate(masks):
        for g in GenusSet(d, m):
            attained[g, s] = True
    return attained


def count_osequences(d: int) -> int:
    """Number of O-sequences of multiplicity ``d`` (exhaustive count)."""
    return _kernels.brute_force_attained(d)[1]


class DegreeClassification(NamedTuple):
    """Full partition of [0, C(d-1,2)] into genera and gaps for one degree."""

    d: int
    genera: GenusSet
    gaps: list[GapCertificate]  # sorted by value; provenance_of bisects it
    witnesses: dict[int, tuple[int, ...]]
    certain: GenusSet  # step-1 subset of genera
    stats: dict[str, int]

    def gap_values(self) -> list[int]:
        return [c.value for c in self.gaps]

    def provenance_of(self, value: int) -> str:
        """One of step1, step2, searched, post-loop (the last two are step 3).

        Raises ValueError for a value outside [0, C(d-1,2)].
        """
        if value in self.certain:
            return "step1"
        if value in self.witnesses:
            return "searched"
        i = bisect_left(self.gaps, value, key=lambda c: c.value)
        if i == len(self.gaps) or self.gaps[i].value != value:
            raise ValueError(f"value {value} outside [0, C({self.d}-1,2)]")
        return "step2" if self.gaps[i].reason != "searched" else "post-loop"


def _set_bits(bits: int) -> list[int]:
    """Positions of the set bits, ascending, one step per set bit.

    Step 3's masks are sparse, so this beats a pass over every binary digit.
    """
    values = []
    while bits:
        low = bits & -bits
        values.append(low.bit_length() - 1)
        bits ^= low
    return values


def acm_genera(d: int, timings: dict[str, float] | None = None) -> DegreeClassification:
    """Classify every integer in [0, C(d-1,2)] as genus or gap for degree ``d``.

    Step 1 takes the certain genera from the degree recursion and step 2 the
    closed-form gap certificates.  Step 3 masks the certified values out, one
    OR per run of :func:`~acmgenera.ranges.certified_runs`, keeps the rest as
    a bitmask and applies one rule for s = 2 .. d in ascending order: a
    pending value below ``min_genus(s)`` was attained at no shorter length and
    no longer one can reach it, so it is a gap; the pending values in
    ``[min_genus(s), max_genus(d, s)]`` go to one multi-target search of the
    fixed-(d, s) tree, and its hits are genera.  The search skips the hole
    values of length s (:func:`~acmgenera.ranges.hole_window`), which no
    length-s sequence has: they stay pending for the longer lengths.  A length
    whose genus ceiling ``C(s-1,2) + (s-2)(d-s)`` (at most ``s-2`` for each of
    the ``d-s`` units above the all-ones sequence) lies below the least
    pending value holds no target and is skipped before its ``max_genus`` is
    read.  That value is an int, read again from the mask only after a search
    or once ``min_genus(s)`` passes it.  The walk stops once nothing is pending.

    ``timings``, when given, receives wall-clock seconds per step.
    Raises :class:`BudgetError` for a degree above the kernels' degree budget.
    """
    _check_degree(d)
    t0 = perf_counter()
    certain = certain_genera(d)
    t1 = perf_counter()
    certificates = certified_gaps(d)
    t2 = perf_counter()

    certified_bits = 0
    for start, stop, *_ in ranges.certified_runs(d):
        certified_bits |= ((1 << (stop - start)) - 1) << start
    undecided = GenusSet.universe_mask(d) & ~certain.bits & ~certified_bits
    stats = {
        "certain_genera": len(certain),
        "certain_gaps": len(certificates),
        "searched": undecided.bit_count(),
    }

    witnesses: dict[int, tuple[int, ...]] = {}
    found_bits = 0
    pending, low, least = undecided, -1, 0  # low: the least pending value, or -1 to read it again
    for s in range(2, d + 1):
        least += s - 2  # min_genus(s) = C(s-1,2)
        if low < least:
            pending &= -1 << least
            if not pending:
                break
            low = (pending & -pending).bit_length() - 1
        if least + (s - 2) * (d - s) < low:
            continue
        targets = pending & ((1 << (max_genus(d, s) + 1)) - 1)
        holes = ranges.hole_window(d, s)  # never attained at length s; they stay pending
        targets &= ~(((1 << len(holes)) - 1) << holes.start)
        if targets:
            hits = _kernels.search_fixed_both(d, s, _set_bits(targets))
            witnesses.update(hits)
            for g in hits:
                found_bits |= 1 << g
            pending &= ~found_bits
            low = -1

    genera = GenusSet(d, certain.bits | found_bits)
    searched_gaps = undecided & ~found_bits
    step3_gaps = [GapCertificate(g, "searched") for g in _set_bits(searched_gaps)]
    gaps = sorted(certificates + step3_gaps)  # unique values: tuple order is value order
    gap_bits = certified_bits | searched_gaps
    if (genera.bits & gap_bits or genera.bits | gap_bits != GenusSet.universe_mask(d)
            or certified_bits.bit_count() != len(certificates)):
        raise RuntimeError(f"genera and gaps do not partition the range for d={d}")
    if timings is not None:
        timings.update({"step1": t1 - t0, "step2": t2 - t1, "step3": perf_counter() - t2})
    return DegreeClassification(d, genera, gaps, witnesses, certain, stats)
