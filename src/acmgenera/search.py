"""Pruned genus searches and the complete classification of one degree.

The single-genus search walks a spanning tree depth-first (LIFO), returns
the first vertex with the requested genus, and prunes every subtree whose
root already exceeds it; the genus never decreases along tree edges, so the
pruning loses nothing.  The classification combines the certain genera from
the degree recursion, the closed-form gap certificates, and one rule for the
values still pending, applied for s = 2 .. d in ascending order: a pending
value below the least genus of length s is a gap, and the pending values in
the (d, s)-range are looked for at length s, except that length's hole
values (:func:`~acmgenera.ranges.hole_window`), which no length-s sequence
attains and which stay pending for the longer lengths.  At a long length
the pending values are read as one mask of offsets and answered by
:func:`~acmgenera._kernels.long_length_hits`, one AND with the offsets that
the backward excess table holds for that excess, with witnesses for the
hits alone.  A short length goes to
:func:`~acmgenera._kernels.search_fixed_both`, which asks the per-length
rule :func:`~acmgenera._kernels.length_witness` target by target.  A
single-genus search applies that rule too: at a long length whose excess
is at most ``MAX_EXCESS`` it reads the same table for one offset, and
elsewhere it walks the tree for that one genus.
"""
from __future__ import annotations

from bisect import bisect_left
from math import comb
from time import perf_counter
from typing import NamedTuple

from . import _kernels, ranges
from ._kernels import _set_bits
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


def acm_genera(d: int, timings: dict[str, float] | None = None) -> DegreeClassification:
    """Classify every integer in [0, C(d-1,2)] as genus or gap for degree ``d``.

    Step 1 takes the certain genera from the degree recursion and step 2 the
    closed-form gap certificates.  Step 3 masks the certified values out, one
    OR per run of :func:`~acmgenera.ranges.certified_runs` (cached, so step 2
    built them), keeps the rest as a bitmask and applies one rule for
    s = 2 .. d in ascending order: a pending value below ``min_genus(s)`` was
    attained at no shorter length and no longer one can reach it, so it is a
    gap; the pending values in ``[min_genus(s), max_genus(d, s)]`` are looked
    for at length s, and the values found are genera.

    A long length, s >= d//2 + 1, shifts the mask down by ``C(s-1,2)`` and
    cuts it to the ``C(d-s,2) + 1`` offsets of its range, less its hole
    values (:func:`~acmgenera.ranges.hole_window`), which no length-s
    sequence has and which stay pending for the longer lengths;
    :func:`~acmgenera._kernels.long_length_hits` ANDs the offsets with those
    present at excess d - s and builds witnesses for the hits alone.  A short
    length, which holds no holes, sends its targets to
    :func:`~acmgenera._kernels.search_fixed_both`; up to d = 1000 that
    happens three times, each for one genus.

    A length whose genus ceiling lies below the least pending value holds no
    target and is skipped: the ceiling is ``C(s-1,2) + C(d-s,2)`` at a long
    length and ``C(s-1,2) + (s-2)(d-s)`` at a short one (at most ``s-2`` for
    each of the ``d-s`` units above the all-ones sequence), read before its
    ``max_genus``.  The least pending value is an int, read again from the
    mask only after a search or once ``min_genus(s)`` passes it.  The walk
    stops once nothing is pending.

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
        k = d - s
        if s > k:
            top = k * (k - 1) // 2  # the top offset, C(k,2)
            if least + top < low:
                continue
            holes = ranges._hole_count(d, s)
            # the offsets below the holes, and the top one; the holes stay
            # pending.  No length-s sequence has a hole genus, so the cut
            # changes no output, but it keeps the table from growing for
            # values it cannot hold: without it 211 of the degrees 3..1000
            # ask a larger excess (d = 150 asks 23 instead of 22)
            offsets = (pending >> least) & (((1 << (top - holes)) - 1) | 1 << top)
            if not offsets:
                continue
            hits, found = _kernels.long_length_hits(d, s, offsets)
            hits <<= least
        else:
            if least + (s - 2) * k < low:
                continue
            targets = pending & ((1 << (max_genus(d, s) + 1)) - 1)
            if not targets:
                continue
            found = _kernels.search_fixed_both(d, s, _set_bits(targets))
            hits = 0
            for g in found:
                hits |= 1 << g
        witnesses.update(found)
        found_bits |= hits
        pending &= ~hits
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
