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
attains and which stay pending for the longer lengths.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from time import perf_counter

from . import _kernels
from .continuity import GenusSet, certain_genera
from .errors import BudgetError
from .macaulay import genus
from .ranges import GapCertificate, certified_gaps, hole_window, max_genus, min_genus
from .trees import TreeFamily, _children, root_of

BRUTE_FORCE_MAX_DEGREE = 40


def genus_search(g: int, family: TreeFamily):
    """First O-sequence of genus ``g`` in the family's tree, or None.

    Vertices are taken from a LIFO stack with children pushed so that the
    lowest incremented index is explored first, which fixes the witness.
    On the fixed-multiplicity family, a genus absent from the degree's
    per-length genus profile (:func:`~acmgenera._kernels.shortest_length`)
    returns None without a walk.
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    if family.kind == "both":
        hits = _kernels.search_fixed_both(family.d, family.s, [g])
        return hits.get(g)
    if family.kind == "multiplicity":
        if _kernels.shortest_length(family.d, g) is None:
            return None
        return _kernels.search_multiplicity(family.d, g)
    # capped infinite families: generic walk; genus can stay flat along
    # position-1 edges, so only strictly larger genera are pruned
    stack = [root_of(family)]
    while stack:
        h = stack.pop()
        gh = genus(h)
        if gh == g:
            return h
        if gh < g:
            stack.extend(reversed(_children(h, family)))
    return None


def brute_force_genera(d: int) -> GenusSet:
    """Genera of degree ``d`` by exhaustive generation (independent oracle)."""
    masks, _ = _brute_force_guarded(d)
    bits = 0
    for m in masks:
        bits |= m
    return GenusSet(d, bits)


def brute_force_length_profile(d: int):
    """Boolean matrix attained[genus, length] by exhaustive generation."""
    # imported here so that importing the package does not load numpy
    import numpy as np

    masks, _ = _brute_force_guarded(d)
    attained = np.zeros((comb(d - 1, 2) + 1, d + 1), dtype=bool)
    for s, m in enumerate(masks):
        for g in GenusSet(d, m):
            attained[g, s] = True
    return attained


def count_osequences(d: int) -> int:
    """Number of O-sequences of multiplicity ``d`` (exhaustive count)."""
    _, count = _brute_force_guarded(d)
    return int(count)


def _brute_force_guarded(d: int):
    if d > BRUTE_FORCE_MAX_DEGREE:
        raise BudgetError(
            f"exhaustive generation for d={d} exceeds the budget "
            f"(limit {BRUTE_FORCE_MAX_DEGREE}); "
            "the sequence count grows too fast for a complete visit"
        )
    return _kernels.brute_force_attained(d)


@dataclass
class DegreeClassification:
    """Full partition of [0, C(d-1,2)] into genera and gaps for one degree."""

    d: int
    genera: GenusSet
    gaps: list[GapCertificate]
    witnesses: dict[int, tuple[int, ...]]
    certain: GenusSet  # step-1 subset of genera
    stats: dict[str, int] = field(default_factory=dict)

    def gap_values(self) -> list[int]:
        return [c.value for c in self.gaps]

    @cached_property
    def _gap_reasons(self) -> dict[int, str]:
        return {c.value: c.reason for c in self.gaps}

    def provenance_of(self, value: int) -> str:
        """One of step1, step2, searched, post-loop (the last two are step 3).

        Raises ValueError for a value outside [0, C(d-1,2)].
        """
        if value in self.certain:
            return "step1"
        if value in self.witnesses:
            return "searched"
        reason = self._gap_reasons.get(value)
        if reason is None:
            raise ValueError(f"value {value} outside [0, C({self.d}-1,2)]")
        return "step2" if reason != "searched" else "post-loop"


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
    closed-form gap certificates.  Step 3 keeps the values neither settled
    as a bitmask and applies one rule for s = 2 .. d in ascending order: a
    pending value below ``min_genus(s)`` was attained at no shorter length
    and no longer one can reach it, so it is a gap; the pending values in
    ``[min_genus(s), max_genus(d, s)]`` go to one multi-target search of the
    fixed-(d, s) tree, and its hits are genera.  The search skips the hole
    values of length s (:func:`~acmgenera.ranges.hole_window`): no length-s
    sequence has them, so they stay pending for the longer lengths, and no
    result changes.  The walk stops once nothing is pending.

    ``timings``, when given, receives wall-clock seconds per step.
    Raises :class:`BudgetError` for a degree above the kernels' degree budget.
    """
    _kernels._check_degree(d)
    t0 = perf_counter()
    certain = certain_genera(d)
    t1 = perf_counter()
    certificates = certified_gaps(d)
    t2 = perf_counter()

    certified_bits = 0
    for c in certificates:
        certified_bits |= 1 << c.value
    undecided = GenusSet.universe_mask(d) & ~certain.bits & ~certified_bits
    stats = {
        "certain_genera": len(certain),
        "certain_gaps": len(certificates),
        "searched": undecided.bit_count(),
    }

    witnesses: dict[int, tuple[int, ...]] = {}
    found_bits = 0
    pending = undecided
    for s in range(2, d + 1):
        pending &= -1 << min_genus(s)
        if not pending:
            break
        targets = pending & ((1 << (max_genus(d, s) + 1)) - 1)
        holes = hole_window(d, s)  # never attained at length s; they stay pending
        targets &= ~(((1 << len(holes)) - 1) << holes.start)
        if targets:
            hits = _kernels.search_fixed_both(d, s, _set_bits(targets))
            witnesses.update(hits)
            for g in hits:
                found_bits |= 1 << g
            pending &= ~found_bits

    genera = GenusSet(d, certain.bits | found_bits)
    searched_gaps = undecided & ~found_bits
    step3_gaps = [GapCertificate(g, "searched") for g in _set_bits(searched_gaps)]
    gaps = sorted(certificates + step3_gaps, key=lambda c: c.value)
    gap_bits = certified_bits | searched_gaps
    if genera.bits & gap_bits or genera.bits | gap_bits != GenusSet.universe_mask(d):
        raise RuntimeError(f"genera and gaps do not partition the range for d={d}")
    if timings is not None:
        timings.update({"step1": t1 - t0, "step2": t2 - t1, "step3": perf_counter() - t2})
    return DegreeClassification(d, genera, gaps, witnesses, certain, stats)
