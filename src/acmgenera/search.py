"""Pruned genus searches and the complete classification of one degree.

The single-genus search walks a spanning tree depth-first (LIFO), returns
the first vertex with the requested genus, and prunes every subtree whose
root already exceeds it; the genus never decreases along tree edges, so the
pruning loses nothing.  The classification combines the certain genera from
the degree recursion, the closed-form gap certificates, and batched searches
for whatever remains undecided.
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
from .ranges import GapCertificate, certified_gaps, max_genus, min_genus
from .trees import TreeFamily, children, root_of

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
            stack.extend(reversed(children(h, family)))
    return None


def brute_force_genera(d: int, limit: int = BRUTE_FORCE_MAX_DEGREE) -> GenusSet:
    """Genera of degree ``d`` by exhaustive generation (independent oracle)."""
    masks, _ = _brute_force_guarded(d, limit)
    bits = 0
    for m in masks:
        bits |= m
    return GenusSet(d, bits)


def brute_force_length_profile(d: int, limit: int = BRUTE_FORCE_MAX_DEGREE):
    """Boolean matrix attained[genus, length] by exhaustive generation."""
    # imported here so that importing the package does not load numpy
    import numpy as np

    masks, _ = _brute_force_guarded(d, limit)
    attained = np.zeros((comb(d - 1, 2) + 1, d + 1), dtype=bool)
    for s, m in enumerate(masks):
        for g in GenusSet(d, m):
            attained[g, s] = True
    return attained


def count_osequences(d: int, limit: int = BRUTE_FORCE_MAX_DEGREE) -> int:
    """Number of O-sequences of multiplicity ``d`` (exhaustive count)."""
    _, count = _brute_force_guarded(d, limit)
    return int(count)


def _brute_force_guarded(d: int, limit: int):
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d > limit:
        raise BudgetError(
            f"exhaustive generation for d={d} exceeds the budget (limit {limit}); "
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


def acm_genera(d: int, timings: dict[str, float] | None = None) -> DegreeClassification:
    """Classify every integer in [0, C(d-1,2)] as genus or gap for degree ``d``.

    Step 1 takes the certain genera from the degree recursion, step 2 the
    closed-form gap certificates, and step 3 resolves the rest with one
    multi-target search of the fixed-(d, s) tree per length, run in the
    calling thread for s = 2 .. d-3 in order.  A value that drops
    below the minimum of the current range without having been found is a
    gap; so is anything left at the end, after checking it lies outside the
    three remaining ranges (those are fully covered by step 1).

    ``timings``, when given, receives wall-clock seconds per step.
    Raises :class:`BudgetError` for a degree above the kernels' degree budget.
    """
    _kernels._check_degree(d)
    if d <= 2:
        genera = GenusSet.from_values(d, [0])
        certain = GenusSet.from_values(d, [0])
        stats = {"certain_genera": 1, "certain_gaps": 0, "searched": 0}
        if timings is not None:
            timings.update({"step1": 0.0, "step2": 0.0, "step3": 0.0})
        return DegreeClassification(d, genera, [], {}, certain, stats)

    t0 = perf_counter()
    certain = certain_genera(d)
    t1 = perf_counter()
    certificates = certified_gaps(d)
    t2 = perf_counter()
    rtop = comb(d - 1, 2)

    certified_values = {c.value for c in certificates}
    undecided = [
        g for g in range(rtop + 1) if g not in certain and g not in certified_values
    ]
    stats = {
        "certain_genera": len(certain),
        "certain_gaps": len(certificates),
        "searched": len(undecided),
    }

    genera = certain.copy()
    witnesses: dict[int, tuple[int, ...]] = {}
    step3_gaps: list[GapCertificate] = []
    pending = list(undecided)

    for s in range(2, d - 2):
        if not pending:
            break
        top = max_genus(d, s)
        snapshot = [g for g in pending if g <= top]
        if not snapshot:
            continue
        lo = min_genus(s)
        below = [g for g in snapshot if g < lo]
        targets = [g for g in snapshot if g >= lo]
        for g in below:
            step3_gaps.append(GapCertificate(g, "searched"))
            pending.remove(g)
        if targets:
            hits = _kernels.search_fixed_both(d, s, targets)
            for g in sorted(hits):
                witnesses[g] = hits[g]
                genera.add(g)
                pending.remove(g)

    for g in pending:
        for s in (d - 2, d - 1, d):
            if min_genus(s) <= g <= max_genus(d, s):
                raise RuntimeError(
                    f"value {g} left undecided but inside the (d={d}, s={s}) range; "
                    "refusing to classify it as a gap"
                )
        step3_gaps.append(GapCertificate(g, "searched"))

    gaps = sorted(certificates + step3_gaps, key=lambda c: c.value)
    gap_bits = 0
    for c in gaps:
        gap_bits |= 1 << c.value
    if genera.bits & gap_bits or genera.bits | gap_bits != GenusSet.universe_mask(d):
        raise RuntimeError(f"genera and gaps do not partition the range for d={d}")
    if timings is not None:
        timings.update({"step1": t1 - t0, "step2": t2 - t1, "step3": perf_counter() - t2})
    return DegreeClassification(d, genera, gaps, witnesses, certain, stats)
