"""Pruned genus searches and the complete classification of one degree.

A capped family's single-genus search walks its spanning tree depth-first
(LIFO), returns the first vertex with the requested genus, and prunes every
subtree whose root already exceeds it; the genus never decreases along tree
edges, so the pruning loses nothing.  A finite family's search asks the
per-length rule for one genus (:func:`~acmgenera._kernels.length_witness`).
The classification combines the certain genera from the degree recursion,
the runs of closed-form gaps, and one rule for the values still pending,
applied for s = 2 .. d in ascending order: a pending value below the least
genus of length s is a gap, and at each length whose genus ceiling reaches
the least pending value the whole pending mask goes to the per-length rule
:func:`~acmgenera._kernels.length_hits`.  The rule cuts it to the
(d, s)-range less the length's hole values
(:func:`~acmgenera.ranges.hole_window`), which no length-s sequence attains
and which stay pending for the longer lengths, and returns the genera it
finds, with witnesses for them alone: at a long length from one AND against
the offsets that the backward excess table holds for that excess, at a short
one by one pruned walk per genus.
"""
from __future__ import annotations

from math import comb
from time import perf_counter
from typing import Iterator, NamedTuple

from . import _kernels, ranges
from .continuity import GenusSet, certain_genera
from .errors import _check_degree
from .macaulay import genus
from .ranges import GapCertificate, certified_gaps
from .ranges import max_genus  # noqa: F401  (perfbench/tracer.py wraps search.max_genus)
from .trees import TreeFamily, _walk


def genus_search(g: int, family: TreeFamily):
    """First O-sequence of genus ``g`` in the family's tree, or None.

    On the fixed-(d, s) family the answer is the per-length rule asked for
    one genus, :func:`~acmgenera._kernels.length_witness`; on the
    fixed-multiplicity family it is that at each length whose genus profile
    holds ``g`` (:func:`~acmgenera._kernels.search_multiplicity`), so an
    absent genus returns None without a walk.  Only the capped families walk
    a stack: vertices are taken from a LIFO stack with children pushed so
    that the lowest incremented index is explored first, which fixes the
    witness, and the family's own walk raises :class:`BudgetError` past
    ``trees.DEFAULT_NODE_BUDGET`` vertices; the budget is read at call time.
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
    """Full partition of [0, C(d-1,2)] into genera and gaps for one degree.

    The gaps are kept as masks: the closed-form ones as the degree's runs
    (:func:`~acmgenera.ranges.certified_runs`) and the ones step 3 found as
    ``searched_gaps``; :attr:`gaps` builds their certificates when read.
    """

    d: int
    genera: GenusSet
    searched_gaps: GenusSet  # the gaps that step 3 found
    witnesses: dict[int, tuple[int, ...]]
    certain: GenusSet  # step-1 subset of genera
    stats: dict[str, int]

    @property
    def gaps(self) -> list[GapCertificate]:
        """Every gap's certificate, sorted by value: a new list on each read; bind it once in loops."""
        searched = [GapCertificate(g, "searched") for g in self.searched_gaps]
        return sorted(certified_gaps(self.d) + searched)  # unique values: tuple order is value order

    def __repr__(self) -> str:
        return (
            f"DegreeClassification(d={self.d!r}, genera={self.genera!r}, gaps={self.gaps!r}, "
            f"witnesses={self.witnesses!r}, certain={self.certain!r}, stats={self.stats!r})"
        )

    def gap_values(self) -> list[int]:
        return list(GenusSet(self.d, ~self.genera.bits))

    def provenance_of(self, value: int) -> str:
        """One of step1, step2, searched, post-loop (the last two are step 3).

        Raises ValueError for a value outside [0, C(d-1,2)].
        """
        if not 0 <= value <= comb(self.d - 1, 2):
            raise ValueError(f"value {value} outside [0, C({self.d}-1,2)]")
        return _provenance(value in self.certain, value in self.witnesses, value in self.searched_gaps)

    def provenances(self) -> Iterator[str]:
        """:meth:`provenance_of` of every value 0..C(d-1,2), ascending, from one read of each mask."""
        for value, (certain, searched_gap) in enumerate(zip(self.certain.digits(), self.searched_gaps.digits())):
            yield _provenance(certain == "1", value in self.witnesses, searched_gap == "1")


def _provenance(certain: bool, witnessed: bool, searched_gap: bool) -> str:
    """Where a value was decided: step 1's certain genera, then step 3's genera and gaps, else step 2."""
    return "step1" if certain else "searched" if witnessed else "post-loop" if searched_gap else "step2"


def acm_genera(d: int, timings: dict[str, float] | None = None) -> DegreeClassification:
    """Classify every integer in [0, C(d-1,2)] as genus or gap for degree ``d``.

    Step 1 takes the certain genera from the degree recursion, and step 2
    ORs the runs of closed-form gaps (:func:`~acmgenera.ranges.certified_runs`)
    into a mask, one OR per run; no certificate is built here, the result's
    :attr:`~DegreeClassification.gaps` builds them when read.  Step 3 keeps
    the values in neither mask as a bitmask and applies one rule for
    s = 2 .. d in ascending order: a pending value below ``min_genus(s)`` was
    attained at no shorter length and no longer one can reach it, so it is a
    gap; the pending values in ``[min_genus(s), max_genus(d, s)]`` are looked
    for at length s, and the values found are genera.

    Every length it does not skip hands the whole mask to the per-length
    rule :func:`~acmgenera._kernels.length_hits`, which cuts it to the
    length's range less its hole values and returns the hits as a mask of
    genera, with witnesses for the hits alone: a long length,
    s >= d//2 + 1, reads them from the backward excess table, and a short
    one, which holds no holes, walks the tree once per pending value up to
    ``max_genus(d, s)``.  Up to d = 1000 a short length holds such a value
    three times, each one genus.

    A length whose genus ceiling lies below the least pending value holds no
    target and is skipped: the ceiling is
    ``C(s-1,2) + min(C(k,2), (s-2)k)``, k = d - s, at every length, read
    before the rule reads the length's ``max_genus``.  The offset over the
    all-ones sequence is the sum of ``(i-1)e_i`` over the excesses
    ``e_i = h_i - 1``; they form a prefix of positive entries summing to k,
    so the sum is at most ``C(k,2)``, and each of the k units sits at a
    position of at most ``s-1``, so it is at most ``(s-2)k``.  At a long
    length the ceiling is the closed-form top; from d = 52 on a cold call
    reads no short length's ``max_genus``.  The least pending value is an
    int, read again from the mask only after a length with hits or once
    ``min_genus(s)`` passes it.  The walk stops once nothing is pending.

    ``timings``, when given, receives wall-clock seconds per step; step 2's
    times the runs ORed into the mask.
    Raises :class:`BudgetError` for a degree above the kernels' degree budget.
    """
    _check_degree(d)
    t0 = perf_counter()
    certain = certain_genera(d)
    t1 = perf_counter()
    certified_bits = 0
    for start, stop, *_ in ranges.certified_runs(d):
        certified_bits |= ((1 << (stop - start)) - 1) << start
    t2 = perf_counter()

    universe = GenusSet.universe_mask(d)
    undecided = universe & ~certain.bits & ~certified_bits
    stats = {
        "certain_genera": len(certain),
        "certain_gaps": certified_bits.bit_count(),
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
        if least + min(k * (k - 1) // 2, (s - 2) * k) < low:  # the length's genus ceiling
            continue
        hits, found = _kernels.length_hits(d, s, pending)
        if not hits:
            continue
        witnesses.update(found)
        found_bits |= hits
        pending &= ~hits
        low = -1

    genera = GenusSet(d, certain.bits | found_bits)
    searched_gaps = undecided & ~found_bits
    gap_bits = certified_bits | searched_gaps
    if genera.bits & gap_bits or genera.bits | gap_bits != universe:
        raise RuntimeError(f"genera and gaps do not partition the range for d={d}")
    if timings is not None:
        timings.update({"step1": t1 - t0, "step2": t2 - t1, "step3": perf_counter() - t2})
    return DegreeClassification(d, genera, GenusSet(d, searched_gaps), witnesses, certain, stats)
