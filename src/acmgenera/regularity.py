"""Minimal Castelnuovo-Mumford regularity of a curve with Cohen-Macaulay postulation.

For an aCM curve the regularity equals the length of its h-vector, which is
the postulation regularity plus 2.  The minimum over all curves of degree
``d`` and genus ``g`` is therefore the shortest length of an O-sequence with
that multiplicity and genus.  That length is read from the degree's
per-length genus profile (:func:`~acmgenera._kernels.shortest_length`),
built only up to it, and the pruned genus search runs once, at that
length, for the witness.
"""
from __future__ import annotations

from math import comb
from typing import NamedTuple

from . import _kernels
from .errors import UnattainableGenusError, _check_degree
from .ranges import max_genus  # noqa: F401  (perfbench/tracer.py wraps regularity.max_genus)
from .search import genus_search
from .trees import TreeFamily


class RegularityAnswer(NamedTuple):
    d: int
    g: int
    min_regularity: int  # length of the shortest witness
    witness: tuple[int, ...]
    postulation_regularity: int  # min_regularity - 2


def min_acm_regularity(d: int, g: int) -> RegularityAnswer:
    """Smallest Castelnuovo-Mumford regularity over aCM curves of degree d, genus g.

    Raises :class:`UnattainableGenusError` with kind ``"out-of-range"`` when
    ``g`` exceeds C(d-1,2) and kind ``"gap"`` when ``g`` lies in the range
    but is not an aCM genus of degree ``d``.
    """
    if d < 1 or g < 0:
        raise ValueError("need d >= 1 and g >= 0")
    _check_degree(d)
    if g > comb(d - 1, 2):
        raise UnattainableGenusError(
            f"genus {g} exceeds C({d}-1, 2) = {comb(d - 1, 2)}", kind="out-of-range"
        )
    s = _kernels.shortest_length(d, g)
    if s is None:
        raise UnattainableGenusError(
            f"genus {g} is a gap for degree {d}: no O-sequence attains it", kind="gap"
        )
    witness = genus_search(g, TreeFamily.fixed_both(d, s))
    return RegularityAnswer(d, g, s, witness, s - 2)
