"""Certain genera by degree recursion, and the continuity thresholds m_d.

Shifting the genera of a smaller degree ``j`` up by ``C(d-j,2)`` lands inside
the genera of degree ``d``, so a large "certain" subset of the genera can be
accumulated bottom-up with shifted bitmask unions and no enumeration at all.
The threshold ``m_d`` is the largest value such that 0..m_d is guaranteed
covered by that recursion.
"""
from __future__ import annotations

import threading
from itertools import chain
from math import comb
from typing import Iterator

from ._kernels import _check_degree


class GenusSet:
    """Genus values of one degree, a dense bitmask over [0, C(d-1,2)]."""

    __slots__ = ("d", "bits")

    def __init__(self, d: int, bits: int = 0):
        self.d = d
        self.bits = bits & self.universe_mask(d)

    @staticmethod
    def universe_mask(d: int) -> int:
        return (1 << (comb(d - 1, 2) + 1)) - 1

    @classmethod
    def from_values(cls, d: int, values) -> "GenusSet":
        bits = 0
        for v in values:
            bits |= 1 << v
        return cls(d, bits)

    def __contains__(self, value: int) -> bool:
        return value >= 0 and (self.bits >> value) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        # one linear pass over the binary digits, lowest bit first
        return (v for v, digit in enumerate(bin(self.bits)[:1:-1]) if digit == "1")

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, GenusSet) and (self.d, self.bits) == (other.d, other.bits)

    def __repr__(self) -> str:
        return f"GenusSet(d={self.d}, n={len(self)})"

    def add(self, value: int):
        if not 0 <= value <= comb(self.d - 1, 2):
            raise ValueError(f"genus {value} outside [0, C({self.d}-1,2)]")
        self.bits |= 1 << value

    def to_list(self) -> list[int]:
        return list(self)

    def copy(self) -> "GenusSet":
        return GenusSet(self.d, self.bits)


_mask_cache: list[int] = [0, 1]  # _mask_cache[m] = certain-genera bits for degree m
_mask_lock = threading.Lock()


def _certain_masks(d: int) -> list[int]:
    tri = [k * (k - 1) // 2 for k in range(d + 1)]  # tri[k] = C(k, 2)
    with _mask_lock:
        cache = _mask_cache
        for m in range(len(cache), d + 1):
            # mask[m] is the union of mask[i] << C(m-i, 2) for 1 <= i < m, so it
            # holds mask[m-1] (i = m-1, C(1,2) = 0) and with it that mask's
            # all-ones prefix 0..p-1.  Only the bits from p up are built, and a
            # term whose top bit C(i-1,2) + C(m-i,2) lies below p adds nothing;
            # that top is convex in i, so the skipped terms are one middle band.
            prev = cache[m - 1]
            p = (prev ^ (prev + 1)).bit_length() - 1
            high = prev >> p
            lo, hi = 1, m - 2
            while lo <= hi and tri[lo - 1] + tri[m - lo] >= p:
                lo += 1
            while hi >= lo and tri[hi - 1] + tri[m - hi] >= p:
                hi -= 1
            for i in chain(range(1, lo), range(hi + 1, m - 1)):
                t = tri[m - i]
                high |= cache[i] << (t - p) if t >= p else cache[i] >> (p - t)
            cache.append(high << p | ((1 << p) - 1))
        return cache[: d + 1]


def certain_genera(d: int) -> GenusSet:
    """Genera of degree ``d`` certified by the shifted-union recursion alone."""
    _check_degree(d)
    return GenusSet(d, _certain_masks(d)[d])


def m_sequence(dmax: int) -> list[int]:
    """The thresholds ``[m_1, ..., m_dmax]``.

    The enabling test ``C(k,2) - 1 <= M`` is made against the running
    maximum, so a shift length k can become usable after a smaller k has
    already raised M within the same degree.  This reading is forced: the
    frozen-threshold variant diverges from the recursion's actual coverage
    (first at degree 8, where it yields 6 instead of 7).
    """
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    _check_degree(dmax)
    ms = [0]  # m_1
    for d in range(2, dmax + 1):
        m = ms[-1]
        for k in range(2, d):
            if comb(k, 2) - 1 <= m:
                m = max(m, ms[d - k - 1] + comb(k, 2))
        ms.append(m)
    return ms


def continuity_prefix(d: int) -> GenusSet:
    """The guaranteed prefix {0, ..., m_d} of the genera of degree ``d``."""
    md = m_sequence(d)[-1]
    return GenusSet(d, (1 << (md + 1)) - 1)


def clear_continuity_caches():
    with _mask_lock:
        del _mask_cache[2:]
