"""Certain genera by degree recursion, and the continuity thresholds m_d.

Shifting the genera of a smaller degree ``j`` up by ``C(d-j,2)`` lands inside
the genera of degree ``d``, so a large "certain" subset of the genera can be
accumulated bottom-up with shifted bitmask unions and no enumeration at all.
That subset is the set of sums of ``C(k,2)`` over the parts ``k`` of the
partitions of ``d-1``, and it is built by the largest part: a part ``k``
above ``K = (d-1)//2`` adds ``C(k,2)`` to a value of degree ``d-k``, and
every partition with all parts at most ``K`` has a value of at most
``K(K-1)``, which from ``d = 32`` on lies in the set's all-ones prefix.  So
a degree reads only the degrees up to ``d//2``.
The threshold ``m_d`` is the largest value such that 0..m_d is guaranteed
covered by that recursion.
"""
from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterator

from .errors import _check_degree


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
        # one linear pass over the binary digits, lowest bit first: a dense set
        # tests every digit, a sparse one, such as the gaps, finds each 1
        digits = bin(self.bits)[:1:-1]
        if 3 * len(self) > len(digits):
            return (v for v, digit in enumerate(digits) if digit == "1")
        return _ones(digits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def digits(self) -> str:
        """Membership of each value 0..C(d-1,2), lowest first, as one "0"/"1" character each."""
        return bin(self.bits)[:1:-1].ljust(comb(self.d - 1, 2) + 1, "0")

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


def _ones(digits: str) -> Iterator[int]:
    """The positions of the 1s in ``digits``, ascending, one ``str.find`` each."""
    v = digits.find("1")
    while v >= 0:
        yield v
        v = digits.find("1", v + 1)


@cache
def _plain_masks() -> list[int]:
    """Certain-genera bits of degrees 0..31 by the plain recursion, bottom-up in one call.

    mask[d] = 1 | OR over 1 <= k < d of mask[d - k] << C(k, 2); a degree
    below 32 is read from this list, so the recursion pays the cache wrapper
    only from degree 32 on.
    """
    masks = [0, 1]
    for d in range(2, 32):
        bits, shift = 1, 0
        for k in range(1, d):
            bits |= masks[d - k] << shift
            shift += k
        masks.append(bits)
    return masks


@cache
def _certain_mask(d: int) -> int:
    """Certain-genera bits of degree ``d``, by the largest part (module docstring).

    From degree 32 on, the mask reads only the degrees up to d // 2.  That
    the parts up to K fill 0..K(K-1) is checked at every degree up to
    MAX_DEGREE, and fails at 31; below 32 the mask is the plain recursion's
    (:func:`_plain_masks`).  The term of a part k, degree j = d - k shifted
    up by C(k,2), adds nothing below the prefix's top, so it is read only
    from bit t = K(K-1) - C(k,2) on (:func:`_certain_term`), which spares
    the full masks of the degrees near d // 2.  The recursion is at most
    about 40 calls deep at MAX_DEGREE.
    """
    plain = _plain_masks()
    if d < 32:
        return plain[d]
    K = (d - 1) // 2
    top = K * (K - 1)
    bits = (1 << top + 1) - 1
    shift = K * (K + 1) // 2  # C(k, 2) at k = K + 1
    for k in range(K + 1, d):
        j = d - k
        bits |= (plain[j] if j < 32 else _certain_term(j, top - shift)) << shift
        shift += k
    return bits


def _certain_term(j: int, t: int) -> int:
    """Certain-genera bits of degree ``j`` (at least 32) that are ``t`` or more; lower bits may be missing.

    When t lies above j's own all-ones prefix, only j's largest parts k can
    reach it: each adds degree j - k's mask, whose top is C(j-k-1,2),
    shifted up by C(k,2).  Their tops fall as k falls from j - 1 to the
    first part above (j-1)//2, so the parts are taken downward until a top
    falls below t.  Otherwise the term is the whole mask.
    """
    K = (j - 1) // 2
    if t <= K * (K - 1):
        return _certain_mask(j)
    plain = _plain_masks()
    bits, k, shift = 0, j - 1, (j - 1) * (j - 2) // 2  # shift = C(k, 2)
    while k > K and shift + (j - k - 1) * (j - k - 2) // 2 >= t:
        i = j - k
        bits |= (plain[i] if i < 32 else _certain_mask(i)) << shift
        k -= 1
        shift -= k
    return bits


def certain_genera(d: int) -> GenusSet:
    """Genera of degree ``d`` certified by the shifted-union recursion alone."""
    _check_degree(d)
    return GenusSet(d, _certain_mask(d))


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
