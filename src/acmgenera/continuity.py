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
covered by that recursion.  Its continuity argument also bounds the work: a
part whose shift ``C(k,2)`` lies at most one past the prefix's top extends
the prefix by the smaller degree's own prefix, so the prefix is chained up
the parts first, and only the terms that reach past it are read, each from
the prefix's end on.
"""
from __future__ import annotations

import threading
from functools import cache
from math import comb
from typing import Iterator

from .errors import _check_degree
from .ranges import _grown


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


# p_j, the top of the all-ones prefix of the plain recursion's mask at each
# degree j below 32: bits 0..p_j are set and bit p_j + 1 is not (degree 0's
# mask is empty).  The chain of :func:`_certain_prefix` reads these, so a
# degree builds only the plain masks its terms read; a test holds them to
# the masks.
_PLAIN_PREFIX_TOPS = (
    -1, 0, 0, 1, 1, 3, 4, 4, 7, 13, 13, 18, 25, 25, 32, 32,
    40, 49, 52, 62, 73, 85, 102, 112, 127, 133, 160, 166, 166, 184, 203, 208,
)


def _plain_recursion() -> Iterator[int]:
    """Certain-genera bits of degrees 0, 1, ..., 31 by the plain recursion, bottom-up.

    mask[d] = 1 | OR over 1 <= k < d of mask[d - k] << C(k, 2).
    """
    masks = [0, 1]
    yield from masks
    for d in range(2, 32):
        bits, shift = 1, 0
        for k in range(1, d):
            bits |= masks[d - k] << shift
            shift += k
        masks.append(bits)
        yield bits


@cache
def _plain_masks() -> tuple[list[int], Iterator[int], threading.Lock]:
    """The plain masks of the degrees below 32 so far: (masks, the recursion still to run, its lock).

    ``_grown(_plain_masks(), n)`` holds the masks of degrees 0..n-1.  A
    degree below 32 is read from this list, so the recursion pays the cache
    wrapper only from degree 32 on, and a cold degree builds the list only
    as far as its terms read: to degree 21 at d = 100 and 24 at d = 150.
    """
    return [], _plain_recursion(), threading.Lock()


def _certain_prefix(d: int) -> int:
    """The top L of an all-ones prefix 0..L of degree ``d``'s certain genera, d >= 32.

    The parts up to K = (d-1)//2 fill 0..K(K-1) (module docstring).  The
    term of a part k > K, degree j = d - k shifted up by C(k,2), fills
    C(k,2)..C(k,2) + p_j, where p_j is the top of j's own prefix:
    K_j(K_j - 1), K_j = (j-1)//2, from j = 32 on, and below 32 the exact
    prefix of the plain recursion's mask (``_PLAIN_PREFIX_TOPS``).  So the
    parts are taken upward, and each extends L while C(k,2) <= L + 1, the
    chain of the thresholds m_d (:func:`m_sequence`) with these prefixes in
    place of m_j.
    """
    K = (d - 1) // 2
    top = K * (K - 1)
    k, shift = K + 1, K * (K + 1) // 2  # shift = C(k, 2)
    while k < d and shift <= top + 1:
        j = d - k
        p = _PLAIN_PREFIX_TOPS[j] if j < 32 else (j - 1) // 2 * ((j - 1) // 2 - 1)
        if shift + p > top:
            top = shift + p
        shift += k
        k += 1
    return top


@cache
def _certain_mask(d: int) -> int:
    """Certain-genera bits of degree ``d``, by the largest part (module docstring).

    From degree 32 on, the mask reads only the degrees up to d // 2.  That
    the parts up to K fill 0..K(K-1) is checked at every degree up to
    MAX_DEGREE, and fails at 31; below 32 the mask is the plain recursion's
    (:func:`_plain_masks`).  The terms' own prefixes chain that prefix up
    to L (:func:`_certain_prefix`), so only the terms whose top
    C(k,2) + C(j-1,2) passes L add a bit.  Those tops rise with k above K,
    so they are the parts from the lowest such k up to d - 1, and each term
    is read only from bit L + 1 - C(k,2) on (:func:`_certain_term`), which
    spares the full masks of the degrees below d // 2 whose terms start
    inside the prefix: a cold degree 150 builds no other degree's mask past
    31.  Up to MAX_DEGREE a mask read whole this way reads no degree past
    31 itself, so the recursion is two calls deep.
    """
    memo = _plain_masks()
    if d < 32:
        return _grown(memo, d + 1)[d]
    K = (d - 1) // 2
    top = _certain_prefix(d)
    bits = (1 << top + 1) - 1
    k, shift = d, d * (d - 1) // 2  # one past the last part; shift = C(k, 2)
    while k - 1 > K and shift - k + 1 + (d - k) * (d - k - 1) // 2 > top:  # part k - 1's top passes L
        k -= 1
        shift -= k
    plain = _grown(memo, min(d - k, 31) + 1)
    for k in range(k, d):
        j = d - k
        bits |= (plain[j] if j < 32 else _certain_term(j, top + 1 - shift)) << shift
        shift += k
    return bits


def _certain_term(j: int, t: int) -> int:
    """Certain-genera bits of degree ``j`` (at least 32) that are ``t`` or more; lower bits may be missing.

    A term of :func:`_certain_mask` is read from the first bit past the
    chained prefix, so t may be 0 or less, for a term that starts past it.
    When t lies above j's own all-ones prefix, only j's largest parts k can
    reach it: each adds degree j - k's mask, whose top is C(j-k-1,2),
    shifted up by C(k,2).  Their tops fall as k falls from j - 1 to the
    first part above (j-1)//2, so the parts are taken downward until a top
    falls below t.  Otherwise the term is the whole mask.
    """
    K = (j - 1) // 2
    if t <= K * (K - 1):
        return _certain_mask(j)
    plain = _grown(_plain_masks(), 32)  # already whole when _certain_mask reads a degree past 31
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
