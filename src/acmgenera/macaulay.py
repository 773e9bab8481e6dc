"""Macaulay growth bounds and basic combinatorics of finite O-sequences.

An O-sequence is represented throughout the package as a plain tuple of
positive integers ``(1, h1, ..., h_{s-1})``: the first entry is always 1,
trailing zeros are never stored, and ``s = len(h)`` is the length.  The
multiplicity is the sum of the entries; for a curve it equals the degree.

All arithmetic is exact (Python integers), so no overflow is possible.
"""
from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from typing import NamedTuple

from .errors import MAX_DEGREE, BudgetError

# hilbert_data tabulates at most this many values past t = 0
MAX_TMAX = MAX_DEGREE**2


# C(n, m), with C(n, m) = 0 for n < m and C(n, 0) = 1; a negative argument raises ValueError
binomial = math.comb


class BinomialExpansion(NamedTuple):
    """The unique greedy expansion of ``top`` as a sum of binomials in base ``base``.

    ``terms`` is a tuple of pairs ``(k, i)`` with ``i`` descending from
    ``base`` down to some ``j >= 1`` and ``k`` strictly decreasing; the
    invariant is ``sum(C(k, i)) == top``.
    """

    top: int
    base: int
    terms: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return sum(binomial(k, i) for k, i in self.terms)

    def shifted_sum(self) -> int:
        """Sum of C(k+1, i+1) over the terms: the growth bound for ``top``."""
        return sum(binomial(k + 1, i + 1) for k, i in self.terms)


def expand(a: int, t: int) -> BinomialExpansion:
    """Greedy binomial expansion of ``a >= 1`` in base ``t >= 1``."""
    if a < 1 or t < 1:
        raise ValueError(f"expand requires a >= 1 and t >= 1, got ({a}, {t})")
    terms = []
    rem, base = a, t
    while rem > 0:
        # the largest k with C(k, base) <= rem, by doubling then bisection
        k, step = base, 1
        while math.comb(k + step, base) <= rem:
            k += step
            step *= 2
        while step > 1:  # C(k, base) <= rem < C(k + step, base)
            step //= 2
            if math.comb(k + step, base) <= rem:
                k += step
        terms.append((k, base))
        rem -= math.comb(k, base)
        base -= 1
    return BinomialExpansion(a, t, tuple(terms))


@cache
def macaulay_bound(a: int, t: int) -> int:
    """Largest admissible value after ``a`` in position ``t``.

    Returns 0 for ``a == 0``: a sequence that has vanished stays zero.
    Strictly monotone in ``a``.
    """
    if a < 0 or t < 1:
        raise ValueError(f"macaulay_bound requires a >= 0 and t >= 1, got ({a}, {t})")
    if a == 0:
        return 0
    return expand(a, t).shifted_sum()


def is_admissible(candidate) -> bool:
    """True iff ``candidate`` is a finite O-sequence.

    Accepts any iterable of integers; returns False for malformed input.
    The first entry must be 1, all entries positive, and every consecutive
    pair must satisfy the growth bound from position 1 on (the second entry
    is unconstrained).
    """
    try:
        h = tuple(candidate)
    except TypeError:
        return False
    if not h:
        return False
    # the type set is a fast path for plain ints; int subclasses other than bool still pass
    if set(map(type, h)) != {int} and any(not isinstance(x, int) or isinstance(x, bool) for x in h):
        return False
    if h[0] != 1 or min(h) < 1:
        return False
    for t in range(1, len(h) - 1):
        if h[t + 1] > macaulay_bound(h[t], t):
            return False
    return True


def check_oseq(h) -> tuple[int, ...]:
    """Return ``h`` as a tuple, raising ValueError if it is not admissible."""
    ht = tuple(h)
    if not is_admissible(ht):
        raise ValueError(f"not an admissible O-sequence: {ht}")
    return ht


def multiplicity(h) -> int:
    """Sum of the entries; the degree of the corresponding curve."""
    return sum(h)


def genus(h) -> int:
    """Arithmetic genus of the curve with h-vector ``h``: sum (j-1)*h_j for j >= 2."""
    return sum((j - 1) * h[j] for j in range(2, len(h)))


class HilbertData(NamedTuple):
    """Hilbert function data of an aCM curve with a given h-vector.

    ``zero_dim`` is the running sum of the h-vector, ``curve`` its second
    integral, and ``polynomial = (d, c)`` stands for ``H(t) = d*t + c`` with
    ``c = 1 - genus``.  The curve function agrees with the polynomial for
    every ``t >= s - 2`` (the postulation regularity).
    """

    h_vector: tuple[int, ...]
    zero_dim: tuple[int, ...]
    curve: tuple[int, ...]
    polynomial: tuple[int, int]

    @property
    def postulation_regularity(self) -> int:
        return len(self.h_vector) - 2


def hilbert_data(h, tmax: int) -> HilbertData:
    """Tabulate the zero-dimensional and curve Hilbert functions up to ``tmax``.

    Raises :class:`BudgetError` for a ``tmax`` above ``MAX_TMAX``.
    """
    if tmax > MAX_TMAX:
        raise BudgetError(f"tmax {tmax} exceeds the tabulation budget (limit {MAX_TMAX})")
    ht = check_oseq(h)
    if tmax < 0:
        raise ValueError("tmax must be non-negative")
    hz = list(accumulate(ht[t] if t < len(ht) else 0 for t in range(tmax + 1)))
    hc = list(accumulate(hz))
    return HilbertData(ht, tuple(hz), tuple(hc), (multiplicity(ht), 1 - genus(ht)))


def format_oseq(h) -> str:
    """Canonical text form: comma-separated entries, e.g. ``1,2,3,1``."""
    return ",".join(str(x) for x in h)


def parse_oseq(text: str) -> tuple[int, ...]:
    """Parse the canonical comma form; exponent shorthand ``2^3`` is accepted.

    Only parses the shape; admissibility is not checked here.  More than
    ``MAX_DEGREE`` entries, which no sequence within the degree budget has,
    raise :class:`BudgetError` before the shorthand is expanded.
    """
    runs: list[tuple[int, int]] = []
    for tok in text.strip().split(","):
        tok = tok.strip()
        if not tok:
            raise ValueError(f"empty entry in O-sequence {text!r}")
        if "^" in tok:
            base_s, _, exp_s = tok.partition("^")
            value, count = int(base_s), int(exp_s)
            if count < 1:
                raise ValueError(f"exponent must be positive in {tok!r}")
        else:
            value, count = int(tok), 1
        runs.append((value, count))
    total = sum(count for _, count in runs)
    if total > MAX_DEGREE:
        raise BudgetError(f"{total} entries exceed the degree budget (limit {MAX_DEGREE})")
    return tuple(value for value, count in runs for _ in range(count))
