"""Shared fixtures and independent reference oracles.

The reference generator below enumerates O-sequences by direct recursive
extension of prefixes, using only the growth bound; it never touches the
tree machinery or the search kernels, so it can vouch for both.
"""
from functools import lru_cache

import acmgenera as ag


@lru_cache(maxsize=None)
def reference_sequences(d: int) -> tuple[tuple[int, ...], ...]:
    """Every admissible O-sequence of multiplicity d, by prefix extension."""
    out = []

    def extend(prefix, total):
        if total == d:
            out.append(tuple(prefix))
            return
        t = len(prefix)
        top = d - total
        if t >= 2:
            top = min(top, ag.macaulay_bound(prefix[-1], t - 1))
        for v in range(1, top + 1):
            prefix.append(v)
            extend(prefix, total + v)
            prefix.pop()

    extend([1], 1)
    return tuple(out)


@lru_cache(maxsize=None)
def reference_genera(d: int) -> frozenset:
    return frozenset(ag.genus(h) for h in reference_sequences(d))


def reference_genera_by_length(d: int, s: int) -> set[int]:
    return {ag.genus(h) for h in reference_sequences(d) if len(h) == s}


# second, fully independent binomial/bound/admissibility implementations


@lru_cache(maxsize=None)
def _pascal_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _pascal_row(n - 1)
    return (1,) + tuple(prev[i] + prev[i + 1] for i in range(n - 1)) + (1,)


def pascal_binomial(n: int, m: int) -> int:
    if m == 0:
        return 1
    if n < m:
        return 0
    return _pascal_row(n)[m]


def pascal_bound(a: int, t: int) -> int:
    if a == 0:
        return 0
    total, rem, base = 0, a, t
    while rem > 0:
        k = base
        while pascal_binomial(k + 1, base) <= rem:
            k += 1
        total += pascal_binomial(k + 1, base + 1)
        rem -= pascal_binomial(k, base)
        base -= 1
    return total


def pascal_admissible(seq) -> bool:
    h = tuple(seq)
    if not h or h[0] != 1 or any(not isinstance(x, int) or x < 1 for x in h):
        return False
    return all(h[t + 1] <= pascal_bound(h[t], t) for t in range(1, len(h) - 1))
