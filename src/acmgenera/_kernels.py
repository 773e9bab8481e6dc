"""Hot search kernels: one pruned tree walk, the exhaustive enumeration and
the per-length genus profile.

One depth-first walk searches the fixed-(d, s) tree; :func:`length_witness`
is the rule for one genus at one length, and a fixed-multiplicity search is
that rule at the lengths the degree's genus profile marks.  The walk and the
exhaustive enumeration dominate the runtime of a degree classification.
Both are explicit-stack loops over plain lists, reading the growth bound
from a per-degree table of :func:`acmgenera.macaulay.macaulay_bound`
values; the genus profile's dynamic program reads the same table.

At a long length, s >= d//2 + 1, the fixed-(d, s) tree depends only on the
excess k = d - s (see :func:`search_fixed_both`).  The batch search walks
the canonical tree of each excess, (2k + 1, k + 1), once and whole, and
keeps every witness it finds; every degree reads that complete table, so
its answers do not depend on which requests came before.
"""
from __future__ import annotations

import threading
from functools import cache
from math import comb
from typing import Iterator

from .errors import BudgetError, _check_degree
from .ranges import hole_window, max_genus, max_oseq

# The exhaustive enumeration visits every sequence, and their number grows
# too fast for a complete visit past this degree.
MAX_EXHAUSTIVE_DEGREE = 40


# ---------------------------------------------------------------------------
# kernel bodies


def _search_impl(d, s, targets, bounds):
    """Multi-target DFS over the tree of multiplicity-d sequences of length s.

    Children move one unit from position 1 to a position j >= J, the highest
    position already raised; genus grows by j - 1 along each edge, so a
    subtree is pruned as soon as its root's genus reaches the largest
    unfound target.  Each target's witness is the first vertex of its genus
    in preorder; returns {genus: witness} for the targets found.  Needs
    s <= d.

    A vertex has at most two children.  Along a tree path the raised
    positions never decrease, so at a vertex created by a move to J every
    entry past J is 1; since macaulay_bound(1, t) = 1, no
    j >= J + 2 is admissible.  The child loop therefore tries only j = J and
    J + 1 (j = 2 at the root, J = 1 there), which skips only failing
    candidates and leaves the preorder unchanged.
    """
    if s == 1:  # only (1,), of multiplicity 1 and genus 0
        return {0: (1,)} if d == 1 and 0 in targets else {}
    h = [1] * s
    h[1] = d - s + 1
    g = (s - 1) * (s - 2) // 2
    todo = set(targets)
    found = {}
    if g in todo:
        found[g] = tuple(h)
        todo.discard(g)
    if not todo:
        return found
    pending = sorted(todo)  # pending[-1] is the largest unfound target
    hi = pending[-1]
    if s < 3 or g >= hi:
        return found

    row1 = bounds[1]
    nx = [0] * (d + 2)  # next child position to try, per depth
    js = [0] * (d + 2)  # position that created each depth
    nx[0] = 2
    js[0] = 1
    depth = 0
    while depth >= 0:
        advanced = False
        if h[1] >= 2:
            b1 = row1[h[1] - 1]
            j = nx[depth]
            jtop = js[depth] + 1
            if jtop > s - 1:
                jtop = s - 1
            while j <= jtop:
                if j == 2:
                    ok = h[2] + 1 <= b1
                else:
                    ok = h[2] <= b1 and h[j] + 1 <= bounds[j - 1][h[j - 1]]
                if ok:
                    gc = g + j - 1
                    if gc in todo:
                        w = h[:]
                        w[1] -= 1
                        w[j] += 1
                        found[gc] = tuple(w)
                        todo.discard(gc)
                        if not todo:
                            return found
                        if gc == hi:
                            while pending[-1] not in todo:
                                pending.pop()
                            hi = pending[-1]
                    if gc < hi:
                        nx[depth] = j + 1
                        h[1] -= 1
                        h[j] += 1
                        g = gc
                        depth += 1
                        nx[depth] = j
                        js[depth] = j
                        advanced = True
                        break
                j += 1
        if not advanced:
            if depth == 0:
                break
            jj = js[depth]
            h[1] += 1
            h[jj] -= 1
            g -= jj - 1
            depth -= 1
    return found


def _brute_force_impl(d, bounds):
    """Exhaustive generation of every multiplicity-d sequence, no tree machinery.

    Extends prefixes entry by entry within the growth bound and the remaining
    multiplicity.  Returns (masks, count) where bit g of masks[s] is set iff
    some sequence of length s has genus g, and count is the number of
    sequences.
    """
    masks = [0] * (d + 1)
    if d == 1:
        masks[1] = 1
        return masks, 1
    count = 0
    val = [0] * (d + 1)
    ssum = [0] * (d + 1)
    gen = [0] * (d + 1)
    ssum[1] = 1
    t = 1
    while t >= 1:
        v = val[t] + 1
        rem = d - ssum[t]
        if t == 1:
            top = rem
        else:
            top = bounds[t - 1][val[t - 1]]
            if top > rem:
                top = rem
        if v > top:
            val[t] = 0
            t -= 1
            continue
        val[t] = v
        gc = gen[t] + (t - 1) * v if t >= 2 else 0
        if v == rem:
            masks[t + 1] |= 1 << gc
            count += 1
        else:
            ssum[t + 1] = ssum[t] + v
            gen[t + 1] = gc
            t += 1
    return masks, count


def _length_profile_impl(d, bounds):
    """Per-length genus bitmasks by a running-OR dynamic program, no witnesses.

    A state (t, v, u) stands for the prefixes h_0..h_t with h_t = v and
    entry sum u < d; it holds the bitmask of their partial genera
    sum_{2 <= i <= t} (i-1) h_i.  Appending w at position t + 1 is allowed
    iff w <= bounds[t][v] and u + w <= d, and shifts the mask left by t*w;
    a prefix whose sum reaches d closes a sequence of length t + 2.  The
    bound is increasing in v, so with one u's nonempty states taken in
    descending v, the values w in (bounds[t][v'], bounds[t][v]], v' the
    next state below v, follow exactly the states seen so far: a running OR
    hands each target state its mask in one shift, and the states that can
    close are a prefix.  Only nonempty states are kept.

    Yields masks[0], masks[1], ..., masks[d], the same masks as
    :func:`_brute_force_impl` returns.  Layer t yields its closed length
    t + 2 before it builds layer t + 1, so a caller that needs only the
    short lengths stops the program early.
    """
    yield 0
    yield int(d == 1)  # (1,)
    if d == 1:
        return
    yield 1  # (1, d-1)
    # states[u]: (v, mask) pairs of layer t in descending v; t = 1 holds (1, u-1)
    states = [[(u - 1, 1)] if u >= 2 else [] for u in range(d)]
    for t in range(1, d - 1):
        row_b = bounds[t]
        closed = 0
        for u in range(t + 1, d):
            room = d - u
            acc = 0
            for v, m in states[u]:
                if row_b[v] < room:
                    break
                acc |= m
            closed |= acc << (t * room)
        yield closed
        nxt = [[] for _ in range(d)]
        for u in range(t + 1, d):
            row = states[u]
            room = d - u
            acc = 0
            n = len(row)
            for i in range(n):
                v, m = row[i]
                acc |= m
                lo = row_b[row[i + 1][0]] + 1 if i + 1 < n else 1
                if lo >= room:
                    continue
                hi = row_b[v]
                if hi >= room:
                    hi = room - 1
                m = acc << (t * lo)
                for w in range(lo, hi + 1):
                    nxt[u + w].append((w, m))  # sources run up in u, so w runs down
                    m <<= t
        states = nxt


# ---------------------------------------------------------------------------
# entry points

@cache
def bound_table(d: int) -> list[list[int]]:
    """tab[t][a] = macaulay_bound(a, t) for 1 <= t < d and a + t <= d.

    A multiplicity-d sequence with an entry a at position t >= 1 has at
    least t + 1 entries, all positive, so a + t <= d covers every lookup the
    kernels make; an index past that raises instead of reading a wrong bound.

    The rows are filled by the greedy-expansion recurrence that
    :func:`acmgenera.macaulay.expand` carries out term by term: row 1 is
    a(a+1)/2, and for t >= 2, writing a = C(k,t) + r with k largest,
    B(a,t) = C(k+1,t+1) + B(r,t-1), where r <= a <= d - t lies in row t-1.
    k only grows with a, so each entry costs one addition.
    """
    _check_degree(d)
    tab = [[], [a * (a + 1) // 2 for a in range(d)]][:d]  # no rows at d = 1
    for t in range(2, d):
        prev = tab[t - 1]
        row = [0]
        k, low, high, shifted = t, 1, t + 1, 1  # C(k,t), C(k+1,t), C(k+1,t+1)
        for a in range(1, d + 1 - t):
            if a == high:
                k += 1
                low, high, shifted = high, comb(k + 1, t), comb(k + 1, t + 1)
            row.append(shifted + prev[a - low])
        tab.append(row)
    return tab


@cache
def _excess_witnesses(k: int) -> dict[int, tuple[int, ...]]:
    """Every genus of the canonical tree (2k + 1, k + 1), with its witness.

    The first request for k walks that tree once over its whole genus
    range, C(k,2) .. 2 C(k,2); the table is kept until
    :func:`acmgenera.clear_caches`, so every later request is a lookup.  A
    whole walk grows about 1.3-fold per step of k (42 ms at k = 32, 0.82 s
    at 44, 2-core x86_64).  A walk of the requested genera alone visits most
    of the tree too, so whole walks make a cold ``acm_genera(d)`` only 4-15%
    slower (d = 50..1000; 46 s against 41 s at 1000) and a sweep 1/3 faster.
    """
    base = comb(k, 2)
    return _search_impl(2 * k + 1, k + 1, range(base, 2 * base + 1), bound_table(2 * k + 1))


def search_fixed_both(d: int, s: int, targets) -> dict[int, tuple[int, ...]]:
    """Witnesses for each target genus attainable at multiplicity d, length s.

    No sequence of multiplicity d is longer than d, so s > d finds nothing;
    a length below 1 raises ValueError.

    A long length, s >= d//2 + 1, is answered from a complete table per
    excess k = d - s that serves every degree.  A length-s sequence is
    (1, h_1, ..., h_r, 1, ..., 1) with each h_i >= 2, its genus is
    C(s-1,2) plus an offset o = sum (i-1)(h_i - 1), and the excesses h_i - 1
    sum to k.  Position j is raised only while h_1..h_{j-1} are at least 2,
    so the raised positions stay at or below k <= s - 1 and the cap at
    s - 1 never binds.  So the fixed-(d, s) walk is the walk of the
    canonical tree (2k + 1, k + 1) on the core h_1..h_k, with genus
    C(k,2) + o, the same preorder for every degree of that excess; every
    bound it reads has a + t <= 2k + 1, which ``bound_table(2k + 1)``
    enforces by raising past that domain.  A genus's witness is the first
    vertex of that genus in preorder whatever the other targets are, so the
    canonical witness (1,) + core is the one the direct walk returns, and
    the witness at (d, s) is (1,) + core + (1,) * (s - 1 - k).
    """
    _check_degree(d)
    if s < 1:
        raise ValueError("length must be >= 1")
    tlist = sorted({int(g) for g in targets})
    if not tlist or s > d:
        return {}
    k = d - s
    if s <= k:  # a short length: the tree depends on d
        found = _search_impl(d, s, tlist, bound_table(d))
        return {g: found[g] for g in tlist if g in found}
    found = _excess_witnesses(k)
    shift = comb(k, 2) - comb(s - 1, 2)
    tail = (1,) * (s - 1 - k)
    return {g: found[g + shift] + tail for g in tlist if g + shift in found}


def length_witness(d: int, s: int, g: int):
    """First vertex of genus ``g`` in the fixed-(d, s) tree's preorder, or None.

    A genus above ``max_genus(d, s)`` or in the length's ``hole_window``
    returns None, and at a long length, s >= d//2 + 1, the top genus returns
    ``max_oseq(d, s)``, the only sequence with that genus: each of these
    would otherwise walk nearly the whole tree.  Any other genus is looked
    for alone by one walk, not through the per-excess table of
    :func:`search_fixed_both`: a table is a walk of the whole canonical
    tree, and near k = d/2 it grows past reach.  At (300, 268), k = 32, the
    target at offset 100 took 1.0 ms directly and the whole table 42 ms
    (2-core x86_64).
    """
    top = max_genus(d, s)
    if g > top or g in hole_window(d, s):
        return None
    if g == top and s > d // 2:
        return max_oseq(d, s)
    return _search_impl(d, s, [g], bound_table(d)).get(g)


def search_multiplicity(d: int, target: int):
    """First witness of ``target`` in the fixed-multiplicity tree's preorder, or None.

    In that tree, as in each fixed-(d, s) tree, the raised positions never
    decrease along a path and genus rises strictly along every edge, so of
    two vertices of one genus the one met first in preorder has the
    lexicographically larger (h_2, h_3, ...), with missing entries read as
    0.  Every multiplicity-d sequence lies in exactly one fixed-(d, s) tree,
    so the witness is the largest of the per-length witnesses
    (:func:`length_witness`) over the lengths whose profile holds the target.
    """
    _check_degree(d)
    g = int(target)
    return max(
        (length_witness(d, s, g) for s in _lengths_of(d, g)),
        key=lambda w: w[2:] + (0,) * (d - len(w)),
        default=None,
    )


def brute_force_attained(d: int) -> tuple[list[int], int]:
    """(per-length genus bitmasks, sequence count) by exhaustive generation, d <= MAX_EXHAUSTIVE_DEGREE."""
    _check_degree(d)
    if d > MAX_EXHAUSTIVE_DEGREE:
        raise BudgetError(
            f"exhaustive generation for d={d} exceeds the budget (limit {MAX_EXHAUSTIVE_DEGREE})"
        )
    return _brute_force_impl(d, bound_table(d))


@cache
def _profile(d: int) -> tuple[list[int], Iterator[int], threading.Lock]:
    """Degree d's genus profile so far: (masks, the layers still to run, their lock)."""
    return [], _length_profile_impl(d, bound_table(d)), threading.Lock()


def _profile_prefix(d: int, s: int) -> list[int]:
    """Degree d's cached genus profile, final through masks[s] (all d + 1 masks once s >= d).

    The dynamic program runs one layer per length and resumes where the
    previous call stopped, so a query answered at a short length never pays
    for the long ones.
    """
    masks, layers, lock = _profile(d)
    with lock:
        while len(masks) <= s:
            m = next(layers, None)
            if m is None:
                break
            masks.append(m)
    return masks


def length_profile(d: int) -> tuple[int, ...]:
    """masks[s]: bit g is set iff some multiplicity-d O-sequence of length s has genus g.

    Built once per degree by the running-OR dynamic program, which reads the
    same ``bound_table(d)`` rows as the searches.
    """
    _check_degree(d)
    return tuple(_profile_prefix(d, d))


def _lengths_of(d: int, g: int) -> Iterator[int]:
    """Each s, ascending, such that some multiplicity-d O-sequence of length s has genus g.

    A length-s sequence has genus at least C(s-1, 2), so the profile is
    built only up to the length last asked for, and never past the last
    length whose least genus is at most g.
    """
    s = 1
    while s <= d and (s - 1) * (s - 2) // 2 <= g:
        if _profile_prefix(d, s)[s] >> g & 1:
            yield s
        s += 1


def shortest_length(d: int, g: int):
    """Least s such that some multiplicity-d O-sequence of length s has genus g, or None."""
    _check_degree(d)
    return next(_lengths_of(d, g), None)
