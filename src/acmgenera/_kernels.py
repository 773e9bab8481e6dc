"""Hot search kernels: one pruned tree walk, the backward excess table, the
exhaustive enumeration and the per-length genus profile.

One depth-first walk looks for one genus in the fixed-(d, s) tree;
:func:`length_witness` is the rule for one genus at one length, which the
batch search applies at each short length, and a fixed-multiplicity search
is that rule at the lengths the degree's genus profile marks.  The walk and
the exhaustive enumeration are explicit-stack loops over plain lists, reading
the growth bound from a per-degree table of
:func:`acmgenera.macaulay.macaulay_bound` values; the genus profile's
dynamic program reads the same table.

At a long length, s >= d//2 + 1, the fixed-(d, s) tree depends only on the
excess k = d - s, and :func:`long_length_hits` is the one rule there: the
requested offsets are a bitmask, the hits are one AND with Off(k), and only
the hits get witnesses.  Off(k) comes from one backward table of suffix
offsets that depends on neither k nor d: it grows with the largest excess
asked, and a greedy pass over it builds each witness, so the answers do not
depend on which requests came before.  A classification's step 3 calls
that rule directly, one mask per long length; :func:`search_fixed_both`
calls it for a long length asked as a list of genera.
"""
from __future__ import annotations

import threading
from functools import cache
from itertools import accumulate, islice
from math import comb
from operator import or_
from typing import Iterator

from .errors import BudgetError, _check_degree
from .ranges import hole_window, max_genus, max_oseq

# The exhaustive enumeration visits every sequence, and their number grows
# too fast for a complete visit past this degree.
MAX_EXHAUSTIVE_DEGREE = 40


# ---------------------------------------------------------------------------
# kernel bodies


def _walk_to(d, s, g, bounds):
    """First vertex of genus g in the fixed-(d, s) tree's preorder, or None.

    Children move one unit from position 1 to a position j >= J, the highest
    position already raised; genus grows by j - 1 along each edge, so a
    subtree is pruned as soon as its root's genus reaches g.  Needs
    2 <= s <= d.

    A vertex has at most two children.  Along a tree path the raised
    positions never decrease, so at a vertex created by a move to J every
    entry past J is 1; since macaulay_bound(1, t) = 1, no
    j >= J + 2 is admissible.  The child loop therefore tries only j = J and
    J + 1 (j = 2 at the root, J = 1 there), which skips only failing
    candidates and leaves the preorder unchanged.
    """
    h = [1] * s
    h[1] = d - s + 1
    cur = (s - 1) * (s - 2) // 2
    if cur == g:
        return tuple(h)
    if s < 3 or cur > g:
        return None

    row1 = bounds[1]
    nx = [0] * (d + 2)  # next child position to try, per depth
    js = [0] * (d + 2)  # position that created each depth
    nx[0] = 2
    js[0] = 1
    depth = 0
    while True:
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
                    gc = cur + j - 1
                    if gc == g:
                        h[1] -= 1
                        h[j] += 1
                        return tuple(h)
                    if gc < g:
                        nx[depth] = j + 1
                        h[1] -= 1
                        h[j] += 1
                        cur = gc
                        depth += 1
                        nx[depth] = j
                        js[depth] = j
                        advanced = True
                        break
                j += 1
        if not advanced:
            if depth == 0:
                return None
            jj = js[depth]
            h[1] += 1
            h[jj] -= 1
            cur -= jj - 1
            depth -= 1


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


# The excess table is refused past this excess, before any row is built.
# The table grows as about K^5 in the largest excess K asked.  An upper bound
# on its bytes read 8.9 MB through K = 57, the largest excess acm_genera asks
# for up to MAX_DEGREE, and 62 MB through K = 87, the last excess under
# 64 MB; the table through K = 87 took 0.1-0.15 s and a fresh process peaked
# at 65 MB resident (2-core x86_64, Python 3.11.7).
MAX_EXCESS = 87


@cache
def _excess_table() -> tuple[list, list, list, list, threading.Lock]:
    """The backward excess table so far: (R, P, off, state, lock).

    ``R[i][u][v]`` is the bitmask of the suffix offsets sum_{j>=i} (j-1) e_j
    over the admissible excess suffixes e_i = v, e_{i+1}, ... with
    sum_{j>=i} e_j = u, kept for i + u <= K + 1, and ``P[i][u][v]`` the OR
    of ``R[i][u][:v + 1]``; ``off[k]`` is Off(k) for k <= K; ``state`` is
    [``bound_table(K + 2)``], which holds every bound the table and the
    witnesses read.  None of it depends on k or d, so
    :func:`_excess_offsets` grows it in place, under ``lock``.
    """
    return [], [], [], [None], threading.Lock()


def _excess_offsets(k: int) -> int:
    """Off(k): bit o is set iff some sequence of excess k has offset o.

    The table is first taken on to excess k, its new rows (i, u) by
    descending i.  An entry v >= 1 at position i allows e_{i+1} = w exactly
    when w + 1 <= macaulay_bound(v + 1, i), a prefix of w, so each entry is
    one prefix OR over row (i + 1, u - v), shifted by (i - 1) v.  A sum u at
    position i needs k >= u + i - 1, e_1..e_{i-1} being positive, which
    bounds the rows kept.  Off(k) ORs the rows R[2][u], u < k, up to the
    entries that h_1 = k - u + 1 allows at position 2.  An excess above
    ``MAX_EXCESS`` raises :class:`BudgetError` before any row is built.
    """
    if k > MAX_EXCESS:
        raise BudgetError(f"the excess table through k={k} exceeds the budget (limit {MAX_EXCESS})")
    R, P, off, state, lock = _excess_table()
    with lock:
        if k >= len(off):
            tab = bound_table(k + 2)
            while len(R) < k + 2:
                R.append([[1]])  # R[i][0]: the empty suffix, offset 0
                P.append([[1]])
            for i in range(k, 1, -1):
                prefix, row_b, rows = P[i + 1], tab[i], R[i]
                for u in range(len(rows), k + 2 - i):
                    row = [0] + [prefix[u - v][min(row_b[v + 1] - 1, u - v)] << (i - 1) * v
                                 for v in range(1, u + 1)]
                    rows.append(row)
                    P[i].append(list(accumulate(row, or_)))
            state[0] = tab
            for j in range(len(off), k + 1):
                acc = int(j == 0)  # (1, 1, ..., 1)
                for u in range(j):
                    acc |= P[2][u][min(tab[1][j - u + 1] - 1, u)]
                off.append(acc)
    return off[k]


@cache
def _excess_witness(k: int, o: int) -> tuple[int, ...]:
    """(1, h_1, ..., h_k) of the canonical tree (2k + 1, k + 1)'s first vertex of offset o.

    That vertex has the lexicographically largest (e_2, e_3, ...), so each
    entry is taken as large as the table allows, keeping the suffix sums
    still possible.  At position 2 a sum u leaves e_1 = k - u, and h_2 <=
    h_1(h_1+1)/2 caps e_2; further on, e_{i-1} caps e_i.  Needs Off(k)
    built and bit o set in it.
    """
    if not k:
        return (1,)
    R, _, _, (tab,), _ = _excess_table()
    cands = [(u, min(tab[1][k - u + 1] - 1, u)) for u in range(k)]
    core = []
    i = 2
    while True:
        rows, best, keep = R[i], -1, []
        for u, cap in cands:
            row = rows[u]
            for v in range(cap, max(best, 0) - 1, -1):
                if row[v] >> o & 1:
                    if v > best:
                        best, keep = v, []
                    keep.append(u)
                    break
        if best <= 0:
            break
        core.append(best + 1)
        o -= (i - 1) * best
        cap = tab[i][best + 1] - 1
        cands = [(u - best, min(cap, u - best)) for u in keep]
        i += 1
    e1 = k - sum(core) + len(core)
    return (1, e1 + 1, *core) + (1,) * (k - 1 - len(core))


def _set_bits(bits: int) -> list[int]:
    """Positions of the set bits, ascending, one step per set bit.

    The masks of step 3 and its hits are sparse, so this beats a pass over
    every binary digit.
    """
    values = []
    while bits:
        low = bits & -bits
        values.append(low.bit_length() - 1)
        bits ^= low
    return values


def long_length_hits(d: int, s: int, offsets: int) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The offsets in the mask ``offsets`` attained at a long length, and their witnesses.

    At a long length, s >= d//2 + 1, a length-s sequence is
    (1, h_1, ..., h_r, 1, ..., 1) with each h_i >= 2, its genus is
    C(s-1,2) plus an offset o = sum (i-1)(h_i - 1), and the excesses
    h_i - 1 sum to k = d - s.  Position j is raised only while
    h_1..h_{j-1} are at least 2, so the raised positions stay at or below
    k <= s - 1 and the cap at s - 1 never binds: the core h_1..h_k, the
    offsets and the preorder are those of the canonical tree
    (2k + 1, k + 1), the same for every degree of that excess.  Bit o of
    ``offsets`` asks for genus C(s-1,2) + o; the hits are one AND with
    Off(k) (:func:`_excess_offsets`), and only a hit gets a witness: the
    first vertex of its offset in the canonical preorder
    (:func:`_excess_witness`) followed by s - 1 - k ones, the vertex the
    direct walk returns.

    Returns (the hit mask, {genus: witness} in ascending genus).  The
    table grows as about K^5 in the largest excess K asked, and an excess
    above ``MAX_EXCESS`` raises :class:`BudgetError` before any row is
    built; K = 57 serves every request of a classification's step 3 up to
    ``MAX_DEGREE``, but not every long length: k = d - s reaches 499 at
    the degree budget.
    """
    k = d - s
    hits = offsets & _excess_offsets(k)
    base, tail = (s - 1) * (s - 2) // 2, (1,) * (s - 1 - k)
    return hits, {base + o: _excess_witness(k, o) + tail for o in _set_bits(hits)}


def search_fixed_both(d: int, s: int, targets) -> dict[int, tuple[int, ...]]:
    """Witnesses for each target genus attainable at multiplicity d, length s.

    No sequence of multiplicity d is longer than d, so s > d finds nothing,
    and only d = 1 has one of length 1; a length below 1 raises ValueError.

    A short length, s <= d - s, asks :func:`length_witness` once per
    target, the rule every single-genus query applies.  A classification's
    step 3 sends only three requests here, each with one target:
    (15, 7, [33]), (16, 8, [41]) and (18, 9, [53]), the only short-length
    requests of a warm ascending sweep of every degree up to 1000.

    A long length, s >= d//2 + 1, is answered by :func:`long_length_hits`
    from the backward excess table, so an excess k = d - s above
    ``MAX_EXCESS`` raises :class:`BudgetError`; step 3 calls that rule
    directly with its pending offsets, all within the limit, and does not
    come here.  A single genus past the limit is for :func:`length_witness`,
    which walks for it instead.
    """
    _check_degree(d)
    if s < 1:
        raise ValueError("length must be >= 1")
    tlist = sorted({int(g) for g in targets})
    if not tlist or s > d or (s == 1 and d > 1):
        return {}
    k = d - s
    if s <= k:  # a short length: the tree depends on d
        found = ((g, length_witness(d, s, g)) for g in tlist)
        return {g: w for g, w in found if w is not None}
    base, top = (s - 1) * (s - 2) // 2, k * (k - 1) // 2
    offsets = 0
    for g in tlist:
        if 0 <= g - base <= top:
            offsets |= 1 << (g - base)
    return long_length_hits(d, s, offsets)[1] if offsets else {}


def length_witness(d: int, s: int, g: int):
    """First vertex of genus ``g`` in the fixed-(d, s) tree's preorder, or None.

    As in :func:`search_fixed_both`, s > d and s == 1 < d hold no sequence
    and return None, and a length below 1 raises ValueError.  A genus above
    ``max_genus(d, s)`` or in the length's ``hole_window`` returns None,
    and at a long length, s >= d//2 + 1, the top genus returns
    ``max_oseq(d, s)``, the only sequence with that genus: each of these
    would otherwise walk nearly the whole tree.  Any other genus is looked
    for by one walk, :func:`_walk_to`, pruned at ``g``, and not through the
    excess table of :func:`long_length_hits`: that table holds every offset
    of every excess up to the one asked, about K^5 bits at excess K, and a
    single query past ``MAX_EXCESS`` (up to k = 499 at the degree budget)
    would be refused where a walk of a small offset answers at once.
    """
    if s < 1:
        raise ValueError("length must be >= 1")
    if s > d or (s == 1 and d > 1):
        return None
    top = max_genus(d, s)
    if g > top or g in hole_window(d, s):
        return None
    if g == top and s > d // 2:
        return max_oseq(d, s)
    return _walk_to(d, s, g, bound_table(d))


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
        masks.extend(islice(layers, max(0, s + 1 - len(masks))))
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
    length whose least genus is at most g.  No sequence of multiplicity d
    has a genus above C(d-1, 2), so such a g builds nothing.
    """
    if g > (d - 1) * (d - 2) // 2:
        return
    s = 1
    while s <= d and (s - 1) * (s - 2) // 2 <= g:
        if _profile_prefix(d, s)[s] >> g & 1:
            yield s
        s += 1


def shortest_length(d: int, g: int):
    """Least s such that some multiplicity-d O-sequence of length s has genus g, or None."""
    _check_degree(d)
    return next(_lengths_of(d, g), None)
