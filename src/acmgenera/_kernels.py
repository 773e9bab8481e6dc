"""Hot search kernels: one pruned tree walk, the backward excess table, the
exhaustive enumeration and the per-length genus profile.

The per-length rule is :func:`length_hits`: it takes a bitmask of genera,
cuts it to the (d, s)-range less the length's hole values, and chooses
where the answers come from.  :func:`search_fixed_both` asks it for a list
of genera and :func:`length_witness` for one genus, which a
fixed-multiplicity search asks at the lengths the degree's genus profile
marks.  A classification's step 3 asks it at each short length it does not
skip, with its whole mask of pending values, and makes one pass over its
long lengths, :func:`long_lengths`.  At a short length the rule walks the
fixed-(d, s) tree once per genus.  The walk and the exhaustive enumeration
are explicit-stack loops over plain lists, reading the growth bound from a
per-degree table of :func:`acmgenera.macaulay.macaulay_bound` values; the
genus profile's dynamic program reads the same table.

At a long length, s >= d//2 + 1, the fixed-(d, s) tree depends only on the
excess k = d - s.  The rule there is :func:`long_lengths` over that one
length: it cuts the mask, and :func:`long_length_hits`, the per-length work
of every long length, reads the cut genera as a bitmask of offsets: the hits
are one AND with Off(k), and only the hits get witnesses.  Off(k) comes from
one backward table of suffix offsets that depends on neither k nor d: it
grows with the largest excess asked, and a greedy pass over it builds each
witness, so the answers do not depend on which requests came before.  Only
an excess past ``MAX_EXCESS``, where the table is refused, is walked, except
for its top genus, whose one sequence is a closed form.
"""
from __future__ import annotations

import threading
from functools import cache
from itertools import accumulate
from math import comb
from operator import or_
from typing import Iterator

from .errors import MAX_DEGREE, BudgetError, _check_degree
from .ranges import _grown, _hole_count, closed_max_oseq, max_genus

# The exhaustive enumeration generates and counts every sequence one at a
# time, and their number grows too fast for a complete enumeration past this
# degree (164,347 sequences at d = 40).
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

    Two rules keep the walk short.  The bound on the entry at position t,
    ``bounds[t - 1][h_{t-1}]`` (none at t = 1) capped by the multiplicity
    left, is read once, when the walk enters position t, and kept for that
    level with the remainder r.  An entry 1 at position t leaves exactly
    one completion, since macaulay_bound(1, t) = 1 forces every later entry
    to 1: so on entering a level the all-ones tail, r ones from position t
    on, closes at once, at length t + r with genus
    gc + r(t - 1) + r(r - 1)/2, gc the genus before position t.  The walk
    then tries the values 2, 3, ... up to the level's bound, each closing
    the sequence when it uses up the remainder and opening the next level
    otherwise.  Past position 0 a sequence is its entries of at least 2
    followed by its ones, so it is closed exactly once: by the tail rule at
    its first 1, or by its last entry when it has no 1 past position 0.
    """
    masks = [0] * (d + 1)
    val = [0] * (d + 1)  # per level: the entry tried, its bound, the multiplicity left, the genus before it
    top = [0] * (d + 1)
    rem = [0] * (d + 1)
    gen = [0] * (d + 1)
    top[1] = rem[1] = d - 1
    val[1] = 1
    masks[d] = 1 << ((d - 1) * (d - 2) // 2)  # (1, 1, ..., 1), the root's all-ones tail
    count = 1
    t = 1
    while t:
        v = val[t] + 1
        if v > top[t]:
            t -= 1
            continue
        val[t] = v
        r = rem[t]
        gc = gen[t] + (t - 1) * v
        if v == r:
            masks[t + 1] |= 1 << gc
            count += 1
            continue
        r -= v
        t += 1
        b = bounds[t - 1][v]
        top[t] = b if b < r else r
        rem[t] = r
        gen[t] = gc
        val[t] = 1
        masks[t + r] |= 1 << (gc + r * (t - 1) + r * (r - 1) // 2)
        count += 1
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
    hands each target state its mask in one shift.  Only nonempty states
    are kept.  Closing appends w = d - u, which lies in exactly one state's
    interval; there the running OR holds every state that can close, so the
    pass that builds layer t + 1 also collects the sequences of length t + 2.

    Yields masks[0], masks[1], ..., masks[d], the same masks as
    :func:`_brute_force_impl` returns.  Layer t yields its closed length
    t + 2 once it has built layer t + 1, so a caller that needs only the
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
                if lo > room:
                    continue
                hi = row_b[v]
                if hi >= room:
                    hi = room - 1
                    closed |= acc << (t * room)
                m = acc << (t * lo)
                for w in range(lo, hi + 1):
                    nxt[u + w].append((w, m))  # sources run up in u, so w runs down
                    m <<= t
        yield closed
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
# 64 MB; the table through K = 87 took 0.054-0.062 s in a fresh process,
# which peaked at 65 MB resident (2-core x86_64, Python 3.11.7).
MAX_EXCESS = 87


@cache
def _excess_table() -> tuple[list, list, list, list, list, threading.Lock]:
    """The backward excess table so far: (R, P, off, M, state, lock).

    ``R[i][u][v]`` is the bitmask of the suffix offsets sum_{j>=i} (j-1) e_j
    over the admissible excess suffixes e_i = v, e_{i+1}, ... with
    sum_{j>=i} e_j = u, kept for i + u <= K + 1, and ``P[i][u][v]``, for
    i >= 3, the OR of ``R[i][u][:v + 1]``.  ``M[k][v]``, a first-entry mask
    of excess k, is the OR of ``R[2][u][v]`` over the sums u < k whose cap
    at position 2, min(B(k - u + 1, 1) - 1, u), is at least v: the offsets
    of excess k whose e_2 is v.  It holds ``M[k - 1][v]``, and ``M[k]`` is
    at least as long, since the caps only rise with k.  ``off[k]`` is Off(k)
    for k <= K; ``state`` is [``bound_table(K + 2)``], which holds every
    bound the table and the witnesses read.  None of it depends on k or d,
    so :func:`_excess_offsets` grows it in place, under ``lock``.
    """
    return [], [], [], [], [None], threading.Lock()


def _excess_offsets(k: int) -> int:
    """Off(k): bit o is set iff some sequence of excess k has offset o.

    The table is first taken on to excess k, its new rows (i, u) by
    descending i.  An entry v >= 1 at position i allows e_{i+1} = w exactly
    when w + 1 <= macaulay_bound(v + 1, i), a prefix of w, so each entry is
    one prefix OR over row (i + 1, u - v), shifted by (i - 1) v.  The prefix
    ends at min(B(v + 1, i) - 1, u - v), and B(v + 1, i) - 1 + v rises with
    v, so a row splits at its crossover vs, the first v with
    B(v + 1, i) - 1 >= u - v: an entry below it reads that prefix, one from
    it on the whole OR of row (i + 1, u - v), and none takes a min.  vs
    rises with u, so one pointer per position finds it.  A sum u at
    position i needs k >= u + i - 1, e_1..e_{i-1} being positive, which
    bounds the rows kept.

    Then each new excess j gets its first-entry masks M[j], the OR of the
    rows R[2][u], u < j, up to the cap min(B(j - u + 1, 1) - 1, u) that
    h_1 = j - u + 1 sets at position 2, and Off(j) is 1, the all-ones
    sequence, ORed with every M[j][v].  The caps only rise with j, so M[j]
    is M[j - 1] with each sum's entries (old cap, new cap] ORed in, the
    sums taken down from u = j - 1 until one was already at its cap u, as
    every smaller sum then is; Off(j) grows from Off(j - 1) alike.  M[j] is
    appended before off[j], and a reader that finds off[j] needs no lock.
    An excess above ``MAX_EXCESS`` raises :class:`BudgetError` before any
    row is built.
    """
    if k > MAX_EXCESS:
        raise BudgetError(f"the excess table through k={k} exceeds the budget (limit {MAX_EXCESS})")
    R, P, off, M, state, lock = _excess_table()
    if k < len(off):  # off[k] is appended once its rows are built, so a warm read needs no lock
        return off[k]
    with lock:
        if k >= len(off):
            tab = bound_table(k + 2)
            while len(R) < k + 2:
                R.append([[1]])  # R[i][0]: the empty suffix, offset 0
                P.append([[1]])
            for i in range(k, 1, -1):
                prefix, row_b, rows, step = P[i + 1], tab[i], R[i], i - 1
                last = [p[-1] for p in prefix]  # last[w]: the whole OR of row (i + 1, w)
                vs = 1
                for u in range(len(rows), k + 2 - i):
                    while row_b[vs + 1] + vs <= u:  # the crossover: B(vs + 1, i) - 1 >= u - vs
                        vs += 1
                    row = [0]
                    row += [prefix[u - v][row_b[v + 1] - 1] << step * v for v in range(1, vs)]
                    row += [last[u - v] << step * v for v in range(vs, u + 1)]
                    rows.append(row)
                    if i > 2:  # position 2 is read through M, not P
                        P[i].append(list(accumulate(row, or_)))
            state[0] = tab
            row_b = tab[1]
            for j in range(len(off), k + 1):
                first, grown = (M[j - 1][:], off[j - 1]) if j else ([], 1)
                for u in range(j - 1, -1, -1):  # R[2] is read per sum: at j = 0 there is none
                    old = min(row_b[j - u] - 1, u) if u < j - 1 else -1  # the cap at excess j - 1
                    if old == u:  # saturated, and so is every smaller sum
                        break
                    cap, row = min(row_b[j - u + 1] - 1, u), R[2][u]
                    first += [0] * (cap + 1 - len(first))
                    for v in range(old + 1, cap + 1):
                        first[v] |= row[v]
                        grown |= row[v]
                M.append(first)
                off.append(grown)
    return off[k]


@cache
def _excess_witness(k: int, o: int) -> tuple[int, ...]:
    """(1, h_1, ..., h_k) of the canonical tree (2k + 1, k + 1)'s first vertex of offset o.

    That vertex has the lexicographically largest (e_2, e_3, ...).  e_2 is
    the largest v whose first-entry mask M[k][v] holds o, one bit test per
    value, and the sums kept are the u < k whose row R[2][u][e_2] holds o
    and whose cap at position 2 reaches e_2: a sum u leaves e_1 = k - u,
    and h_2 <= h_1(h_1+1)/2 caps e_2.  Each kept sum then follows one
    greedy path: at position i, with w of the sum left and the offset left
    o', e_i is the largest v up to min(B(e_{i-1} + 1, i - 1) - 1, w) whose
    entry R[i][w][v] holds o'.  Such a v exists, since the entry the path
    came from held the offset, and taking it yields that sum's
    lexicographically largest suffix.  The largest of those paths is the
    vertex's; two sums never share a path, as a path sums to its sum.
    Once an entry e_{i-1} is 1 the path is forced: its cap at position i is
    B(2, i - 1) - 1 = 1, and R[i][w][0] is empty for w > 0, so the w units
    left are w entries 1, taken in one step.  About four greedy steps in
    five are such forced ones.  Needs Off(k) built and bit o set in it.
    """
    if not k:
        return (1,)
    R, _, _, M, (tab,), _ = _excess_table()
    first = M[k]
    e2 = len(first) - 1
    while not first[e2] >> o & 1:
        e2 -= 1
    rows, row_b = R[2], tab[1]
    best, h1 = [], k + 1  # e_2 = 0 only at o = 0, with the empty core
    for u in range(e2, k) if e2 else ():
        if row_b[k - u + 1] <= e2 or not rows[u][e2] >> o & 1:
            continue
        path, v, w, rest, i = [e2 + 1], e2, u - e2, o - e2, 3
        while w:
            if v == 1:  # the rest of the path is w ones of excess
                path += [2] * w
                break
            v = tab[i - 1][v + 1] - 1
            if v > w:
                v = w
            row = R[i][w]
            while not row[v] >> rest & 1:
                v -= 1
            path.append(v + 1)
            rest -= (i - 1) * v
            w -= v
            i += 1
        if path > best:
            best, h1 = path, k - u + 1
    return (1, h1, *best) + (1,) * (k - 1 - len(best))


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


def long_length_hits(d: int, s: int, offsets: int, found: dict) -> int:
    """The offsets in the mask ``offsets`` attained at a long length; their witnesses go into ``found``.

    At a long length, s >= d//2 + 1, a length-s sequence is
    (1, h_1, ..., h_r, 1, ..., 1) with each h_i >= 2, its genus is
    C(s-1,2) plus an offset o = sum (i-1)(h_i - 1), and the excesses
    h_i - 1 sum to k = d - s.  Position j is raised only while
    h_1..h_{j-1} are at least 2, so the raised positions stay at or below
    k <= s - 1 and the cap at s - 1 never binds: the core h_1..h_k, the
    offsets and the preorder are those of the canonical tree
    (2k + 1, k + 1), the same for every degree of that excess.  Bit o of
    ``offsets`` asks for genus C(s-1,2) + o; the hits are one AND with
    Off(k), read from the grown table and built by
    :func:`_excess_offsets` only when k is past it, and only a hit gets a
    witness: the first vertex of its offset in the canonical preorder
    (:func:`_excess_witness`) followed by s - 1 - k ones, the vertex the
    direct walk returns.  ``found[C(s-1,2) + o]`` receives it, in ascending
    genus.

    This is the per-length work of every long length, whoever asks:
    :func:`long_lengths` calls it once for each length whose cut leaves an
    offset.  Returns the hit mask, as offsets.  The table grows as about K^5
    in the largest excess K asked, and an excess above ``MAX_EXCESS``
    raises :class:`BudgetError` before any row is built; K = 57 serves
    every request of a classification's step 3 up to ``MAX_DEGREE``, but
    not every long length: k = d - s reaches 499 at the degree budget.
    """
    k = d - s
    off = _excess_table()[2]
    hits = offsets & (off[k] if k < len(off) else _excess_offsets(k))
    if hits:
        base, tail = (s - 1) * (s - 2) // 2, (1,) * (s - 1 - k)
        for o in _set_bits(hits):
            found[base + o] = _excess_witness(k, o) + tail
    return hits


def long_lengths(d: int, s: int, stop: int, genera: int, found: dict) -> int:
    """The genera in the mask ``genera`` attained at the long lengths s .. stop - 1; witnesses into ``found``.

    One pass in ascending length, for d//2 + 1 <= s and stop <= d + 1,
    that keeps C(s-1,2) and k = d - s as running values.  A genus found at
    one length is not asked at the next.  A value below C(s-1,2) cannot be
    reached from s on, and a length whose top genus, C(s-1,2) + C(k,2), lies
    below the least value still asked is skipped; the pass stops once no
    value is left.  At every other length the mask is cut to the offsets
    o = g - C(s-1,2) of the (d, s)-range less its hole values
    (:func:`~acmgenera.ranges.hole_window`), which stay asked for the longer
    lengths.  No length-s sequence has a hole genus, so the cut changes no
    output, but it keeps the excess table from growing for values it cannot
    hold: without it 211 of the degrees 3..1000 ask a larger excess
    (d = 150 asks 23 instead of 22).  Cut offsets at an excess of at most
    ``MAX_EXCESS`` go to :func:`long_length_hits`.  Past that limit (up to
    k = 499 at the degree budget) the table would be refused, so the top
    genus gets :func:`~acmgenera.ranges.closed_max_oseq`, the only sequence
    with that genus, and any other one is walked for (:func:`_walked`).

    ``found`` receives the witnesses in ascending length, then ascending
    genus.  Returns the hit mask, as genera.
    """
    base, k, hits_all, low = (s - 1) * (s - 2) // 2, d - s, 0, -1  # low: the least value asked, or -1
    for s in range(s, stop):
        if low < base:
            genera &= -1 << base
            if not genera:
                break
            low = (genera & -genera).bit_length() - 1
        top = k * (k - 1) // 2  # C(k,2), the top offset
        if base + top >= low:
            offsets = (genera >> base) & (((1 << (top - _hole_count(d, s))) - 1) | 1 << top)
            if offsets:
                if k <= MAX_EXCESS:
                    hits = long_length_hits(d, s, offsets, found) << base
                else:
                    hits = _walked(d, s, offsets << base, base + top, found)
                if hits:
                    hits_all |= hits
                    genera ^= hits
                    low = -1
        base += s - 1
        k -= 1
    return hits_all


def _walked(d: int, s: int, targets: int, closed: int, found: dict) -> int:
    """The genera in the mask ``targets`` found by one pruned walk each; witnesses into ``found``.

    Genus ``closed`` is the top genus of a long length, whose one sequence
    is :func:`~acmgenera.ranges.closed_max_oseq`; -1 asks for none.
    Returns the hit mask.
    """
    hits = 0
    for g in _set_bits(targets):
        w = closed_max_oseq(d, s) if g == closed else _walk_to(d, s, g, bound_table(d))
        if w is not None:
            found[g] = w
            hits |= 1 << g
    return hits


def length_hits(d: int, s: int, genera: int) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The genera in the mask ``genera`` attained at multiplicity d, length s, and their witnesses.

    The per-length rule: bit g of ``genera`` asks for genus g, and its
    witness is the first vertex of genus g in the fixed-(d, s) tree's
    preorder.  No sequence of multiplicity d is longer than d, so s > d
    holds none, and only d = 1 has one of length 1; a length below 1 raises
    ValueError, and a degree above the budget :class:`BudgetError`.

    A long length, s >= d//2 + 1, is the pass :func:`long_lengths` over
    that length alone, which cuts the mask to the range less its hole values
    and reads the excess table.  A short length holds no holes: each genus
    up to ``max_genus(d, s)`` is looked for by one walk, :func:`_walk_to`,
    pruned at it.  A classification's step 3 asks this rule at its short
    lengths only, and makes one pass over its long ones.

    Returns (the hit mask, {genus: witness} in ascending genus).
    """
    found: dict[int, tuple[int, ...]] = {}
    if 0 <= d - s < s and d <= MAX_DEGREE:  # a long length, d//2 + 1 <= s <= d, within the degree budget
        return long_lengths(d, s, s + 1, genera, found), found
    if s < 1:
        raise ValueError("length must be >= 1")
    if s > d or s == 1:  # s = 1 is short only for d > 1
        return 0, found
    # a short length, or a degree past the budget, which max_genus refuses
    return _walked(d, s, genera & ((1 << (max_genus(d, s) + 1)) - 1), -1, found), found


def search_fixed_both(d: int, s: int, targets) -> dict[int, tuple[int, ...]]:
    """Witnesses for each target genus attainable at multiplicity d, length s.

    The per-length rule :func:`length_hits` asked for the targets as one
    mask, answered in ascending genus; a target outside [0, C(d-1,2)]
    holds no sequence and never becomes a bit.  A classification's step 3
    does not come here: it asks the rule directly, with its whole mask of
    pending values.
    """
    _check_degree(d)
    most = (d - 1) * (d - 2) // 2
    mask = bytearray(most // 8 + 1)  # one pass over the targets: an int would be copied once per bit set
    for g in map(int, targets):
        if 0 <= g <= most:
            mask[g >> 3] |= 1 << (g & 7)
    return length_hits(d, s, int.from_bytes(mask, "little"))[1]


def length_witness(d: int, s: int, g: int):
    """First vertex of genus ``g`` in the fixed-(d, s) tree's preorder, or None.

    The per-length rule :func:`length_hits` asked for one genus; a genus
    outside [0, C(d-1,2)] asks for none, so it returns None after the
    rule's checks of the length and the degree.
    """
    return length_hits(d, s, 1 << g if 0 <= g <= (d - 1) * (d - 2) // 2 else 0)[1].get(g)


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
    """Degree d's genus profile so far: (masks, the layers still to run, their lock).

    ``_grown(_profile(d), s + 1)`` holds masks[0..s], final (all d + 1 masks
    once s >= d).  The dynamic program runs one layer per length and resumes
    where the previous read stopped, so a query answered at a short length
    never pays for the long ones.
    """
    return [], _length_profile_impl(d, bound_table(d)), threading.Lock()


def length_profile(d: int) -> tuple[int, ...]:
    """masks[s]: bit g is set iff some multiplicity-d O-sequence of length s has genus g.

    Built once per degree by the running-OR dynamic program, which reads the
    same ``bound_table(d)`` rows as the searches.
    """
    _check_degree(d)
    return tuple(_grown(_profile(d), d + 1))


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
        if _grown(_profile(d), s + 1)[s] >> g & 1:
            yield s
        s += 1


def shortest_length(d: int, g: int):
    """Least s such that some multiplicity-d O-sequence of length s has genus g, or None."""
    _check_degree(d)
    return next(_lengths_of(d, g), None)
