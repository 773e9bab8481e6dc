"""Shared fixtures and independent reference oracles.

The reference generator below enumerates O-sequences by direct recursive
extension of prefixes, using only the growth bound; it never touches the
tree machinery or the search kernels, so it can vouch for both.  Past its
reach, :func:`independent_checker` loads the benchmark's output checker,
whose dynamic program imports nothing from the package.
"""
import importlib.util
from functools import lru_cache
from pathlib import Path

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


# the step-1 and step-2 loops as first written, kept as oracles for the faster forms


def reference_certain_masks(d: int) -> list[int]:
    """Step-1 bitmasks by the plain shifted-union recursion, degrees 0..d."""
    tri = [k * (k - 1) // 2 for k in range(d + 1)]
    masks = [0, 1]
    for m in range(2, d + 1):
        acc = 0
        for i in range(1, m):
            acc |= masks[i] << tri[m - i]
        masks.append(acc & ((1 << (tri[m - 1] + 1)) - 1))
    return masks[: d + 1]


def reference_certified_gaps(d: int) -> list:
    """Step-2 certificates, one NamedTuple call per value, holes tested per index."""
    from acmgenera.ranges import GapCertificate, closed_max_genus, is_separated

    if d <= 2:
        return []
    out = []
    with_holes = d // 2 + 1 >= 7
    for s in range(d // 2 + 1, d):
        top = closed_max_genus(d, s)
        if with_holes and s < d - 3:
            # hole i lies below the next range's minimum iff s - 1 - C(d-s,2) + i > 0
            for i in range(d - s - 3, max(1, ag.binomial(d - s, 2) - s + 2) - 1, -1):
                out.append(GapCertificate(top - i, "hole-always-gap", s, i))
        if is_separated(d, s):
            for value in range(top + 1, ag.min_genus(s + 1)):
                out.append(GapCertificate(value, "between-ranges", s))
    return out


def range_complement(d: int) -> list[int]:
    """Integers of [0, C(d-1,2)] inside no (d, s)-range, from exact endpoints.

    The reference for the closed-form between-range certificates.
    """
    uncovered: list[int] = []
    reach = -1
    for lo, hi in sorted((row.min_genus, row.max_genus) for row in ag.range_table(d)):
        if lo > reach + 1:
            uncovered.extend(range(reach + 1, lo))
        reach = max(reach, hi)
    uncovered.extend(range(reach + 1, ag.binomial(d - 1, 2) + 1))
    return uncovered


# the multi-target walk that searched every fixed-(d, s) tree before the
# excess table and the single-genus walk, kept as their reference


def reference_walk(d, s, targets, bounds):
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


# the greedy witness pass that scanned every suffix sum's candidates at
# position 2 before the excess table kept its first-entry masks


def reference_excess_witness(k: int, o: int) -> tuple[int, ...]:
    """(1, h_1, ..., h_k) of the canonical tree (2k + 1, k + 1)'s first vertex of offset o.

    That vertex has the lexicographically largest (e_2, e_3, ...), so each
    entry is taken as large as the table allows, keeping the suffix sums
    still possible.  At position 2 a sum u leaves e_1 = k - u, and h_2 <=
    h_1(h_1+1)/2 caps e_2; further on, e_{i-1} caps e_i.  Reads the rows
    R[i][u][v] of ``_kernels._excess_table``; needs Off(k) built and bit o
    set in it.
    """
    from acmgenera import _kernels

    if not k:
        return (1,)
    R, *_, (tab,), _ = _kernels._excess_table()
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


# the excess table's build before its rows were split at the crossover and
# its first-entry masks grown by excess


@lru_cache(maxsize=None)
def reference_excess_table(K: int) -> tuple[list, list, list, list]:
    """(R, P, M, off) of ``_kernels._excess_table`` through excess K, built from scratch.

    Each row entry R[i][u][v], v >= 1, caps e_{i+1} by min(B(v + 1, i) - 1,
    u - v) and reads that prefix OR of row (i + 1, u - v); P[i] is kept for
    i >= 3.  Each M[k] is ORed anew from every sum u < k up to its cap at
    position 2, min(B(k - u + 1, 1) - 1, u), and off[k] is 1 ORed with
    every M[k][v].
    """
    from functools import reduce
    from itertools import accumulate
    from operator import or_

    from acmgenera._kernels import bound_table

    tab = bound_table(K + 2)
    R = [[[1]] for _ in range(K + 2)]
    P = [[[1]] for _ in range(K + 2)]
    for i in range(K, 1, -1):
        for u in range(1, K + 2 - i):
            row = [0] + [P[i + 1][u - v][min(tab[i][v + 1] - 1, u - v)] << (i - 1) * v
                         for v in range(1, u + 1)]
            R[i].append(row)
            if i > 2:
                P[i].append(list(accumulate(row, or_)))
    M, off = [], []
    for k in range(K + 1):
        caps = [min(tab[1][k - u + 1] - 1, u) for u in range(k)]
        first = [0] * (max(caps, default=-1) + 1)
        for u, cap in enumerate(caps):
            for v in range(cap + 1):
                first[v] |= R[2][u][v]
        M.append(first)
        off.append(reduce(or_, first, 1))
    return R, P, M, off


def record_step3_requests(monkeypatch) -> list:
    """Record each length that step 3 asks about, as (d, s, sorted target genera).

    Step 3 hands its whole pending mask to ``_kernels.length_hits`` at each
    short length, s <= d - s, where the rule keeps the genera up to
    ``max_genus(d, s)``, recorded when there are any.  Its one pass over the
    long lengths, ``_kernels.long_lengths``, hands each length's cut to
    ``_kernels.long_length_hits`` as a mask of offsets from C(s-1,2) when the
    cut leaves any.  Both are read back as genera.
    """
    from acmgenera import _kernels
    from acmgenera.ranges import max_genus

    asked = []

    def per_length(d, s, genera, _inner=_kernels.length_hits):
        if 2 <= s <= d - s:
            kept = _kernels._set_bits(genera & ((1 << (max_genus(d, s) + 1)) - 1))
            if kept:
                asked.append((d, s, kept))
        return _inner(d, s, genera)

    def long_length(d, s, offsets, found, _inner=_kernels.long_length_hits):
        base = (s - 1) * (s - 2) // 2
        asked.append((d, s, [base + o for o in _kernels._set_bits(offsets)]))
        return _inner(d, s, offsets, found)

    monkeypatch.setattr(_kernels, "length_hits", per_length)
    monkeypatch.setattr(_kernels, "long_length_hits", long_length)
    return asked


def _load_perfbench(name: str):
    """perfbench/<name>.py, loaded read-only as a module of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def independent_checker():
    """perfbench/checker.py, which imports nothing from acmgenera, loaded read-only."""
    return _load_perfbench("checker")


@lru_cache(maxsize=None)
def benchmark_tracer():
    """perfbench/tracer.py, loaded read-only; its TARGETS name the attributes it wraps."""
    return _load_perfbench("tracer")


# the partial order by its chain definition: the breadth-first search that
# trees.precedes ran before its suffix-sum form


@lru_cache(maxsize=None)
def _order_successors(h: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Immediate successors of ``h`` in the genus-increasing order on one multiplicity.

    ``h'`` is a successor when h = h0 + e_i, h' = h0 + e_j for an admissible
    h0 and i < j; equivalently one unit moves from position i to a higher
    position j through an admissible intermediate.
    """
    s = len(h)
    out = set()
    for i in range(1, s):
        if i < s - 1 and h[i] == 1:
            continue  # removing would leave a zero inside the sequence
        h0 = h[:-1] if (i == s - 1 and h[i] == 1) else h[:i] + (h[i] - 1,) + h[i + 1:]
        if not ag.is_admissible(h0):
            continue
        for j in range(i + 1, len(h0) + 1):
            cand = h0 + (1,) if j == len(h0) else h0[:j] + (h0[j] + 1,) + h0[j + 1:]
            if ag.is_admissible(cand):
                out.add(cand)
    return tuple(sorted(out))


def reference_precedes(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when a chain of one-unit moves leads from ``a`` to ``b`` (admissible, one multiplicity)."""
    if a == b:
        return False
    # the order refines the genus, so prune paths that overshoot
    target_genus = ag.genus(b)
    frontier = [a]
    visited = {a}
    while frontier:
        nxt = []
        for h in frontier:
            for succ in _order_successors(h):
                if succ == b:
                    return True
                if succ not in visited and ag.genus(succ) < target_genus:
                    visited.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return False
