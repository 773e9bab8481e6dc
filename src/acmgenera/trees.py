"""The graph of finite O-sequences and its spanning trees.

Edges of the full graph add 1 to a single entry, so multiplicity grows by 1
along every edge.  Four spanning-tree families are supported:

* ``full`` -- all finite O-sequences (infinite; requires a multiplicity cap),
* ``length`` -- the O-sequences of one fixed length (infinite; capped),
* ``multiplicity`` -- the O-sequences of one fixed multiplicity,
* ``both`` -- fixed multiplicity and fixed length.

Each tree is defined by its parent map; ``children`` inverts that map and
validates every candidate with :func:`~acmgenera.macaulay.is_admissible`,
which keeps the edge rules honest in one place.  Children are ordered by the
index of the incremented entry, so depth-first traversal order is
deterministic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .errors import BudgetError, EmptyFamilyError, MembershipError
from .macaulay import format_oseq, genus, is_admissible, multiplicity
from .ranges import min_oseq

PRECEDES_MAX_MULTIPLICITY = 20
DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class TreeFamily:
    """Selector for one of the four spanning trees.

    ``cap`` bounds the multiplicity of the vertices for the two infinite
    families; constructing those without a cap is refused.
    """

    kind: str  # "full" | "length" | "multiplicity" | "both"
    s: Optional[int] = None
    d: Optional[int] = None
    cap: Optional[int] = None

    def __post_init__(self):
        if self.kind in ("full", "length"):
            if self.cap is None or self.cap < 1:
                raise ValueError(f"{self.kind} family is infinite and needs cap >= 1")
        if self.kind == "length" and (self.s is None or self.s < 1):
            raise ValueError("length family needs s >= 1")
        if self.kind == "multiplicity" and (self.d is None or self.d < 1):
            raise ValueError("multiplicity family needs d >= 1")
        if self.kind == "both":
            if self.s is None or self.d is None or self.s < 1:
                raise ValueError("both family needs d and s >= 1")
            if self.d < self.s:
                raise EmptyFamilyError(
                    f"no O-sequence has multiplicity {self.d} and length {self.s}"
                )
            if self.s == 1 and self.d > 1:
                raise EmptyFamilyError(f"no O-sequence of length 1 has multiplicity {self.d}")

    @classmethod
    def full(cls, cap: int) -> "TreeFamily":
        return cls("full", cap=cap)

    @classmethod
    def fixed_length(cls, s: int, cap: int) -> "TreeFamily":
        return cls("length", s=s, cap=cap)

    @classmethod
    def fixed_multiplicity(cls, d: int) -> "TreeFamily":
        return cls("multiplicity", d=d)

    @classmethod
    def fixed_both(cls, d: int, s: int) -> "TreeFamily":
        return cls("both", s=s, d=d)

    def contains(self, h) -> bool:
        ht = tuple(h)
        if not is_admissible(ht):
            return False
        if self.kind == "full":
            return multiplicity(ht) <= self.cap
        if self.kind == "length":
            return len(ht) == self.s and multiplicity(ht) <= self.cap
        if self.kind == "multiplicity":
            return multiplicity(ht) == self.d
        return multiplicity(ht) == self.d and len(ht) == self.s


def _require_member(h, family: TreeFamily) -> tuple[int, ...]:
    ht = tuple(h)
    if not family.contains(ht):
        raise MembershipError(f"{format_oseq(ht)} is not in the {family.kind} family {family}")
    return ht


def root_of(family: TreeFamily) -> tuple[int, ...]:
    """The root vertex of the family's spanning tree."""
    if family.kind == "full":
        return (1,)
    if family.kind == "length":
        return (1,) * family.s
    if family.kind == "multiplicity":
        return (1,) if family.d == 1 else (1, family.d - 1)
    return min_oseq(family.d, family.s)


def children(h, family: TreeFamily) -> list[tuple[int, ...]]:
    """Tree children of ``h``, ordered by the index of the incremented entry."""
    ht = _require_member(h, family)
    s = len(ht)
    out: list[tuple[int, ...]] = []

    if family.kind == "full":
        if s >= 2:
            bump_last = ht[:-1] + (ht[-1] + 1,)
            if is_admissible(bump_last) and multiplicity(bump_last) <= family.cap:
                out.append(bump_last)
        appended = ht + (1,)
        if multiplicity(appended) <= family.cap:
            out.append(appended)
        return out

    if family.kind == "length":
        jmin = max((i for i in range(1, s) if ht[i] > 1), default=1)
        for j in range(jmin, s):
            cand = ht[:j] + (ht[j] + 1,) + ht[j + 1:]
            if is_admissible(cand) and multiplicity(cand) <= family.cap:
                out.append(cand)
        return out

    if family.kind == "multiplicity":
        if s >= 3 and ht[1] >= 2:
            cand = (1, ht[1] - 1) + ht[2:-1] + (ht[-1] + 1,)
            if is_admissible(cand):
                out.append(cand)
        if ht[1:2] and ht[1] >= 2:
            cand = (1, ht[1] - 1) + ht[2:] + (1,)
            if is_admissible(cand):
                out.append(cand)
        return out

    # fixed multiplicity and length: move one unit from position 1 upward
    if s < 3 or ht[1] < 2:
        return out
    jmin = max((i for i in range(2, s) if ht[i] > 1), default=2)
    for j in range(jmin, s):
        cand = (1, ht[1] - 1) + ht[2:j] + (ht[j] + 1,) + ht[j + 1:]
        if is_admissible(cand):
            out.append(cand)
    return out


def parent(h, family: TreeFamily) -> Optional[tuple[int, ...]]:
    """The unique tree parent of ``h``, or None at the root."""
    ht = _require_member(h, family)
    if ht == root_of(family):
        return None
    s = len(ht)

    if family.kind == "full":
        return ht[:-1] if ht[-1] == 1 else ht[:-1] + (ht[-1] - 1,)

    if family.kind == "length":
        k = max(i for i in range(1, s) if ht[i] > 1)
        return ht[:k] + (ht[k] - 1,) + ht[k + 1:]

    if family.kind == "multiplicity":
        # undo the last step: lower the final entry, raise position 1
        if ht[-1] == 1:
            return (1, ht[1] + 1) + ht[2:-1]
        return (1, ht[1] + 1) + ht[2:-1] + (ht[-1] - 1,)

    k = max(i for i in range(2, s) if ht[i] > 1)
    return (1, ht[1] + 1) + ht[2:k] + (ht[k] - 1,) + ht[k + 1:]


def iter_family(family: TreeFamily, max_nodes: int = DEFAULT_NODE_BUDGET) -> Iterator[tuple[int, ...]]:
    """Depth-first preorder over every vertex of the family, each exactly once."""
    seen = 0
    stack = [root_of(family)]
    while stack:
        h = stack.pop()
        seen += 1
        if seen > max_nodes:
            raise BudgetError(f"family visit exceeded the {max_nodes}-node budget")
        yield h
        stack.extend(reversed(children(h, family)))


def tree_edges(family: TreeFamily, max_nodes: int = DEFAULT_NODE_BUDGET) -> Iterator[tuple[tuple, tuple]]:
    """All (parent, child) tree edges, in preorder of the parent."""
    for h in iter_family(family, max_nodes=max_nodes):
        for c in children(h, family):
            yield h, c


def export_json(family: TreeFamily, max_nodes: int = DEFAULT_NODE_BUDGET) -> dict:
    """Adjacency form ``{"root": ..., "edges": [[h, h'], ...]}`` of the tree."""
    edges = [[format_oseq(a), format_oseq(b)] for a, b in tree_edges(family, max_nodes)]
    return {"root": format_oseq(root_of(family)), "edges": edges}


def export_dot(family: TreeFamily, max_nodes: int = DEFAULT_NODE_BUDGET) -> str:
    """DOT digraph of the spanning tree."""
    lines = ["digraph oseq_tree {"]
    lines.append(f'  root = "{format_oseq(root_of(family))}";')
    for a, b in tree_edges(family, max_nodes):
        lines.append(f'  "{format_oseq(a)}" -> "{format_oseq(b)}";')
    lines.append("}")
    return "\n".join(lines)


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
        if not is_admissible(h0):
            continue
        for j in range(i + 1, len(h0) + 1):
            cand = h0 + (1,) if j == len(h0) else h0[:j] + (h0[j] + 1,) + h0[j + 1:]
            if is_admissible(cand):
                out.add(cand)
    return tuple(sorted(out))


def precedes(h1, h2) -> bool:
    """Strict genus-increasing partial order between O-sequences of one multiplicity."""
    a, b = tuple(h1), tuple(h2)
    if not (is_admissible(a) and is_admissible(b)):
        raise ValueError("precedes requires admissible O-sequences")
    if multiplicity(a) != multiplicity(b):
        raise ValueError("precedes is only defined for equal multiplicities")
    if multiplicity(a) > PRECEDES_MAX_MULTIPLICITY:
        raise ValueError(
            f"precedes queries are limited to multiplicity <= {PRECEDES_MAX_MULTIPLICITY}"
        )
    if a == b:
        return False
    # the order refines the genus, so prune paths that overshoot
    target_genus = genus(b)
    frontier = [a]
    visited = {a}
    while frontier:
        nxt = []
        for h in frontier:
            for succ in _order_successors(h):
                if succ == b:
                    return True
                if succ not in visited and genus(succ) < target_genus:
                    visited.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return False


def total_compare(h1, h2) -> int:
    """Total order on one (multiplicity, length) class: compare at the largest differing index.

    Returns -1, 0, or 1.
    """
    a, b = tuple(h1), tuple(h2)
    if len(a) != len(b) or multiplicity(a) != multiplicity(b):
        raise ValueError("total_compare requires equal length and multiplicity")
    for j in range(len(a) - 1, -1, -1):
        if a[j] != b[j]:
            return -1 if a[j] < b[j] else 1
    return 0


def export_tree(family: TreeFamily, fmt: str, max_nodes: int = DEFAULT_NODE_BUDGET):
    if fmt == "dot":
        return export_dot(family, max_nodes)
    if fmt == "json":
        return json.dumps(export_json(family, max_nodes), sort_keys=True)
    raise ValueError(f"unknown export format {fmt!r}")
