"""The graph of finite O-sequences and its spanning trees.

Edges of the full graph add 1 to a single entry, so multiplicity grows by 1
along every edge.  Four spanning-tree families are supported:

* ``full`` -- all finite O-sequences (infinite; requires a multiplicity cap),
* ``length`` -- the O-sequences of one fixed length (infinite; capped),
* ``multiplicity`` -- the O-sequences of one fixed multiplicity,
* ``both`` -- fixed multiplicity and fixed length.

One step rule serves all four, read off two facts a family carries.  With
the multiplicity fixed (``d`` set) a step moves one unit from position 1
upward, so raises count from position 2; otherwise a step raises one entry
from position 1 on.  With the length fixed (``s`` set) the entries past the
last raised position are 1; otherwise they are 0 and raising the position
just past the end appends a 1.  Let J be the highest raisable position whose
entry exceeds that padding.  The parent lowers h_J (dropping a trailing 0,
and giving the unit back to position 1 when the multiplicity is fixed).  The
children raise J or J + 1 and keep what :func:`~acmgenera.macaulay.is_admissible`
and the cap accept: every entry past J + 1 is the padding, and
macaulay_bound(1, t) = 1, so no higher raise can pass.  Children are ordered
by the raised position, so depth-first traversal order is deterministic.
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
_FIELDS = {"full": ("cap",), "length": ("s", "cap"), "multiplicity": ("d",), "both": ("d", "s")}


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
        # the step rule reads s, d and cap, so a field the kind does not take is refused
        used = _FIELDS.get(self.kind)
        if used is None:
            raise ValueError(f"unknown family kind {self.kind!r}")
        unused = [f for f in ("s", "d", "cap") if f not in used and getattr(self, f) is not None]
        if unused:
            raise ValueError(f"{self.kind} family takes no {' or '.join(unused)}")
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
        return (
            is_admissible(ht)
            and (self.s is None or len(ht) == self.s)
            and (self.d is None or multiplicity(ht) == self.d)
            and (self.cap is None or multiplicity(ht) <= self.cap)
        )


def _require_member(h, family: TreeFamily) -> tuple[int, ...]:
    ht = tuple(h)
    if not family.contains(ht):
        raise MembershipError(f"{format_oseq(ht)} is not in the {family.kind} family {family}")
    return ht


def _top(ht: tuple[int, ...], family: TreeFamily) -> tuple[int, int]:
    """``(lo, J)``: the first raisable position and the last one above the padding.

    The padding is 1 at fixed length and 0 otherwise.  J is below ``lo``
    exactly at the root.
    """
    lo = 1 if family.d is None else 2
    pad = 0 if family.s is None else 1
    j = len(ht) - 1
    while j >= lo and ht[j] <= pad:
        j -= 1
    return lo, j


def root_of(family: TreeFamily) -> tuple[int, ...]:
    """The root vertex of the family's spanning tree."""
    if family.cap is not None:
        return (1,) * (family.s or 1)
    return min_oseq(family.d, family.s or min(family.d, 2))


def children(h, family: TreeFamily) -> list[tuple[int, ...]]:
    """Tree children of ``h``: raise J or J + 1, ordered by the raised position."""
    return _children(_require_member(h, family), family)


def _children(ht: tuple[int, ...], family: TreeFamily) -> list[tuple[int, ...]]:
    """:func:`children` of a vertex known to be in the family, with no membership check."""
    if family.cap is not None and multiplicity(ht) >= family.cap:
        return []  # every raise in a capped family adds 1 to the multiplicity
    lo, j = _top(ht, family)
    end = len(ht) + (family.s is None)  # raising len(ht) appends a 1
    out: list[tuple[int, ...]] = []
    for k in range(max(j, lo), min(j + 2, end)):
        cand = list(ht) if k < len(ht) else [*ht, 0]
        cand[k] += 1
        if family.d is not None:
            cand[1] -= 1
        cand = tuple(cand)
        if is_admissible(cand):
            out.append(cand)
    return out


def parent(h, family: TreeFamily) -> Optional[tuple[int, ...]]:
    """The unique tree parent of ``h``, or None at the root: lower h_J."""
    ht = _require_member(h, family)
    lo, j = _top(ht, family)
    if j < lo:
        return None
    p = list(ht)
    p[j] -= 1
    if p[-1] == 0:
        p.pop()
    if family.d is not None:
        p[1] += 1
    return tuple(p)


def _walk(family: TreeFamily, max_nodes: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """``(vertex, children)`` in depth-first preorder; every vertex is generated, so none is re-checked."""
    seen = 0
    stack = [root_of(family)]
    while stack:
        h = stack.pop()
        seen += 1
        if seen > max_nodes:
            raise BudgetError(f"family visit exceeded the {max_nodes}-node budget")
        kids = _children(h, family)
        yield h, kids
        stack.extend(reversed(kids))


def iter_family(family: TreeFamily, max_nodes: int = DEFAULT_NODE_BUDGET) -> Iterator[tuple[int, ...]]:
    """Depth-first preorder over every vertex of the family, each exactly once."""
    for h, _ in _walk(family, max_nodes):
        yield h


def tree_edges(family: TreeFamily, max_nodes: int = DEFAULT_NODE_BUDGET) -> Iterator[tuple[tuple, tuple]]:
    """All (parent, child) tree edges, in preorder of the parent."""
    for h, kids in _walk(family, max_nodes):
        for c in kids:
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
