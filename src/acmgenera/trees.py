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

from collections import namedtuple
from typing import Iterator, Optional

from .errors import MAX_DEGREE, BudgetError, EmptyFamilyError, MembershipError
from .macaulay import format_oseq, is_admissible, multiplicity
from .ranges import min_oseq

PRECEDES_MAX_MULTIPLICITY = 20
DEFAULT_NODE_BUDGET = 10_000_000
_FIELDS = {"full": ("cap",), "length": ("s", "cap"), "multiplicity": ("d",), "both": ("d", "s")}


class TreeFamily(namedtuple("TreeFamily", "kind s d cap")):
    """Selector for one of the four spanning trees.

    ``kind`` is "full", "length", "multiplicity" or "both".  ``cap`` bounds
    the multiplicity of the vertices for the two infinite families;
    constructing those without a cap is refused.
    """

    __slots__ = ()

    def __new__(
        cls, kind: str, s: Optional[int] = None, d: Optional[int] = None, cap: Optional[int] = None
    ):
        self = super().__new__(cls, kind, s, d, cap)
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
        if self.kind == "both" and (self.s is None or self.d is None or self.s < 1):
            raise ValueError("both family needs d and s >= 1")
        if self.d is not None and self.d > MAX_DEGREE:
            # a fixed multiplicity is held to the degree budget, as at every entry point
            raise BudgetError(f"degree {self.d} exceeds the degree budget (limit {MAX_DEGREE})")
        if self.kind == "both":
            if self.d < self.s:
                raise EmptyFamilyError(
                    f"no O-sequence has multiplicity {self.d} and length {self.s}"
                )
            if self.s == 1 and self.d > 1:
                raise EmptyFamilyError(f"no O-sequence of length 1 has multiplicity {self.d}")
        return self

    @classmethod
    def _make(cls, iterable) -> "TreeFamily":
        # namedtuple's own _make, which _replace calls, would skip the checks above
        return cls(*iterable)

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


def _walk(family: TreeFamily, expand=lambda h: True) -> Iterator[tuple[tuple[int, ...], list]]:
    """``(vertex, children)`` in depth-first preorder; every vertex is generated, so none is re-checked.

    A vertex that ``expand`` rejects is yielded with no children, which
    prunes its subtree.  The walk raises :class:`BudgetError` past
    ``DEFAULT_NODE_BUDGET`` vertices, read when it starts.
    """
    budget = DEFAULT_NODE_BUDGET
    seen = 0
    stack = [root_of(family)]
    while stack:
        h = stack.pop()
        seen += 1
        if seen > budget:
            raise BudgetError(f"family visit exceeded the {budget}-node budget")
        kids = _children(h, family) if expand(h) else []
        yield h, kids
        stack.extend(reversed(kids))


def iter_family(family: TreeFamily) -> Iterator[tuple[int, ...]]:
    """Depth-first preorder over every vertex of the family, each exactly once."""
    for h, _ in _walk(family):
        yield h


def tree_edges(family: TreeFamily) -> Iterator[tuple[tuple, tuple]]:
    """All (parent, child) tree edges, in preorder of the parent."""
    for h, kids in _walk(family):
        for c in kids:
            yield h, c


def export_json(family: TreeFamily) -> dict:
    """Adjacency form ``{"root": ..., "edges": [[h, h'], ...]}`` of the tree."""
    edges = [[format_oseq(a), format_oseq(b)] for a, b in tree_edges(family)]
    return {"root": format_oseq(root_of(family)), "edges": edges}


def export_dot(family: TreeFamily) -> str:
    """DOT digraph of the spanning tree."""
    lines = ["digraph oseq_tree {"]
    lines.append(f'  root = "{format_oseq(root_of(family))}";')
    for a, b in tree_edges(family):
        lines.append(f'  "{format_oseq(a)}" -> "{format_oseq(b)}";')
    lines.append("}")
    return "\n".join(lines)


def precedes(h1, h2) -> bool:
    """Strict genus-increasing partial order between O-sequences of one multiplicity.

    By definition ``a`` precedes ``b`` when a chain of moves leads from one to
    the other, each taking one unit from a position i to a higher position j
    through an admissible intermediate.  With both padded by 0s to a common
    length n, that is: a != b and sum(a[m:]) <= sum(b[m:]) for m = 2 .. n-1.
    The two forms agree on every ordered pair of multiplicity at most
    ``PRECEDES_MAX_MULTIPLICITY``, checked exhaustively; past it the
    agreement is unproven, so such queries are refused.  The genus is the
    sum of those suffix sums, so the order refines it.
    """
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
    n = max(len(a), len(b))
    a += (0,) * (n - len(a))
    b += (0,) * (n - len(b))
    sa = sb = 0
    for m in range(n - 1, 1, -1):
        sa += a[m]
        sb += b[m]
        if sa > sb:
            return False
    return True


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


def export_tree(family: TreeFamily, fmt: str):
    if fmt == "dot":
        return export_dot(family)
    if fmt == "json":
        import json

        return json.dumps(export_json(family), sort_keys=True)
    raise ValueError(f"unknown export format {fmt!r}")
