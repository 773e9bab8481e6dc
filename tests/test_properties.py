"""Property tests on generated inputs.

Every test draws its examples from a fixed seed (``derandomize=True``), so a
run is deterministic, and has no per-example deadline, so a slow host does
not fail it.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from acmgenera import (
    TreeFamily,
    children,
    format_oseq,
    genus,
    is_admissible,
    macaulay_bound,
    parent,
    parse_oseq,
    root_of,
)
from conftest import pascal_bound

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def admissible_oseqs(draw):
    """An O-sequence of length <= 12, each entry drawn within the growth bound."""
    h = [1]
    for t in range(1, draw(st.integers(1, 12))):
        top = 30 if t == 1 else min(30, macaulay_bound(h[-1], t - 1))
        h.append(draw(st.integers(1, top)))
    return tuple(h)


@st.composite
def tree_vertices(draw):
    """(family, vertex): a random walk down one of the four trees, d or cap <= 30."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["full", "length", "multiplicity", "both"]))
    if kind == "full":
        family = TreeFamily.full(cap=n)
    elif kind == "length":
        family = TreeFamily.fixed_length(draw(st.integers(1, n)), cap=n)
    elif kind == "multiplicity":
        family = TreeFamily.fixed_multiplicity(n)
    else:
        family = TreeFamily.fixed_both(n, draw(st.integers(min(2, n), n)))
    h = root_of(family)
    for _ in range(draw(st.integers(0, 60))):
        kids = children(h, family)
        if not kids:
            break
        h = kids[draw(st.integers(0, len(kids) - 1))]
    return family, h


@PROPERTY
@given(st.integers(0, 500), st.integers(1, 12))
def test_macaulay_bound_matches_pascal_bound(a, t):
    assert macaulay_bound(a, t) == pascal_bound(a, t)


@PROPERTY
@given(admissible_oseqs())
def test_format_and_parse_round_trip(h):
    assert is_admissible(h)
    text = format_oseq(h)
    assert "^" not in text
    assert parse_oseq(text) == h
    runs = []  # the same sequence in the exponent shorthand, one token per run
    for x in h:
        if runs and runs[-1][0] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    assert parse_oseq(",".join(f"{x}^{k}" for x, k in runs)) == h


@PROPERTY
@given(tree_vertices())
def test_parent_inverts_children(vertex):
    family, h = vertex
    for c in children(h, family):
        assert parent(c, family) == h
        # moving a unit up from position 1 raises the genus; a capped tree's
        # raise at position 1 leaves it flat
        if family.d is not None:
            assert genus(c) > genus(h)
        else:
            assert genus(c) >= genus(h)
    p = parent(h, family)
    if p is None:
        assert h == root_of(family)
    else:
        assert h in children(p, family)
