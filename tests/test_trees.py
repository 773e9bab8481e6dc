import hashlib
import json

import pytest

from acmgenera import (
    BudgetError,
    EmptyFamilyError,
    MembershipError,
    TreeFamily,
    children,
    export_dot,
    export_json,
    genus,
    iter_family,
    multiplicity,
    parent,
    precedes,
    root_of,
    total_compare,
)
from acmgenera import trees
from conftest import reference_precedes, reference_sequences

FULL10 = TreeFamily.full(cap=10)


def test_roots():
    assert root_of(TreeFamily.full(cap=5)) == (1,)
    assert root_of(TreeFamily.fixed_length(5, cap=12)) == (1, 1, 1, 1, 1)
    assert root_of(TreeFamily.fixed_multiplicity(7)) == (1, 6)
    assert root_of(TreeFamily.fixed_multiplicity(1)) == (1,)
    assert root_of(TreeFamily.fixed_both(7, 4)) == (1, 4, 1, 1)
    assert root_of(TreeFamily.fixed_both(6, 6)) == (1, 1, 1, 1, 1, 1)


def test_empty_family_rejected():
    with pytest.raises(EmptyFamilyError):
        TreeFamily.fixed_both(4, 9)


def test_uncapped_infinite_families_refused():
    with pytest.raises(ValueError):
        TreeFamily("full")
    with pytest.raises(ValueError):
        TreeFamily("length", s=4)
    with pytest.raises(ValueError):
        TreeFamily.full(cap=0)


def test_fields_a_kind_does_not_take_refused():
    # the step rule reads s, d and cap directly, so a stray field would change the tree
    with pytest.raises(ValueError, match="full family takes no s"):
        TreeFamily("full", s=3, cap=5)
    with pytest.raises(ValueError, match="both family takes no cap"):
        TreeFamily("both", d=7, s=4, cap=5)
    with pytest.raises(ValueError, match="both family takes no cap"):
        TreeFamily.fixed_both(7, 4)._replace(cap=5)
    with pytest.raises(ValueError, match="unknown family kind"):
        TreeFamily("fixed", d=5)


def test_children_examples():
    assert children((1, 2, 1), FULL10) == [(1, 2, 2), (1, 2, 1, 1)]
    assert children((1,), FULL10) == [(1, 1)]
    assert children((1, 5, 1), TreeFamily.fixed_multiplicity(7)) == [(1, 4, 2), (1, 4, 1, 1)]
    assert children((1, 3, 2, 1), TreeFamily.fixed_both(7, 4)) == [(1, 2, 3, 1), (1, 2, 2, 2)]
    # root with d = s has no descendants, and (1^s) grows only at position 1
    assert children((1, 1, 1, 1), TreeFamily.fixed_both(4, 4)) == []
    assert children((1, 1, 1, 1), TreeFamily.fixed_length(4, cap=20)) == [(1, 2, 1, 1)]


def test_full_tree_second_entry_unbounded():
    # at length 2 the bump edge always exists alongside the append edge
    assert children((1, 4), TreeFamily.full(cap=20)) == [(1, 5), (1, 4, 1)]


def test_parent_examples():
    assert parent((1, 2, 3, 1), TreeFamily.fixed_both(7, 4)) == (1, 3, 2, 1)
    assert parent((1, 6), TreeFamily.fixed_multiplicity(7)) is None
    assert parent((1, 2, 1, 1), FULL10) == (1, 2, 1)
    assert parent((1,), FULL10) is None
    assert parent((1, 2, 2), TreeFamily.fixed_length(3, cap=9)) == (1, 2, 1)


def test_membership_enforced():
    with pytest.raises(MembershipError):
        children((1, 2, 4), FULL10)  # not admissible
    with pytest.raises(MembershipError):
        children((1, 5), TreeFamily.fixed_multiplicity(7))  # wrong multiplicity
    with pytest.raises(MembershipError):
        parent((1, 2, 1), TreeFamily.fixed_both(7, 4))  # wrong length


def test_enumerate_fixed_both_7_3():
    got = list(iter_family(TreeFamily.fixed_both(7, 3)))
    assert set(got) == {(1, 5, 1), (1, 4, 2), (1, 3, 3)}
    assert len(got) == 3


def test_enumerate_matches_reference_generator():
    for d in range(1, 16):
        seen = list(iter_family(TreeFamily.fixed_multiplicity(d)))
        assert len(seen) == len(set(seen))  # each vertex exactly once
        assert set(seen) == set(reference_sequences(d)), d


def test_enumerate_fixed_both_matches_reference():
    for d in range(2, 14):
        for s in range(2, d + 1):
            seen = set(iter_family(TreeFamily.fixed_both(d, s)))
            expected = {h for h in reference_sequences(d) if len(h) == s}
            assert seen == expected, (d, s)


def test_enumerate_capped_families_match_reference():
    cap = 9
    full = set(iter_family(TreeFamily.full(cap=cap)))
    expected = {h for d in range(1, cap + 1) for h in reference_sequences(d)}
    assert full == expected
    for s in range(1, 6):
        got = set(iter_family(TreeFamily.fixed_length(s, cap=cap)))
        assert got == {h for h in expected if len(h) == s}, s


def test_vertex_count_bound():
    # fewer than 2^(d-2) sequences of multiplicity d; the doubling recursion
    # starts from the single multiplicity-2 vertex, so d = 3 sits exactly on
    # the bound and the strict inequality starts at d = 4
    assert len(reference_sequences(3)) == 2
    for d in range(4, 16):
        assert len(reference_sequences(d)) < 2 ** (d - 2), d


def test_node_budget(monkeypatch):
    # the walk reads the budget when it starts
    monkeypatch.setattr(trees, "DEFAULT_NODE_BUDGET", 3)
    with pytest.raises(BudgetError, match="3-node budget"):
        list(iter_family(TreeFamily.fixed_multiplicity(9)))


def _families_for(d):
    fams = [TreeFamily.full(cap=d), TreeFamily.fixed_multiplicity(d)]
    fams += [TreeFamily.fixed_length(s, cap=d) for s in range(1, min(d, 6) + 1)]
    fams += [TreeFamily.fixed_both(d, s) for s in range(2, d + 1)]
    return fams


@pytest.mark.parametrize("d", [5, 9, 12])
def test_parent_child_inverse(d):
    for family in _families_for(d):
        for h in iter_family(family):
            for c in children(h, family):
                assert parent(c, family) == h, (family.kind, h, c)
            p = parent(h, family)
            if p is None:
                assert h == root_of(family)
            else:
                assert h in children(p, family), (family.kind, h)


@pytest.mark.parametrize("d", [6, 10, 13])
def test_genus_monotone_along_edges(d):
    strict_kinds = {"multiplicity", "both"}
    for family in _families_for(d):
        for h in iter_family(family):
            gh = genus(h)
            for c in children(h, family):
                gc = genus(c)
                assert gc >= gh, (family.kind, h, c)
                if family.kind in strict_kinds:
                    assert gc > gh, (family.kind, h, c)


def test_depth_equals_multiplicity_offset():
    # distance from the root: e(h) - 1 in the full tree, e(h) - s at fixed length
    def depth(h, family):
        n = 0
        while (h := parent(h, family)) is not None:
            n += 1
        return n

    fam = TreeFamily.full(cap=9)
    for h in iter_family(fam):
        assert depth(h, fam) == multiplicity(h) - 1, h
    fam = TreeFamily.fixed_length(4, cap=11)
    for h in iter_family(fam):
        assert depth(h, fam) == multiplicity(h) - 4, h


def test_precedes_examples():
    # one unit moving from position 2 up to position 3 raises the genus
    assert precedes((1, 2, 3, 1), (1, 2, 2, 2))
    assert not precedes((1, 2, 2, 2), (1, 2, 3, 1))
    assert not precedes((1, 3, 3), (1, 3, 3))  # strict order
    assert precedes((1, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        precedes((1, 2), (1, 2, 1))  # unequal multiplicities
    with pytest.raises(ValueError):
        precedes((1, 24), (1, 23, 1))  # beyond the supported multiplicity


def test_precedes_refines_genus():
    for d in range(3, 11):
        seqs = reference_sequences(d)
        for h1 in seqs:
            for h2 in seqs:
                if precedes(h1, h2):
                    assert genus(h1) < genus(h2), (h1, h2)


def _assert_precedes_matches_the_chain_order(degrees):
    for d in degrees:
        seqs = reference_sequences(d)
        for h1 in seqs:
            for h2 in seqs:
                assert precedes(h1, h2) == reference_precedes(h1, h2), (h1, h2)


def test_precedes_is_the_chain_order():
    # every ordered pair of equal multiplicity d <= 13 (26,330 pairs)
    _assert_precedes_matches_the_chain_order(range(1, 14))


@pytest.mark.slow
def test_precedes_is_the_chain_order_audit():
    _assert_precedes_matches_the_chain_order(range(14, 17))


def test_precedes_refusals():
    cases = [
        (((1, 2, 4), (1, 3, 3)), "precedes requires admissible O-sequences"),
        (((1, 3, 3), (1, 2, 4)), "precedes requires admissible O-sequences"),
        (((1, 2), (1, 2, 1)), "precedes is only defined for equal multiplicities"),
        (((1, 20), (1, 19, 1)), "precedes queries are limited to multiplicity <= 20"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as exc:
            precedes(*args)
        assert str(exc.value) == message, args
    assert trees.PRECEDES_MAX_MULTIPLICITY == 20
    assert precedes((1, 19), (1, 18, 1))  # the limit itself is answered


def test_total_compare():
    assert total_compare((1, 4, 7, 1, 1), (1, 6, 4, 2, 1)) == -1
    assert total_compare((1, 6, 4, 2, 1), (1, 4, 7, 1, 1)) == 1
    assert total_compare((1, 3, 3), (1, 3, 3)) == 0
    assert total_compare((1, 5, 1), (1, 3, 3)) == -1
    with pytest.raises(ValueError):
        total_compare((1, 2, 2), (1, 4, 1, 1))


def test_subtree_partition_is_schedule_independent():
    # workers owning the subtrees under the root's children cover the family
    def subtree(h, family):
        stack, out = [h], []
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(reversed(children(x, family)))
        return out

    for family in (TreeFamily.fixed_multiplicity(11), TreeFamily.full(cap=8)):
        root = root_of(family)
        parts = [subtree(c, family) for c in children(root, family)]
        union = {root}
        total = 1
        for part in parts:
            union.update(part)
            total += len(part)
        assert union == set(iter_family(family))
        assert total == len(union)  # disjoint subtrees, no double visits


def _pinned_families(top=10):
    for n in range(1, top + 1):
        yield TreeFamily.full(cap=n)
        yield TreeFamily.fixed_multiplicity(n)
        yield from (TreeFamily.fixed_length(s, cap=n) for s in range(1, n + 1))
        yield from (TreeFamily.fixed_both(n, s) for s in ([1] if n == 1 else range(2, n + 1)))


def test_preorder_pinned():
    # the other enumeration tests compare sets; this pins the visiting order and
    # the exported edge order of all 121 families with d or cap <= 10
    digest = hashlib.sha256()
    for family in _pinned_families():
        digest.update(repr(family).encode())
        digest.update(repr(list(iter_family(family))).encode())
        digest.update(json.dumps(export_json(family)).encode())
    assert digest.hexdigest() == "98eb35f653980eef45a3e3c369c0804d8716802f71eb05e27afa83cc276b1245"


def test_tree_relations_pinned():
    # the walks step through children without re-checking membership; the
    # public children and parent still check it, and all four agree with
    # what they gave when every step re-checked, for the 169 families with
    # d or cap <= 12
    digest = hashlib.sha256()
    for family in _pinned_families(12):
        order = list(iter_family(family))
        digest.update(repr(family).encode())
        digest.update(repr(order).encode())
        digest.update(repr([children(h, family) for h in order]).encode())
        digest.update(repr([parent(h, family) for h in order]).encode())
        digest.update(json.dumps(export_json(family)).encode())
    assert digest.hexdigest() == "f340d9770d214724fd9db3c9d0519b34e9819f1ad0f714aa777c10041101435d"


def test_exports():
    fam = TreeFamily.fixed_both(7, 4)
    adj = export_json(fam)
    assert adj["root"] == "1,4,1,1"
    assert adj["edges"] == [
        ["1,4,1,1", "1,3,2,1"],
        ["1,3,2,1", "1,2,3,1"],
        ["1,3,2,1", "1,2,2,2"],
    ]
    dot = export_dot(fam)
    assert 'root = "1,4,1,1";' in dot
    assert '"1,3,2,1" -> "1,2,2,2";' in dot
    assert dot.startswith("digraph") and dot.endswith("}")
    json.dumps(adj)  # serializable as-is

    # capped families export too
    adj = export_json(TreeFamily.full(cap=4))
    assert adj["root"] == "1" and ["1,2", "1,3"] in adj["edges"]
    adj = export_json(TreeFamily.fixed_length(3, cap=6))
    assert adj["root"] == "1,1,1"
    assert len({e[1] for e in adj["edges"]}) == len(adj["edges"])  # one parent each
