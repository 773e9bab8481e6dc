"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
expected value here is exact (no tolerances), timings are wall-clock upper
bounds on commodity hardware.
"""
import gc
import json
import time
from math import comb

import pytest

import acmgenera as ag
from acmgenera import cli
from acmgenera.ranges import closed_max_oseq
from conftest import reference_sequences

M_TABLE = [
    0, 0, 1, 1, 3, 4, 4, 7, 11, 13, 18, 19, 19, 25, 32,
    40, 43, 52, 62, 73, 85, 89, 102, 116, 118, 133, 149, 166, 184, 203,
    208, 228, 229, 229, 250, 272, 295, 319, 344, 370, 376, 403, 431, 460, 490,
]


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_m_table(capsys):
    start = time.perf_counter()
    code = cli.main(["mseq", "45", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = code == 0 and json.loads(out) == M_TABLE and elapsed < 1.0
        _report(1, "m_d table 1..45", ok, f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_table1_counts(capsys):
    with capsys.disabled():
        start = time.perf_counter()
        cls25 = ag.acm_genera(25)
        t25 = time.perf_counter() - start
        start = time.perf_counter()
        cls50 = ag.acm_genera(50)
        t50 = time.perf_counter() - start
        ok = (
            cls25.stats == {"certain_genera": 176, "certain_gaps": 88, "searched": 13}
            and len(cls25.genera) == 187
            and cls50.stats == {"certain_genera": 835, "certain_gaps": 289, "searched": 53}
            and len(cls50.genera) == 870
            and t25 < 10.0
            and t50 < 10.0
        )
        _report(2, "table-1 counts d=25, d=50", ok, f"{t25 * 1e3:.0f} ms / {t50 * 1e3:.0f} ms")


def test_criterion_3_oracle_equivalence(capsys):
    with capsys.disabled():
        start = time.perf_counter()
        bad = [
            d
            for d in range(1, 31)
            if ag.acm_genera(d).genera != ag.brute_force_genera(d)
        ]
        elapsed = time.perf_counter() - start
        ok = not bad and elapsed < 120.0
        _report(3, "oracle equivalence d=1..30", ok, f"{elapsed:.2f} s, mismatches={bad}")


def test_criterion_4_named_gaps(capsys):
    with capsys.disabled():
        cls12 = ag.acm_genera(12)
        beyond_separated = [c.value for c in cls12.gaps if c.reason != "between-ranges"]
        cls15 = ag.acm_genera(15)
        witness15 = ag.genus_search(25, ag.TreeFamily.fixed_both(15, 6))
        cls28 = ag.acm_genera(28)
        gaps28 = cls28.gap_values()
        ok = (
            beyond_separated == [26]
            and 25 in cls15.genera
            and 25 not in cls15.gap_values()
            and witness15 is not None
            and len(witness15) == 6
            and ag.genus(witness15) == 25
            and {188, 207, 208, 209, 222, 223, 224, 239, 240, 258} <= set(gaps28)
            and min(gaps28) == 188
        )
        _report(4, "named gaps d=12/15/28", ok)


def test_criterion_5_range_extremes(capsys):
    with capsys.disabled():
        ok = (
            (ag.min_genus(4), ag.max_genus(7, 4)) == (3, 6)
            and (ag.min_genus(4), ag.max_genus(10, 4)) == (3, 11)
            # published top of R_12^8 is misprinted as 28; the closed form,
            # the recursion, and exhaustive generation all give 27
            and (ag.min_genus(8), ag.max_genus(12, 8)) == (21, 27)
            and max(ag.genus(h) for h in reference_sequences(12) if len(h) == 8) == 27
        )
        agree = all(
            ag.max_oseq(d, s) == closed_max_oseq(d, s)
            and ag.max_genus(d, s) == comb(s - 1, 2) + comb(d - s, 2)
            for d in range(4, 61)
            for s in range(d // 2 + 1, d + 1)
        )
        _report(5, "range extremes + closed form d<=60", ok and agree)


def test_criterion_6_regularity(capsys):
    with capsys.disabled():
        answer = ag.min_acm_regularity(15, 32)
        ok = (
            answer.min_regularity == 8
            and len(answer.witness) == 8
            and ag.genus(answer.witness) == 32
            and ag.multiplicity(answer.witness) == 15
        )
        mismatches = []
        for d in range(1, 21):
            best = {}
            for h in reference_sequences(d):
                g = ag.genus(h)
                best[g] = min(best.get(g, 99), len(h))
            for g, expected in best.items():
                if ag.min_acm_regularity(d, g).min_regularity != expected:
                    mismatches.append((d, g))
        _report(6, "min regularity (15,32)=8 + d<=20 sweep", ok and not mismatches, f"mismatches={mismatches}")


def test_criterion_7_genus_spot_checks(capsys):
    with capsys.disabled():
        ok = (
            ag.genus((1, 2, 3, 1)) == 5
            and ag.genus((1, 6, 4, 2, 1)) == 11
            and ag.genus((1, 4, 7, 1, 1)) == 12
            and ag.genus((1, 4, 6, 2, 1)) == 13
        )
        _report(7, "genus formula spot checks", ok)


def _step3_share(d):
    ag.clear_caches()
    timings = {}
    gc.disable()
    try:
        ag.acm_genera(d, timings=timings)
    finally:
        gc.enable()
    return timings["step3"] / sum(timings.values())


def test_criterion_8_performance(capsys):
    with capsys.disabled():
        start = time.perf_counter()
        cls100 = ag.acm_genera(100)
        t100 = time.perf_counter() - start
        with pytest.raises(ag.BudgetError):
            ag.brute_force_genera(75)
        share100 = max(_step3_share(100) for _ in range(3))
        share150 = max(_step3_share(150) for _ in range(3))
        ok = (
            t100 < 60.0
            and len(cls100.genera) == 3894
            and share100 >= 0.90
            and share150 >= 0.90
        )
        _report(
            8,
            "d=100 < 60 s, d=75 exhaustive refused, step-3 dominates",
            ok,
            f"t100={t100 * 1e3:.0f} ms, step3 share {share100 * 100:.1f}% / {share150 * 100:.1f}%",
        )


def test_criterion_9_structural_invariants(capsys):
    with capsys.disabled():
        families = [
            ag.TreeFamily.full(cap=11),
            ag.TreeFamily.fixed_length(4, cap=13),
            ag.TreeFamily.fixed_multiplicity(13),
            ag.TreeFamily.fixed_both(13, 5),
        ]
        parent_child_ok = True
        monotone_ok = True
        for family in families:
            strict = family.kind in ("multiplicity", "both")
            for h in ag.iter_family(family):
                for c in ag.children(h, family):
                    parent_child_ok &= ag.parent(c, family) == h
                    dg = ag.genus(c) - ag.genus(h)
                    monotone_ok &= dg > 0 if strict else dg >= 0
                p = ag.parent(h, family)
                if p is not None:
                    parent_child_ok &= h in ag.children(p, family)

        spanning_ok = all(
            set(ag.iter_family(ag.TreeFamily.fixed_multiplicity(d)))
            == set(reference_sequences(d))
            for d in range(1, 16)
        )

        # the count bound sits exactly on 2^(d-2) at d=3 and is strict after
        counts_ok = ag.count_osequences(3) == 2 and all(
            ag.count_osequences(d) < 2 ** (d - 2) for d in range(4, 21)
        )

        ag.clear_caches()
        cold = ag.acm_genera(30)
        warm = ag.acm_genera(30)
        determinism_ok = (
            cold.genera == warm.genera
            and cold.witnesses == warm.witnesses
            and cold.gaps == warm.gaps
            and cold.stats == warm.stats
        )
        ok = parent_child_ok and monotone_ok and spanning_ok and counts_ok and determinism_ok
        _report(
            9,
            "structural invariants",
            ok,
            f"parent/child={parent_child_ok} monotone={monotone_ok} spanning={spanning_ok} "
            f"counts={counts_ok} cold/warm-determinism={determinism_ok}",
        )
