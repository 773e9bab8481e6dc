"""Tests of the benchmark's own parts: the checker, the digests, the metric lists.

    python3 -m pytest perfbench
"""
import copy
import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import acmgenera as ag  # noqa: E402

import checker  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402


def test_profile_matches_exhaustive_generation():
    for d in range(1, 26):
        attained = ag.brute_force_length_profile(d)
        for s in range(attained.shape[1]):
            mask = sum(1 << g for g in range(attained.shape[0]) if attained[g, s])
            assert checker.length_profile(d).get(s, 0) == mask, (d, s)


def test_acceptance_counts():
    assert checker.self_check() == []


def test_bound_and_admissibility_match_the_package():
    for a in range(0, 40):
        for t in range(1, 8):
            assert checker.bound(a, t) == ag.macaulay_bound(a, t)
    assert checker.admissible((1, 2, 3, 1)) and not checker.admissible((1, 2, 4))
    assert not checker.admissible((1, 3, 0)) and not checker.admissible((2, 1))


def test_min_length_matches_min_acm_regularity():
    for d in (12, 20):
        for g in range(0, checker.universe(d), 5):
            try:
                answer = ag.min_acm_regularity(d, g)
            except ag.UnattainableGenusError:
                answer = None
            assert checker.regularity_problems(d, g, answer) == []


@pytest.fixture(scope="module")
def cls30():
    return ag.acm_genera(30)


def test_checker_flags_a_flipped_genus_bit(cls30):
    assert checker.classification_problems(cls30) == []
    bad = copy.deepcopy(cls30)
    g = bad.gaps[0].value
    bad.genera.bits |= 1 << g
    assert any("genus set" in p for p in checker.classification_problems(bad))
    bad = copy.deepcopy(cls30)
    bad.genera.bits &= ~(1 << next(iter(bad.witnesses)))
    assert checker.classification_problems(bad)


def test_checker_flags_an_altered_witness(cls30):
    bad = copy.deepcopy(cls30)
    g, h = next(iter(bad.witnesses.items()))
    bad.witnesses[g] = h[:-1] + (h[-1] + 1,)  # multiplicity and genus now wrong
    assert checker.classification_problems(bad)
    bad.witnesses[g] = (1, 1, 5) + h[3:]
    assert any("not an O-sequence" in p for p in checker.classification_problems(bad))


def test_digest_flags_another_valid_witness():
    """A different witness of the same genus passes the DP checks; the digest catches it."""
    golden = w.load_golden()
    cls = ag.acm_genera(16)
    op = w.Op("classify", (16,), checker.universe(16))
    assert w.check(op, cls, golden) == []
    g, h = next(iter(cls.witnesses.items()))
    family = ag.iter_family(ag.TreeFamily.fixed_multiplicity(16))
    cls.witnesses[g] = next(x for x in family if ag.genus(x) == g and x != h)
    problems = w.check(op, cls, golden)
    assert problems and all("digest" in p for p in problems)


def test_digest_flags_another_valid_query_witness():
    """A min-reg answer with a different valid witness passes the DP check; the digest catches it."""
    golden = w.load_golden()
    for op in (op for op in w.plan("regularity-queries") if op.kind == "min-reg" and op.args[0] == 20):
        answer = w.run_inprocess(ag, op)
        assert w.check(op, answer, golden) == []
        if answer is None:
            continue
        family = ag.iter_family(ag.TreeFamily.fixed_both(op.args[0], answer.min_regularity))
        other = next((x for x in family if ag.genus(x) == op.args[1] and x != answer.witness), None)
        if other is not None:
            break
    else:
        pytest.fail("no min-reg query at d=20 has a second witness")
    changed = type(answer)(answer.d, answer.g, answer.min_regularity, other, answer.postulation_regularity)
    assert checker.regularity_problems(*op.args, changed) == []
    problems = w.check(op, changed, golden)
    assert problems and all("digest" in p for p in problems)
    assert w.digest_problems(op, w.digest(op, changed), golden) == problems


def test_repeated_runs_keep_only_digests():
    runner = run.Runner("regularity-queries", 1, HERE.parent, ag)
    runner.ops = runner.ops[::20]
    for p in range(2):
        runner.run_pass(p)
    assert len(runner.records) == 2 * len(runner.ops) and set(runner.first) == set(range(len(runner.ops)))
    golden = w.load_golden()
    for r in runner.records:
        assert w.digest_problems(r.op, r.digest, golden) == []
        assert r.answer == run.answer(r.op, runner.first[r.index])


def test_timings_take_each_operations_median_run_at_the_reference_speed():
    runner = run.Runner("classify-large", 1, HERE.parent, ag)
    op = runner.ops[0]
    runner.records = [run.Record(p, traced, i, op, "", None, latency, 10.0) for p, traced, i, latency in
                      ((0, False, 0, 0.3), (1, False, 0, 0.2), (2, False, 0, 0.6), (1, True, 0, 0.1),
                       (0, False, 1, 0.5))]
    assert sorted(runner.typical(False)) == [0.3, 0.5]  # no samples: as measured
    assert runner.typical(True) == [0.1]
    # the host ran the reference loop at half the nominal speed around these runs
    runner.speed.times = [9.8, 10.0, 10.2]
    runner.speed.seconds = [2 * hostspeed.NOMINAL_S] * 3
    assert sorted(runner.typical(False)) == pytest.approx([0.15, 0.25])
    assert sorted(runner.typical(False, scaled=False)) == [0.3, 0.5]


def test_host_speed_samples_on_a_timer():
    with hostspeed.HostSpeed() as speed:
        t = perf_counter()
        while perf_counter() - t < 0.3:
            pass
    assert len(speed.seconds) >= 5 and speed.spent == pytest.approx(sum(speed.seconds))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert speed.scale(t, t + 0.01) > 0


def test_checker_flags_wrong_queries():
    answer = ag.min_acm_regularity(15, 32)
    assert checker.regularity_problems(15, 32, answer) == []
    longer = type(answer)(15, 32, answer.min_regularity + 1, answer.witness, answer.postulation_regularity + 1)
    assert checker.regularity_problems(15, 32, longer)
    gap = next(g for g in range(checker.universe(15)) if not checker.genera_mask(15) >> g & 1)
    assert checker.regularity_problems(15, gap, None) == []
    assert checker.regularity_problems(15, 32, None)
    assert checker.search_problems(15, gap, None) == []
    assert checker.search_problems(15, 32, None)
    assert checker.search_problems(15, 32, answer.witness) == []
    assert checker.search_problems(15, 31, answer.witness)


def test_checker_flags_corrupted_cli_output():
    cls = ag.acm_genera(20)
    doc = {"d": 20, "genera": cls.genera.to_list(), "gaps": cls.gap_values(), "oracle": "ok",
           "witnesses": {str(g): ",".join(map(str, h)) for g, h in cls.witnesses.items()}}
    argv = ["genera", "20", "--oracle", "--format", "json"]
    assert checker.cli_problems(argv, 0, json.dumps(doc)) == []
    assert checker.cli_problems(argv, 2, json.dumps(doc))
    flipped = dict(doc, genera=doc["genera"] + [doc["gaps"][0]], gaps=doc["gaps"][1:])
    assert checker.cli_problems(argv, 0, json.dumps(flipped))
    assert checker.cli_problems(["min-reg", "15", "32"], 0, "m_acm=8 rho=6 witness=1,2,3,4,2,1,1,1\n") == []
    assert checker.cli_problems(["min-reg", "15", "32"], 0, "m_acm=9 rho=7 witness=1,2,3,4,2,1,1,1\n")
    assert checker.cli_problems(["min-reg", "15", "32"], 0, "garbage")


def test_golden_covers_every_fixed_input():
    golden = w.load_golden()
    assert set(golden["classify"]) == {str(d) for d in set(w.LARGE_DEGREES) | set(w.SWEEP_DEGREES)}
    assert set(golden["cli"]) == {" ".join(c) for c in w.CLI_COMMANDS}
    assert set(golden["queries"]) == {f"{op.kind} {op.args[0]} {op.args[1]}"
                                      for op in w.plan("regularity-queries")}
    for d in (3, 17, 40):
        ag.clear_caches()
        assert w.classification_digest(ag.acm_genera(d)) == golden["classify"][str(d)]


def test_plans_are_fixed_and_orders_seeded():
    for name in run.WORKLOADS:
        ops = w.plan(name)
        first = w.order(name, 1, len(ops))
        assert sorted(first) == list(range(len(ops)))
        assert first == w.order(name, 1, len(ops))
    ops = w.plan("regularity-queries")
    assert len(ops) == 200 and sum(op.kind == "min-reg" for op in ops) == 160
    assert {op.args[0] for op in ops if op.kind == "min-reg"} == set(range(20, 46))
    assert {op.args[0] for op in ops if op.kind == "search"} == set(range(16, 33))
    assert all(0 <= op.args[1] < checker.universe(op.args[0]) for op in ops)
    assert w.order("regularity-queries", 1, 200) != w.order("regularity-queries", 2, 200)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [x["name"] for x in spec["workloads"]] == list(run.WORKLOADS)
