import contextlib
import csv
import io
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acmgenera
from acmgenera import (
    TreeFamily,
    acm_genera,
    certain_genera,
    clear_caches,
    cli,
    expand,
    format_oseq,
    hilbert_data,
    m_sequence,
    min_acm_regularity,
)
from acmgenera._kernels import length_profile, search_fixed_both
from acmgenera.ranges import closed_max_oseq, genus_range
from conftest import reference_sequences


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_genera_json(capsys):
    code, out, _ = run_cli(["genera", "7", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 7
    assert payload["genera"] == [0, 1, 2, 3, 4, 5, 6, 7, 10, 15]
    assert payload["gaps"] == [8, 9, 11, 12, 13, 14]
    assert payload["witnesses"] == {"5": "1,2,3,1"}
    # stable ordering: re-serialization reproduces the emitted bytes
    assert json.dumps(payload, sort_keys=True) == out.strip()


def test_genera_csv(capsys):
    code, out, _ = run_cli(["genera", "7", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["value", "status", "provenance", "witness"]
    assert len(rows) == 17  # header + 16 values
    table = {int(r[0]): r[1:] for r in rows[1:]}
    assert table[5] == ["genus", "searched", "1,2,3,1"]
    assert table[0] == ["genus", "step1", ""]
    assert table[8] == ["gap", "step2", ""]
    assert sum(1 for r in table.values() if r[0] == "gap") == 6


def test_genera_text_and_oracle(capsys):
    code, out, _ = run_cli(["genera", "12", "--oracle"], capsys)
    assert code == 0
    assert "oracle: ok" in out
    assert "d=12" in out


def test_genera_oracle_budget(capsys):
    code, _, err = run_cli(["genera", "45", "--oracle"], capsys)
    assert code == 3
    assert "budget" in err


def test_genera_oracle_budget_refused_before_classifying(capsys, monkeypatch):
    def classify(d):
        raise AssertionError(f"classified d={d} before the oracle's budget check")

    monkeypatch.setattr(cli, "acm_genera", classify)
    code, _, err = run_cli(["genera", "41", "--oracle"], capsys)
    assert code == 3
    assert err == "budget exceeded: exhaustive generation for d=41 exceeds the budget (limit 40)\n"


def test_gaps(capsys):
    code, out, _ = run_cli(["gaps", "12", "--format", "json"], capsys)
    assert code == 0
    certs = json.loads(out)
    expected = {26} | set(range(32, 36)) | set(range(38, 45)) | set(range(46, 55))
    assert {c["value"] for c in certs} == expected
    by_value = {c["value"]: c for c in certs}
    assert by_value[26]["reason"] == "hole-always-gap"
    assert by_value[32]["reason"] == "between-ranges"
    code, out, _ = run_cli(["gaps", "7"], capsys)
    assert out.splitlines()[0] == "8 between-ranges s=5"


def test_search(capsys):
    code, out, _ = run_cli(["search", "15", "25", "--length", "6"], capsys)
    assert code == 0 and out.strip() == "1,3,3,4,2,2"
    code, out, _ = run_cli(["search", "15", "25", "--length", "5"], capsys)
    assert code == 0 and out.strip() == "none"
    code, out, _ = run_cli(["search", "7", "5"], capsys)
    assert code == 0 and out.strip() == "1,2,3,1"
    code, _, err = run_cli(["search", "4", "1", "--length", "9"], capsys)
    assert code == 2 and "no O-sequence" in err
    code, out, _ = run_cli(["search", "1", "0", "--length", "1"], capsys)
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(["search", "1", "1", "--length", "1"], capsys)
    assert code == 0 and out.strip() == "none"
    code, _, err = run_cli(["search", "5", "0", "--length", "1"], capsys)
    assert code == 2 and "no O-sequence of length 1 has multiplicity 5" in err


def test_ranges(capsys):
    code, out, _ = run_cli(["ranges", "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "s=4 min=3 max=6 minWitness=1,4,1,1 maxWitness=1,2,2,2 separated=false"
    assert lines[3].endswith("separated=true")
    code, out, _ = run_cli(["ranges", "10", "--format", "json"], capsys)
    rows = json.loads(out)
    assert {"s": 4, "min": 3, "max": 11, "minWitness": "1,7,1,1", "maxWitness": "1,2,3,4", "separated": False} in rows
    for bad in ("0", "-2"):  # refused like every other degree command, not an empty table
        code, out, err = run_cli(["ranges", bad], capsys)
        assert code == 2 and out == "" and "degree must be >= 1" in err


def test_mseq(capsys):
    code, out, _ = run_cli(["mseq", "15"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "d=15 m=32"
    code, out, _ = run_cli(["mseq", "45", "--format", "json"], capsys)
    values = json.loads(out)
    assert values[6] == 4 and values[24] == 118 and values[44] == 490


def test_min_reg(capsys):
    code, out, _ = run_cli(["min-reg", "15", "32"], capsys)
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert fields["m_acm"] == "8" and fields["rho"] == "6"
    code, _, err = run_cli(["min-reg", "12", "26"], capsys)
    assert code == 2 and err.startswith("gap")
    code, _, err = run_cli(["min-reg", "5", "99"], capsys)
    assert code == 2 and err.startswith("out-of-range")


def test_enumerate(capsys):
    code, out, _ = run_cli(["enumerate", "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12 and lines[0] == "1,6"
    code, out, _ = run_cli(["enumerate", "7", "--length", "4", "--export", "json"], capsys)
    adj = json.loads(out)
    assert adj["root"] == "1,4,1,1" and len(adj["edges"]) == 3
    code, out, _ = run_cli(["enumerate", "7", "--length", "3", "--export", "dot"], capsys)
    assert out.startswith("digraph") and '"1,4,2" -> "1,3,3";' in out


def test_hilbert(capsys):
    code, out, _ = run_cli(["hilbert", "1,1", "--tmax", "2"], capsys)
    assert code == 0
    assert "H_C: 1,3,5" in out
    assert "polynomial: 2t+1" in out
    code, out, _ = run_cli(["hilbert", "1,2^3,1", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["h"] == "1,2,2,2,1"
    assert payload["rho"] == 3
    code, _, err = run_cli(["hilbert", "1,2,4"], capsys)
    assert code == 2 and "not an admissible" in err
    code, _, err = run_cli(["hilbert", "3,1"], capsys)
    assert code == 2


def test_bench(capsys):
    code, out, _ = run_cli(["bench", "10", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    run = payload["runs"][0]
    assert set(run) >= {"backend", "step1_ms", "step2_ms", "step3_ms", "total_ms"}
    assert payload["full_visit"]["sequences"] == 40
    code, out, _ = run_cli(["bench", "10"], capsys)
    assert "step3 searches" in out and "full visit:" in out


def _stdout_of(args) -> str:
    # capsys is per test, not per hypothesis example, so capture each run here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(args) == 0, args
    return out.getvalue()


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.data())
def test_json_outputs_are_canonical_and_stable(data):
    # each JSON output re-parses to itself with sorted keys, and a second
    # run from cold caches prints the same bytes (bench's timings vary)
    d = data.draw(st.integers(1, 14), label="d")
    g = data.draw(st.sampled_from(acm_genera(d).genera.to_list()), label="g")
    h = data.draw(st.sampled_from(reference_sequences(d)), label="h")
    commands = [[cmd, str(d), "--format", "json"] for cmd in ("genera", "gaps", "ranges", "mseq", "bench")]
    commands += [
        ["min-reg", str(d), str(g), "--format", "json"],
        ["hilbert", format_oseq(h), "--format", "json"],
        ["enumerate", str(d), "--export", "json"],
    ]
    for args in commands:
        out = _stdout_of(args)
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", args
        if args[0] != "bench":
            clear_caches()
            assert _stdout_of(args) == out, args


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["genera"])
    assert exc.value.code == 1
    capsys.readouterr()
    for args in (
        ["genera", "7", "--format", "yaml"],
        ["genera", "7", "--parallel", "2"],
        ["bench", "10", "--parallel", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 1, args
        capsys.readouterr()


def test_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "acmgenera.cli", "mseq", "7", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == [0, 0, 1, 1, 3, 4, 4]


def test_degree_budget_exits_3_within_seconds():
    for args in (
        ["search", "100000", "0"],
        ["genera", "100000"],
        ["ranges", "100000"],
        ["mseq", "100000"],
        ["hilbert", "1,1^1000000000"],
        ["hilbert", "1,2,1", "--tmax", "1000000000"],
        # the tree families and the out-of-range test once ran ahead of the degree budget
        ["enumerate", "1001"],
        ["enumerate", "1001", "--length", "3"],
        ["min-reg", "1001", "1000000"],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "acmgenera.cli", *args], capture_output=True, text=True, timeout=10
        )
        assert result.returncode == 3, (args, result.stderr)
        assert "budget exceeded" in result.stderr, args
        assert result.stdout == "", args


def test_huge_entries_and_genera_above_the_range_answer_within_seconds():
    # the expansion of 10^12 and the searches above max_genus(200, 120), at
    # it and at its hole value 10180 each ran for hours when they stepped
    # one k at a time or walked the tree
    for args, out in (
        (["hilbert", "1,1000000000000,5", "--format", "json"], '"h": "1,1000000000000,5"'),
        (["search", "200", "15000", "--length", "120"], "none"),
        (["search", "200", "10181", "--length", "120"], format_oseq(closed_max_oseq(200, 120))),
        (["search", "200", "10180", "--length", "120"], "none"),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "acmgenera.cli", *args], capture_output=True, text=True, timeout=20
        )
        assert result.returncode == 0, (args, result.stderr)
        assert out in result.stdout, args


def test_search_at_a_long_shortest_length_answers_within_seconds():
    # one fixed-(d, s) walk per length that attains the genus answers in
    # well under a second; one pruned walk of the whole fixed-multiplicity
    # tree takes over a minute at this genus
    d, g = 80, 2500
    result = subprocess.run(
        [sys.executable, "-m", "acmgenera.cli", "search", str(d), str(g)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1,2,3,4,2,2" + ",1" * 66
    # the definition: the largest (h_2, h_3, ...) of the per-length witnesses,
    # missing entries read as 0
    profile = length_profile(d)
    per_length = [search_fixed_both(d, s, [g])[g] for s in range(d + 1) if profile[s] >> g & 1]
    best = max(per_length, key=lambda w: w[2:] + (0,) * (d - len(w)))
    assert result.stdout.strip() == ",".join(map(str, best))


def test_cache_environment_variable_cannot_change_an_answer(tmp_path):
    # a hand-written record in the format the removed disk cache read, with
    # the gap 96 of degree 20 marked as a certain genus
    ms = m_sequence(20)
    bits = {d: certain_genera(d).bits for d in range(1, 21)}
    bits[20] |= 1 << 96
    path = tmp_path / "genera.cache"
    path.write_text("".join(f"d {d} m {ms[d - 1]} genera {bits[d]:x}\n" for d in range(1, 21)))
    cmd = [sys.executable, "-m", "acmgenera.cli", "genera", "20", "--format", "json"]
    plain = subprocess.run(cmd, capture_output=True, text=True)
    cached = subprocess.run(cmd, capture_output=True, text=True, env=dict(os.environ, ACM_CACHE=str(path)))
    assert plain.returncode == cached.returncode == 0
    assert 96 in json.loads(plain.stdout)["gaps"]
    assert cached.stdout == plain.stdout


def test_import_loads_neither_numpy_nor_numba():
    code = (
        "import sys, acmgenera, acmgenera.cli; "
        "acmgenera.brute_force_length_profile(12); acmgenera.brute_force_genera(12); "
        "acmgenera.count_osequences(12); "
        "print(sorted({'numpy', 'numba', 'concurrent.futures'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_module_that_start_up_does_not_need():
    # dataclasses (with inspect, ast and dis) cost about a third of a process's
    # import time; csv and json are imported by the commands that write them
    src = os.path.dirname(os.path.dirname(acmgenera.__file__))
    code = "import sys, acmgenera.cli; print(sorted({'dataclasses', 'inspect', 'csv', 'json'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


_D7_REPR = (
    "DegreeClassification(d=7, genera=GenusSet(d=7, n=10), gaps=["
    + ", ".join(
        f"GapCertificate(value={v}, reason='between-ranges', s={s}, i=None)"
        for v, s in ((8, 5), (9, 5), (11, 6), (12, 6), (13, 6), (14, 6))
    )
    + "], witnesses={5: (1, 2, 3, 1)}, certain=GenusSet(d=7, n=9), "
    "stats={'certain_genera': 9, 'certain_gaps': 6, 'searched': 1})"
)


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: expand(10, 3), "BinomialExpansion(top=10, base=3, terms=((5, 3),))"),
        (
            lambda: hilbert_data((1, 2, 1), 3),
            "HilbertData(h_vector=(1, 2, 1), zero_dim=(1, 3, 4, 4), curve=(1, 4, 8, 12), polynomial=(4, 0))",
        ),
        (
            lambda: genus_range(7, 3),
            "GenusRange(d=7, s=3, min_genus=1, max_genus=3, min_witness=(1, 5, 1), "
            "max_witness=(1, 3, 3), separated=False)",
        ),
        (
            lambda: min_acm_regularity(15, 32),
            "RegularityAnswer(d=15, g=32, min_regularity=8, witness=(1, 2, 3, 4, 2, 1, 1, 1), "
            "postulation_regularity=6)",
        ),
        # d = 7 has a witness; two classifications compare by value, which an
        # identity-equal class would break
        (lambda: acm_genera(7), _D7_REPR),
        (lambda: TreeFamily.fixed_both(5, 3), "TreeFamily(kind='both', s=3, d=5, cap=None)"),
        (lambda: TreeFamily.full(4), "TreeFamily(kind='full', s=None, d=None, cap=4)"),
    ],
    ids=[
        "BinomialExpansion",
        "HilbertData",
        "GenusRange",
        "RegularityAnswer",
        "DegreeClassification",
        "TreeFamily-both",
        "TreeFamily-full",
    ],
)
def test_result_types_keep_their_repr_equality_and_immutability(make, text):
    value = make()
    # the text is embedded in error messages, such as MembershipError's family
    assert repr(value) == text
    assert make() == value
    first_field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, first_field, None)
    with pytest.raises(AttributeError):
        value.note = None
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is type(value) and restored == value
