"""The four workloads: their inputs, one operation each, and its checks.

An operation is one ``acm_genera`` call, one regularity or genus query, or
one CLI process.  A pass runs a workload's whole list of operations once;
a run repeats the pass for its measured seconds.  The operations are fixed
sets (the golden digests need fixed degrees); the seed sets the order of
the passes, so the same seed gives the same inputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import subprocess
import sys
from collections import namedtuple
from math import comb
from pathlib import Path
from time import perf_counter

import checker

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

LARGE_DEGREES = (50, 100, 150)
SWEEP_DEGREES = tuple(range(3, 71))
CLI_COMMANDS = tuple(
    [("genera", str(d), "--oracle", "--format", "json") for d in range(20, 31)]
    + [("gaps", "60", "--format", "json"), ("genera", "60", "--format", "csv"), ("min-reg", "15", "32")]
)
CHILD_TIMEOUT_S = 120.0


class Op:
    """One operation: ``kind`` and its arguments, plus the integers it classifies."""

    __slots__ = ("kind", "args", "values")

    def __init__(self, kind: str, args: tuple, values: int):
        self.kind, self.args, self.values = kind, args, values

    def __repr__(self):
        return f"{self.kind}{self.args}"


def _grid(degrees: range, n: int) -> list[tuple[int, int]]:
    """``n`` (d, g) queries spread evenly over the degrees and, within each
    degree, at the midpoints of equal slices of [0, C(d-1,2)].

    The set is fixed and the seed orders it.  Query cost is heavy-tailed in
    (d, g) and rises steeply around its median (about 2.5x from the 40th to
    the 60th percentile), so a fresh random sample of 200 moved p50 by 40%
    and the pass time by 20% from seed to seed, more than any bound.
    """
    ds = list(degrees)
    k, extra = divmod(n, len(ds))
    more = {ds[int((i + 0.5) * len(ds) / extra)] for i in range(extra)}
    pairs = []
    for d in ds:
        m, top = k + (d in more), comb(d - 1, 2) + 1
        pairs += [(d, (2 * j + 1) * top // (2 * m)) for j in range(m)]
    return pairs


def plan(workload: str) -> list[Op]:
    """The operations of one pass, in canonical order."""
    if workload == "classify-large":
        return [Op("classify", (d,), checker.universe(d)) for d in LARGE_DEGREES]
    if workload == "classify-sweep":
        return [Op("classify", (d,), checker.universe(d)) for d in SWEEP_DEGREES]
    if workload == "regularity-queries":
        return [Op("min-reg", dg, 1) for dg in _grid(range(20, 46), 160)] + [
            Op("search", dg, 1) for dg in _grid(range(16, 33), 40)
        ]
    if workload == "cli-oracle":
        return [Op("cli", cmd, 1 if cmd[0] == "min-reg" else checker.universe(int(cmd[1]))) for cmd in CLI_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}")


def order(workload: str, seed: int, n: int) -> list[int]:
    """Indices into the plan in the order every pass of a run takes them.

    The sweep runs in ascending degree, so that caches warm across degrees
    as when someone tabulates a range.  Elsewhere the seed sets the order.
    It is the same in every pass of a run: an operation that is first to
    need a degree's bound table or range rows pays for building them, so an
    operation's cost depends on the order, and the benchmark compares an
    operation's runs across passes (see run.end_to_end).
    """
    if workload == "classify-sweep":
        return list(range(n))
    return random.Random(f"{workload}:{seed}").sample(range(n), n)


# ---------------------------------------------------------------------------
# running operations


def run_inprocess(ag, op: Op):
    """Execute one library operation and return its result (None for a gap)."""
    if op.kind == "classify":
        return ag.acm_genera(op.args[0])
    d, g = op.args
    if op.kind == "min-reg":
        try:
            return ag.min_acm_regularity(d, g)
        except ag.UnattainableGenusError as exc:
            if exc.kind != "gap":
                raise
            return None
    if op.kind == "search":
        return ag.genus_search(g, ag.TreeFamily.fixed_multiplicity(d))
    raise ValueError(f"not an in-process operation: {op!r}")


# one finished child process: exit code, output bytes, wall seconds, peak RSS
Child = namedtuple("Child", "code stdout stderr wall_s maxrss_kb")


def child_env(root: Path) -> dict:
    """The environment for every child: the source tree first, no advisory inputs."""
    env = {k: v for k, v in os.environ.items() if k not in ("ACM_CACHE", "ACMGENERA_BACKEND")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], root: Path) -> Child:
    """Run one child to completion, reading both pipes, and reap it with its rusage."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + CHILD_TIMEOUT_S - perf_counter()
                if left <= 0:
                    raise TimeoutError(f"{argv} ran for more than {CHILD_TIMEOUT_S} s")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(c) for c in chunks.values())
    return Child(proc.returncode, out, err, wall, usage.ru_maxrss)


def cli_argv(op: Op, tracefile: Path | None = None) -> list[str]:
    if tracefile is None:
        return [sys.executable, "-m", "acmgenera.cli", *op.args]
    return [sys.executable, str(HERE / "clitrace.py"), str(tracefile), *op.args]


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right


def classification_digest(cls) -> str:
    """sha256 of canonical JSON: genera, gaps with their certificates, witnesses."""
    doc = {
        "d": cls.d,
        "genera": cls.genera.to_list(),
        "gaps": [[c.value, c.reason, c.s, c.i] for c in cls.gaps],
        "witnesses": {str(g): list(h) for g, h in sorted(cls.witnesses.items())},
    }
    return _sha(doc)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def digest(op: Op, result) -> str:
    """What golden.json records for an operation: a digest of its whole output.

    A query's digest covers its answer and witness, so a different but valid
    witness is caught as well as a wrong one; a gap answer has a digest too.
    A raised exception or a failed CLI process gets a text that no digest
    equals."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    if op.kind == "classify":
        return classification_digest(result)
    if op.kind == "min-reg":
        return _sha(None if result is None else [result.min_regularity, result.postulation_regularity,
                                                 list(result.witness)])
    if op.kind == "search":
        return _sha(None if result is None else list(result))
    if op.kind == "cli":
        return hashlib.sha256(result.stdout).hexdigest() if result.code == 0 else f"exited with {result.code}"
    raise ValueError(f"unknown operation {op!r}")


def golden_digest(op: Op, golden: dict):
    """The recorded digest of ``op``'s output, or None when none is recorded."""
    if op.kind == "classify":
        return golden["classify"].get(str(op.args[0]))
    if op.kind == "cli":
        return golden["cli"].get(" ".join(op.args))
    return golden["queries"].get(f"{op.kind} {op.args[0]} {op.args[1]}")


def digest_problems(op: Op, found: str, golden: dict) -> list[str]:
    """The check of a repeated run, of which only the digest is kept."""
    if found == golden_digest(op, golden):
        return []
    if found.startswith(("raised ", "exited ")):
        return [f"{op!r} {found}"]
    return [f"{op!r}: output differs from the recorded digest"]


def check(op: Op, result, golden: dict) -> list[str]:
    """The full check of one output: the independent DP, then the digest."""
    if isinstance(result, BaseException):
        return [f"{op!r} raised {type(result).__name__}: {result}"]
    if op.kind == "classify":
        problems = checker.classification_problems(result)
    elif op.kind == "min-reg":
        problems = checker.regularity_problems(*op.args, result)
    elif op.kind == "search":
        problems = checker.search_problems(*op.args, result)
    elif op.kind == "cli":
        problems = checker.cli_problems(list(op.args), result.code, result.stdout.decode())
    else:
        return [f"{op!r}: unknown operation"]
    return problems + digest_problems(op, digest(op, result), golden)
