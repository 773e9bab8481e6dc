"""Benchmark of acmgenera: one workload per run, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs the four workloads one after another, each in its
own interpreter, and ends with their results merged under
``<workload>.<metric>``.

Run it from a source checkout; the package is imported from ``src/``
without installing.  Workloads (inputs in workloads.py, reasons in
BENCHMARK.json): classify-large, classify-sweep, regularity-queries,
cli-oracle.  All load comes from this one process, one operation at a time;
at most one child process runs at a time.

``--trace 0`` first times ``import acmgenera; warm_up()`` in fresh
interpreters (``setup_s``, their median), then repeats passes of the
workload while the next one still fits in ``--seconds``.  Meanwhile
hostspeed.py samples the host's speed, and every timing is reported in
seconds at a fixed reference speed, from each operation's median run over
the passes (see end_to_end).  ``--trace 1`` alternates an untraced and a
traced pass on the same inputs and reports the per-layer metrics, as
means per traced pass and as measured; the tracing overhead is the sum of
the operations' median traced runs minus that of their median untraced
runs.  A layer that a workload never calls reports 0.

Every operation is checked after the timed passes.  The first run of each
input is checked whole, against the independent DP in checker.py and the
digests in golden.json; later runs keep only their output's digest, which
must equal the recorded one.  A failed check or an unexpected exception
counts the operation as failed.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``.  The full record, with
the environment and, when tracing, the spans and per-call records, goes to
``perfbench/results/<workload>-seed<n>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import checker
import workloads as w
from hostspeed import HostSpeed
from tracer import END, INFO, NAME, OP, PARENT, START, Tracer, self_times

HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))  # read before main() pins the run to one CPU
WORKLOADS = ("classify-large", "classify-sweep", "regularity-queries", "cli-oracle")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
# warm_up() is optional, so that set-up keeps its meaning if the package drops it
SETUP_CODE = "import acmgenera; getattr(acmgenera, 'warm_up', lambda: None)()"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "values_per_s": "1/s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernels.search_fixed_both.calls": "count",
    "kernels.search_fixed_both.self_ms": "ms",
    "kernels.search_fixed_both.targets": "count",
    "kernels.search_fixed_both.hits": "count",
    "kernels.search_fixed_both.hit_ratio": "ratio",
    "kernels.bound_table.calls": "count",
    "kernels.bound_table.ms": "ms",
    "kernels.search_multiplicity.calls": "count",
    "kernels.search_multiplicity.ms": "ms",
    "kernels.brute_force_attained.calls": "count",
    "kernels.brute_force_attained.ms": "ms",
    "search.acm_genera.ms": "ms",
    "search.step1_ms": "ms",
    "search.step2_ms": "ms",
    "search.step3_ms": "ms",
    "search.searched": "count",
    "search.settled_ratio": "ratio",
    "search.genus_search.calls": "count",
    "search.genus_search.ms": "ms",
    "search.genus_search.found_ratio": "ratio",
    "regularity.min_acm_regularity.ms": "ms",
    "regularity.lengths_tried": "count",
    "regularity.wasted_ratio": "ratio",
    "ranges.max_genus.calls": "count",
    "ranges.max_genus.ms": "ms",
    "ranges.certified_gaps.ms": "ms",
    "macaulay.bound_cache.hits": "count",
    "macaulay.bound_cache.misses": "count",
    "continuity.certain_genera.calls": "count",
    "continuity.certain_genera.ms": "ms",
    "cli.process_ms": "ms",
    "cli.import_ms": "ms",
    "cli.output_bytes": "bytes",
    "cli.main.ms": "ms",
    "trace.overhead_s": "s",
}


# one run of an operation: its pass, whether traced, its index in the plan, the
# digest of its output, what the metrics read of it, latency in seconds and
# its perf_counter() start
Record = namedtuple("Record", "pass_no traced index op digest answer latency at")


def find_root() -> Path:
    """The checkout this benchmark lives in (the directory above perfbench/)."""
    return HERE.parent


def git_commit(root: Path):
    """HEAD's commit, or None outside a git repository (git looks no higher than ``root``)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(ag, root: Path, args) -> dict:
    # numpy's version is read from its metadata: importing it here would
    # add to this process's memory whether or not the package still uses it
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numpy_loaded": "numpy" in sys.modules,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": ag.get_backend() if hasattr(ag, "get_backend") else None,
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def answer(op, result):
    """What the metrics and per-call records read of an output: a CLI child
    whole, a query's length or "gap", and nothing of a classification."""
    if isinstance(result, BaseException):
        return "error"
    if op.kind == "cli":
        return result
    if op.kind in ("min-reg", "search"):
        return "gap" if result is None else result.min_regularity if op.kind == "min-reg" else len(result)
    return None


class Runner:
    """Runs passes of one workload.

    The output of an input's first run is kept whole for the full check
    after the timed passes; later runs keep only its digest and answer.  So
    what the benchmark holds does not grow with the number of passes, and
    the peak RSS read from this process is the same whether a pass takes
    one second or three."""

    def __init__(self, workload: str, seed: int, root: Path, ag, speed: HostSpeed | None = None):
        self.workload, self.seed, self.root, self.ag = workload, seed, root, ag
        self.speed = speed or HostSpeed()
        self.records: list[Record] = []
        self.first: dict[int, object] = {}  # plan index -> output of its first run
        self.passes = []  # (pass, traced, wall_s)
        self.bound_cache = [0, 0]  # macaulay_bound hits, misses in traced passes
        self.spanfile = HERE / "results" / ".clitrace.json"
        self.ops = w.plan(workload)
        self.t0 = perf_counter()

    def _harvest(self, traced: bool):
        info = self.ag.macaulay_bound.cache_info()
        if traced:
            self.bound_cache[0] += info.hits - self._base[0]
            self.bound_cache[1] += info.misses - self._base[1]
        self._base = (0, 0)

    def _clear(self, traced: bool):
        self._harvest(traced)
        self.ag.clear_caches()  # also resets macaulay_bound's counts

    def run_pass(self, p: int, tracer=None):
        traced = tracer is not None
        ops = self.ops
        sequence = w.order(self.workload, self.seed, len(ops))
        info = self.ag.macaulay_bound.cache_info()
        self._base = (info.hits, info.misses)
        untimed = 0.0  # seconds spent taking digests and host-speed samples, left out of the pass's wall time
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            if self.workload in ("classify-sweep", "regularity-queries"):
                self._clear(traced)
            for i in sequence:
                op = ops[i]
                if self.workload == "classify-large":
                    self._clear(traced)
                if traced:
                    tracer.op = len(self.records)
                spent = self.speed.spent
                t = perf_counter()
                try:
                    if op.kind == "cli":
                        result = self._cli(op, tracer)
                    else:
                        result = w.run_inprocess(self.ag, op)
                except Exception as exc:  # recorded and counted as a failed operation
                    result = exc
                latency = perf_counter() - t - (self.speed.spent - spent)
                self.first.setdefault(i, result)
                self.records.append(Record(p, traced, i, op, w.digest(op, result), answer(op, result), latency, t))
                del result
                untimed += perf_counter() - t - latency
            wall = perf_counter() - t0 - untimed
        finally:
            if traced:
                tracer.uninstall()
                tracer.op = None
        self._harvest(traced)
        self.passes.append((p, traced, wall))

    def _cli(self, op, tracer):
        if tracer is None:
            return w.run_child(w.cli_argv(op), self.root)
        self.spanfile.unlink(missing_ok=True)
        with tracer.span("cli.process") as parent:
            child = w.run_child(w.cli_argv(op, self.spanfile), self.root)
        if self.spanfile.is_file():
            doc = json.loads(self.spanfile.read_text())
            tracer.adopt(doc["spans"], parent)
            self.bound_cache[0] += doc["bound_cache"][0]
            self.bound_cache[1] += doc["bound_cache"][1]
            self.spanfile.unlink()
        return child

    def typical(self, traced: bool, scaled: bool = True) -> list[float]:
        """Each operation's median run over the untraced or the traced passes,
        in seconds at the reference speed (see hostspeed.py) when ``scaled``
        and the sampler ran, else as measured."""
        runs: dict[int, list[float]] = {}
        for r in self.records:
            if r.traced == traced:
                scale = self.speed.scale(r.at, r.at + r.latency) if scaled else 1.0
                runs.setdefault(r.index, []).append(r.latency * scale)
        return [statistics.median(v) for v in runs.values()]


def measure(runner: Runner, seconds: float, tracer=None):
    """Repeat passes while the next one is expected to end within ``seconds``.

    When tracing, each pass runs untraced and traced on the same inputs,
    alternating which goes first."""
    t0 = perf_counter()
    p = 0
    while True:
        if tracer is None:
            runner.run_pass(p)
        else:
            for t in (None, tracer) if p % 2 == 0 else (tracer, None):
                runner.run_pass(p, t)
        p += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / p > seconds:
            return


def median_child_s(argv, root: Path, repeats: int, speed: HostSpeed) -> float:
    """Median wall time of ``repeats`` children, at the reference speed if ``speed`` ran."""
    times = []
    for _ in range(repeats):
        spent, t = speed.spent, perf_counter()
        child = w.run_child(argv, root)
        if child.code != 0:
            raise SystemExit(f"{argv[1:]} exited with {child.code}: {child.stderr.decode()}")
        wall = child.wall_s - (speed.spent - spent)
        times.append(wall * speed.scale(t, t + wall))
    return statistics.median(times)


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """Every timing is in seconds at the reference speed (see hostspeed.py).

    Each run of an operation is scaled by the host's speed around it, and
    each operation's median over the passes is its latency.  wall_s is
    their sum, one pass's time; the percentiles are over the operations.
    As measured, the median pass spread by a quarter to a third of itself
    from run to run, with the host's load."""
    lat = runner.typical(False)
    wall = sum(lat)
    if runner.workload == "cli-oracle":
        rss_kb = max(r.answer.maxrss_kb for r in runner.records if isinstance(r.answer, w.Child))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "values_per_s": sum(op.values for op in runner.ops) / wall,
        "calls_per_s": len(runner.ops) / wall,
        "call_p50_ms": statistics.median(lat) * 1e3,
        "call_p95_ms": statistics.quantiles(lat, n=20, method="inclusive")[18] * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(runner: Runner, tracer, import_ms: float) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    n = sum(1 for _, t, _ in runner.passes if t)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ())) / n

    def ms(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name.get(name, ())) * 1e3 / n

    def ratio(a, b):
        return a / b if b else 0.0

    fixed = [spans[i][INFO] for i in by_name.get("kernels.search_fixed_both", ())]
    classify = [spans[i][INFO] for i in by_name.get("search.acm_genera", ()) if spans[i][INFO]]
    searches = [spans[i][INFO]["found"] for i in by_name.get("search.genus_search", ()) if spans[i][INFO]]
    regularity = set(by_name.get("regularity.min_acm_regularity", ()))
    tried = [spans[i][INFO]["found"] for i in by_name.get("search.genus_search", ())
             if spans[i][PARENT] in regularity and spans[i][INFO]]
    untraced = [r for r in runner.records if not r.traced and isinstance(r.answer, w.Child)]
    m = {
        "kernels.search_fixed_both.calls": calls("kernels.search_fixed_both"),
        "kernels.search_fixed_both.self_ms": sum(own[i] for i in by_name.get("kernels.search_fixed_both", ())) * 1e3 / n,
        "kernels.search_fixed_both.targets": sum(f["targets"] for f in fixed) / n,
        "kernels.search_fixed_both.hits": sum(f["hits"] for f in fixed) / n,
        "kernels.search_fixed_both.hit_ratio": ratio(sum(f["hits"] for f in fixed), sum(f["targets"] for f in fixed)),
        "search.step1_ms": sum(c["step1"] for c in classify) * 1e3 / n,
        "search.step2_ms": sum(c["step2"] for c in classify) * 1e3 / n,
        "search.step3_ms": sum(c["step3"] for c in classify) * 1e3 / n,
        "search.searched": sum(c["searched"] for c in classify) / n,
        "search.settled_ratio": ratio(sum(c["settled"] for c in classify),
                                      sum(checker.universe(c["d"]) for c in classify)),
        "search.genus_search.found_ratio": ratio(sum(searches), len(searches)),
        "regularity.lengths_tried": ratio(len(tried), len(regularity)),
        "regularity.wasted_ratio": ratio(len(tried) - sum(tried), len(tried)),
        "macaulay.bound_cache.hits": runner.bound_cache[0] / n,
        "macaulay.bound_cache.misses": runner.bound_cache[1] / n,
        "cli.process_ms": sum(r.latency for r in untraced) * 1e3 / n,
        "cli.import_ms": import_ms,
        "cli.output_bytes": sum(len(r.answer.stdout) for r in untraced) / n,
        "trace.overhead_s": sum(runner.typical(True)) - sum(runner.typical(False)),
    }
    for name in ("kernels.bound_table", "kernels.search_multiplicity", "kernels.brute_force_attained",
                 "ranges.max_genus", "continuity.certain_genera", "search.genus_search"):
        m[name + ".calls"] = calls(name)
        m[name + ".ms"] = ms(name)
    for name in ("search.acm_genera", "regularity.min_acm_regularity", "ranges.certified_gaps", "cli.main"):
        m[name + ".ms"] = ms(name)
    return {k: m[k] for k in PER_LAYER}


def call_records(runner: Runner, tracer) -> dict:
    """Per-call records a reader can rank: every fixed-(d, s) search and every query."""
    spans = tracer.spans
    own = self_times(spans)
    searches = [
        {**spans[i][INFO], "op": spans[i][OP], "self_ms": own[i] * 1e3}
        for i in range(len(spans)) if spans[i][NAME] == "kernels.search_fixed_both"
    ]
    tried: dict[int, int] = {}
    for s in spans:
        if s[NAME] == "search.genus_search" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "regularity.min_acm_regularity":
            tried[s[OP]] = tried.get(s[OP], 0) + 1
    queries = []
    for i, r in enumerate(runner.records):
        if r.traced and r.op.kind in ("min-reg", "search"):
            queries.append({"op": i, "kind": r.op.kind, "d": r.op.args[0], "g": r.op.args[1],
                            "lengths_tried": tried.get(i, 0) if r.op.kind == "min-reg" else None,
                            "answer": r.answer, "ms": r.latency * 1e3})
    summary = {}
    if searches:
        summary["slowest_search_fixed_both"] = max(searches, key=lambda r: r["self_ms"])
        for d in sorted({r["d"] for r in searches}):
            summary[f"slowest_search_fixed_both_d{d}"] = max(
                (r for r in searches if r["d"] == d), key=lambda r: r["self_ms"])
    if queries:
        summary["worst_query"] = max(queries, key=lambda r: r["ms"])
    return {"summary": summary, "search_fixed_both": searches, "queries": queries}


def run_all(args) -> int:
    """Run every workload in a fresh interpreter, one at a time, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = find_root()
    if not (root / "src" / "acmgenera" / "__init__.py").is_file():
        print(f"no acmgenera source tree under {root / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(root / "src"))
    # one CPU for this process and its children, so that the host's speed
    # sampled here is that of the CPU a CLI child or set-up child runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for name in ("ACM_CACHE", "ACMGENERA_BACKEND"):  # advisory inputs stay at their defaults
        os.environ.pop(name, None)
    (HERE / "results").mkdir(exist_ok=True)

    speed = HostSpeed()
    tracer = Tracer() if args.trace else None
    # the host's speed is sampled through the timed parts of an untraced run
    with contextlib.nullcontext() if args.trace else speed:
        setup_s = None if args.trace else median_child_s([sys.executable, "-c", SETUP_CODE], root,
                                                         SETUP_REPEATS, speed)
        import acmgenera as ag

        getattr(ag, "warm_up", lambda: None)()
        runner = Runner(args.workload, args.seed, root, ag, speed)
        measure(runner, args.seconds, tracer)
    # before the checks, so that peak RSS is the workload's own
    metrics = None if args.trace else end_to_end(runner, setup_s)

    problems = checker.self_check()
    golden = w.load_golden()
    failures = []
    checked = set()
    for r in runner.records:
        if r.index in checked:
            found = w.digest_problems(r.op, r.digest, golden)
        else:  # the input's first run, kept whole
            checked.add(r.index)
            found = w.check(r.op, runner.first[r.index], golden)
        if found:
            failures.append({"pass": r.pass_no, "op": repr(r.op), "problems": found})
    attempted = len(runner.records)

    record = {"environment": environment(ag, root, args), "passes": runner.passes,
              "call_samples": sum(1 for r in runner.records if not r.traced),
              "latencies": [[r.pass_no, r.traced, repr(r.op), r.latency, r.at - runner.t0]
                            for r in runner.records],
              "pass_as_measured_s": sum(runner.typical(False, scaled=False)),
              "host_speed": [[t - runner.t0, x] for t, x in zip(speed.times, speed.seconds)]}
    if args.trace:
        bare = median_child_s([sys.executable, "-c", "pass"], root, IMPORT_REPEATS, speed)
        full = median_child_s([sys.executable, "-c", "import acmgenera"], root, IMPORT_REPEATS, speed)
        metrics = per_layer(runner, tracer, (full - bare) * 1e3)
        record.update(call_records(runner, tracer))
        record["spans"] = tracer.spans
        units = PER_LAYER
    else:
        units = END_TO_END
    result = {
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    # failed_ratio is not among BENCHMARK.json's metrics: it is 0 when the
    # program is right, and "attempted" and "failed" already carry it
    record.update(result, failed_ratio=len(failures) / attempted, checker_problems=problems, failures=failures)
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, sort_keys=True) + "\n")

    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(runner.passes)} passes, {record['call_samples']} "
          f"untraced operations, failed_ratio {record['failed_ratio']} ({len(failures)} of {attempted}), "
          f"record in {out.relative_to(root)}")
    for problem in problems + [f for fail in failures[:10] for f in fail["problems"]]:
        print(f"FAILED {problem}", file=sys.stderr)
    for key in ("slowest_search_fixed_both", "worst_query"):
        if key in record.get("summary", {}):
            print(f"{key} {json.dumps(record['summary'][key], sort_keys=True)}")
    for k, v in result["metrics"].items():
        print(f"  {k:40s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
