"""Command-line interface.

Subcommands wrap the library one-to-one; every output also has a stable
machine-readable form (JSON keys sorted, lists ascending) for diff-based
use.  Exit codes: 0 ok, 1 usage error, 2 domain error (gap, empty range,
inadmissible input, oracle mismatch), 3 resource budget exceeded.
"""
from __future__ import annotations

import argparse
import gc
import sys
from math import comb
from time import perf_counter

from . import clear_caches
from ._kernels import MAX_EXHAUSTIVE_DEGREE
from .continuity import m_sequence
from .errors import BudgetError, EmptyFamilyError, MembershipError, UnattainableGenusError
from .macaulay import MAX_TMAX, format_oseq, hilbert_data, is_admissible, parse_oseq
from .ranges import range_table
from .regularity import min_acm_regularity
from .search import acm_genera, brute_force_genera, count_osequences, genus_search
from .trees import TreeFamily, export_dot, export_json, iter_family

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3

_CHUNK_LINES = 4096


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _print(fmt: str, record, lines) -> int:
    """Print ``record`` as sorted-key JSON when ``fmt`` is "json", else each of ``lines``.

    A command derives its text ``lines`` from the record it builds; they are
    read only for text, so a generator costs nothing under JSON.  Text goes
    out in joined chunks of ``_CHUNK_LINES`` lines, one write each, since a
    write per line into a pipe costs more than the lines.  If ``lines``
    raises, the lines already read are written before the error passes on,
    so a walk stopped by its budget prints what it visited.
    """
    if fmt == "json":
        import json

        print(json.dumps(record, sort_keys=True))
        return EXIT_OK
    chunk = []
    try:
        for line in lines:
            chunk.append(line)
            if len(chunk) == _CHUNK_LINES:
                sys.stdout.write("\n".join(chunk) + "\n")
                chunk.clear()
    finally:
        if chunk:
            sys.stdout.write("\n".join(chunk) + "\n")
    return EXIT_OK


def _genera_lines(record):
    """The text of a ``genera`` record: a summary, the genera, the gaps, one line per witness."""
    stats = record["stats"]
    yield (
        f"d={record['d']} |R|={comb(record['d'] - 1, 2) + 1} genera={len(record['genera'])} "
        f"gaps={len(record['gaps'])} certain={stats['certain_genera']} "
        f"certain_gaps={stats['certain_gaps']} searched={stats['searched']}"
    )
    yield "genera: " + ",".join(map(str, record["genera"]))
    yield "gaps: " + ",".join(map(str, record["gaps"]))
    yield from (f"witness {g}: {h}" for g, h in record["witnesses"].items())
    if "oracle" in record:
        yield "oracle: ok"


def _cmd_genera(args) -> int:
    # the oracle runs first, so a degree past its budget exits 3 before classifying
    reference = brute_force_genera(args.d) if args.oracle else None
    cls = acm_genera(args.d)
    if args.oracle and reference != cls.genera:
        onlyref = sorted(set(reference) - set(cls.genera))
        onlycls = sorted(set(cls.genera) - set(reference))
        print(f"oracle mismatch for d={args.d}: missing={onlyref} spurious={onlycls}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "csv":
        import csv
        import io

        # one pass over the masks' digits, and one string to _print: a write per row into a pipe is slow
        out, w = io.StringIO(), cls.witnesses
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["value", "status", "provenance", "witness"])
        writer.writerows(
            (v, "genus" if digit == "1" else "gap", provenance, format_oseq(w[v]) if v in w else "")
            for v, (digit, provenance) in enumerate(zip(cls.genera.digits(), cls.provenances()))
        )
        return _print(args.format, None, [out.getvalue()[:-1]])
    record = {
        "d": cls.d,
        "genera": cls.genera.to_list(),
        "gaps": cls.gap_values(),
        "stats": dict(sorted(cls.stats.items())),
        "witnesses": {str(g): format_oseq(h) for g, h in sorted(cls.witnesses.items())},
    }
    if args.oracle:
        record["oracle"] = "ok"
    return _print(args.format, record, _genera_lines(record))


def _cmd_gaps(args) -> int:
    record = [{"value": c.value, "reason": c.reason, "s": c.s, "i": c.i} for c in acm_genera(args.d).gaps]
    lines = (
        " ".join([f"{c['value']} {c['reason']}"] + [f"{k}={c[k]}" for k in ("s", "i") if c[k] is not None])
        for c in record
    )
    return _print(args.format, record, lines)


def _family(args) -> TreeFamily:
    """The fixed-(d, s) family with ``--length S``, the fixed-multiplicity one without."""
    if args.length is not None:
        return TreeFamily.fixed_both(args.d, args.length)
    return TreeFamily.fixed_multiplicity(args.d)


def _cmd_search(args) -> int:
    witness = genus_search(args.g, _family(args))
    print("none" if witness is None else format_oseq(witness))
    return EXIT_OK


def _cmd_ranges(args) -> int:
    record = [
        {
            "s": r.s,
            "min": r.min_genus,
            "max": r.max_genus,
            "minWitness": format_oseq(r.min_witness),
            "maxWitness": format_oseq(r.max_witness),
            "separated": r.separated,
        }
        for r in range_table(args.d)
    ]
    lines = (
        f"s={r['s']} min={r['min']} max={r['max']} minWitness={r['minWitness']} "
        f"maxWitness={r['maxWitness']} separated={'true' if r['separated'] else 'false'}"
        for r in record
    )
    return _print(args.format, record, lines)


def _cmd_mseq(args) -> int:
    values = m_sequence(args.dmax)
    return _print(args.format, values, (f"d={d} m={m}" for d, m in enumerate(values, start=1)))


def _cmd_min_reg(args) -> int:
    answer = min_acm_regularity(args.d, args.g)
    record = {
        "d": answer.d,
        "g": answer.g,
        "m_acm": answer.min_regularity,
        "rho": answer.postulation_regularity,
        "witness": format_oseq(answer.witness),
    }
    line = f"m_acm={record['m_acm']} rho={record['rho']} witness={record['witness']}"
    return _print(args.format, record, [line])


def _cmd_enumerate(args) -> int:
    family = _family(args)
    if args.export == "dot":
        print(export_dot(family))
        return EXIT_OK
    record = export_json(family) if args.export else None
    return _print(args.export, record, map(format_oseq, iter_family(family)))


def _cmd_hilbert(args) -> int:
    h = parse_oseq(args.h_vector)
    if not is_admissible(h):
        print(f"not an admissible O-sequence: {format_oseq(h)}", file=sys.stderr)
        return EXIT_DOMAIN
    data = hilbert_data(h, args.tmax if args.tmax is not None else len(h))
    dcoef, const = data.polynomial
    record = {
        "h": format_oseq(data.h_vector),
        "zeroDim": list(data.zero_dim),
        "curve": list(data.curve),
        "polynomial": {"slope": dcoef, "constant": const},
        "rho": data.postulation_regularity,
    }
    lines = [
        f"h: {record['h']}",
        f"H_Z: {format_oseq(data.zero_dim)}",
        f"H_C: {format_oseq(data.curve)}",
        f"polynomial: {dcoef}t{const:+d}",
        f"rho: {record['rho']}",
    ]
    return _print(args.format, record, lines)


def _timed_run(d: int) -> dict:
    clear_caches()
    timings: dict[str, float] = {}
    gc.disable()  # keep collector pauses out of the per-step numbers
    try:
        t0 = perf_counter()
        cls = acm_genera(d, timings=timings)
        total = perf_counter() - t0
    finally:
        gc.enable()
    return {
        "backend": "python",
        "step1_ms": timings["step1"] * 1e3,
        "step2_ms": timings["step2"] * 1e3,  # the runs of closed-form gaps ORed into a mask, no certificate
        "step3_ms": timings["step3"] * 1e3,
        "total_ms": total * 1e3,
        "genera": len(cls.genera),
    }


def _cmd_bench(args) -> int:
    acm_genera(args.d)  # warm-up, excluded from timing
    run = _timed_run(args.d)

    visit = None
    if args.d <= MAX_EXHAUSTIVE_DEGREE:
        clear_caches()
        t0 = perf_counter()
        n = count_osequences(args.d)
        visit = {"ms": (perf_counter() - t0) * 1e3, "sequences": n}

    share = 100.0 * run["step3_ms"] / run["total_ms"] if run["total_ms"] else 0.0
    lines = [
        f"d={args.d} backend={run['backend']}",
        f"  step1 certain genera  {run['step1_ms']:10.3f} ms",
        f"  step2 certified gaps  {run['step2_ms']:10.3f} ms",
        f"  step3 searches        {run['step3_ms']:10.3f} ms  ({share:.1f}% of total)",
        f"  total                 {run['total_ms']:10.3f} ms",
        "full visit: skipped (degree exceeds the exhaustive budget)"
        if visit is None
        else f"full visit: {visit['ms']:.3f} ms ({visit['sequences']} sequences)",
    ]
    return _print(args.format, {"d": args.d, "runs": [run], "full_visit": visit}, lines)


def build_parser() -> _Parser:
    parser = _Parser(prog="acmgenera", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genera", help="classify every value of one degree")
    p.add_argument("d", type=int)
    p.add_argument("--oracle", action="store_true", help="cross-check against exhaustive generation")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(fn=_cmd_genera)

    p = sub.add_parser("gaps", help="gap list with certificates")
    p.add_argument("d", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_gaps)

    p = sub.add_parser("search", help="find one O-sequence with a given genus")
    p.add_argument("d", type=int)
    p.add_argument("g", type=int)
    p.add_argument("--length", type=int, default=None, metavar="S")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("ranges", help="per-length genus ranges of one degree")
    p.add_argument("d", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_ranges)

    p = sub.add_parser("mseq", help="continuity thresholds m_1..m_dmax")
    p.add_argument("dmax", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_mseq)

    p = sub.add_parser("min-reg", help="minimal regularity for one degree and genus")
    p.add_argument("d", type=int)
    p.add_argument("g", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_min_reg)

    p = sub.add_parser("enumerate", help="all O-sequences of one degree, or the tree")
    p.add_argument("d", type=int)
    p.add_argument("--length", type=int, default=None, metavar="S")
    p.add_argument("--export", choices=["dot", "json"], default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("hilbert", help="Hilbert function data of one h-vector")
    p.add_argument("h_vector")
    tmax_help = f"tabulate through T (default: the length; at most {MAX_TMAX})"
    p.add_argument("--tmax", type=int, default=None, metavar="T", help=tmax_help)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("bench", help="per-step timings, warm-up excluded")
    p.add_argument("d", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnattainableGenusError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (EmptyFamilyError, MembershipError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
