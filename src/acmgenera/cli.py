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
from .trees import TreeFamily, export_tree, iter_family

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit_json(obj):
    import json

    print(json.dumps(obj, sort_keys=True))


def _classification_json(cls):
    return {
        "d": cls.d,
        "genera": cls.genera.to_list(),
        "gaps": cls.gap_values(),
        "stats": dict(sorted(cls.stats.items())),
        "witnesses": {str(g): format_oseq(h) for g, h in sorted(cls.witnesses.items())},
    }


def _cmd_genera(args) -> int:
    # the oracle runs first, so a degree past its budget exits 3 before classifying
    reference = brute_force_genera(args.d) if args.oracle else None
    cls = acm_genera(args.d)
    oracle_ok = None
    if args.oracle:
        oracle_ok = reference == cls.genera
        if not oracle_ok:
            onlyref = sorted(set(reference) - set(cls.genera))
            onlycls = sorted(set(cls.genera) - set(reference))
            print(
                f"oracle mismatch for d={args.d}: missing={onlyref} spurious={onlycls}",
                file=sys.stderr,
            )
            return EXIT_DOMAIN
    if args.format == "json":
        payload = _classification_json(cls)
        if oracle_ok is not None:
            payload["oracle"] = "ok"
        _emit_json(payload)
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["value", "status", "provenance", "witness"])
        for value in range(comb(args.d - 1, 2) + 1):
            status = "genus" if value in cls.genera else "gap"
            witness = format_oseq(cls.witnesses[value]) if value in cls.witnesses else ""
            writer.writerow([value, status, cls.provenance_of(value), witness])
    else:
        stats = cls.stats
        print(
            f"d={cls.d} |R|={comb(cls.d - 1, 2) + 1} genera={len(cls.genera)} "
            f"gaps={len(cls.gaps)} certain={stats['certain_genera']} "
            f"certain_gaps={stats['certain_gaps']} searched={stats['searched']}"
        )
        print("genera: " + ",".join(str(g) for g in cls.genera))
        print("gaps: " + ",".join(str(v) for v in cls.gap_values()))
        for g, h in sorted(cls.witnesses.items()):
            print(f"witness {g}: {format_oseq(h)}")
        if oracle_ok is not None:
            print("oracle: ok")
    return EXIT_OK


def _cmd_gaps(args) -> int:
    cls = acm_genera(args.d)
    if args.format == "json":
        _emit_json(
            [
                {"value": c.value, "reason": c.reason, "s": c.s, "i": c.i}
                for c in cls.gaps
            ]
        )
    else:
        for c in cls.gaps:
            extra = ""
            if c.s is not None:
                extra += f" s={c.s}"
            if c.i is not None:
                extra += f" i={c.i}"
            print(f"{c.value} {c.reason}{extra}")
    return EXIT_OK


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
    rows = range_table(args.d)
    if args.format == "json":
        _emit_json(
            [
                {
                    "s": r.s,
                    "min": r.min_genus,
                    "max": r.max_genus,
                    "minWitness": format_oseq(r.min_witness),
                    "maxWitness": format_oseq(r.max_witness),
                    "separated": r.separated,
                }
                for r in rows
            ]
        )
    else:
        for r in rows:
            print(
                f"s={r.s} min={r.min_genus} max={r.max_genus} "
                f"minWitness={format_oseq(r.min_witness)} "
                f"maxWitness={format_oseq(r.max_witness)} "
                f"separated={'true' if r.separated else 'false'}"
            )
    return EXIT_OK


def _cmd_mseq(args) -> int:
    values = m_sequence(args.dmax)
    if args.format == "json":
        _emit_json(values)
    else:
        for d, m in enumerate(values, start=1):
            print(f"d={d} m={m}")
    return EXIT_OK


def _cmd_min_reg(args) -> int:
    answer = min_acm_regularity(args.d, args.g)
    if args.format == "json":
        _emit_json(
            {
                "d": answer.d,
                "g": answer.g,
                "m_acm": answer.min_regularity,
                "rho": answer.postulation_regularity,
                "witness": format_oseq(answer.witness),
            }
        )
    else:
        print(
            f"m_acm={answer.min_regularity} rho={answer.postulation_regularity} "
            f"witness={format_oseq(answer.witness)}"
        )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    family = _family(args)
    if args.export:
        print(export_tree(family, args.export))
    else:
        for h in iter_family(family):
            print(format_oseq(h))
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    h = parse_oseq(args.h_vector)
    if not is_admissible(h):
        print(f"not an admissible O-sequence: {format_oseq(h)}", file=sys.stderr)
        return EXIT_DOMAIN
    tmax = args.tmax if args.tmax is not None else len(h)
    data = hilbert_data(h, tmax)
    dcoef, const = data.polynomial
    if args.format == "json":
        _emit_json(
            {
                "h": format_oseq(data.h_vector),
                "zeroDim": list(data.zero_dim),
                "curve": list(data.curve),
                "polynomial": {"slope": dcoef, "constant": const},
                "rho": data.postulation_regularity,
            }
        )
    else:
        print(f"h: {format_oseq(data.h_vector)}")
        print(f"H_Z: {format_oseq(data.zero_dim)}")
        print(f"H_C: {format_oseq(data.curve)}")
        print(f"polynomial: {dcoef}t{const:+d}")
        print(f"rho: {data.postulation_regularity}")
    return EXIT_OK


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
        "step2_ms": timings["step2"] * 1e3,
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

    if args.format == "json":
        _emit_json({"d": args.d, "runs": [run], "full_visit": visit})
        return EXIT_OK
    share = 100.0 * run["step3_ms"] / run["total_ms"] if run["total_ms"] else 0.0
    print(f"d={args.d} backend={run['backend']}")
    print(f"  step1 certain genera  {run['step1_ms']:10.3f} ms")
    print(f"  step2 certified gaps  {run['step2_ms']:10.3f} ms")
    print(f"  step3 searches        {run['step3_ms']:10.3f} ms  ({share:.1f}% of total)")
    print(f"  total                 {run['total_ms']:10.3f} ms")
    if visit is None:
        print("full visit: skipped (degree exceeds the exhaustive budget)")
    else:
        print(f"full visit: {visit['ms']:.3f} ms ({visit['sequences']} sequences)")
    return EXIT_OK


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
