"""Run one acmgenera command with the benchmark's spans installed.

    python perfbench/clitrace.py <spans-file> <acmgenera arguments...>

Stdout and the exit code are the command's own.  The spans, including one
``cli.main`` span timed in-process, and the ``macaulay_bound`` cache counts
are written to <spans-file> as JSON when the command returns.
"""
import json
import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import acmgenera.cli
    import acmgenera.macaulay

    t = tracer.Tracer()
    t.install()
    with t.span("cli.main"):
        code = acmgenera.cli.main(argv)
    sys.stdout.flush()
    info = acmgenera.macaulay.macaulay_bound.cache_info()
    with open(out, "w") as f:
        json.dump({"spans": t.spans, "bound_cache": [info.hits, info.misses]}, f)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
