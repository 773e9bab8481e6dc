"""Record golden.json: digests of the fixed-input outputs at the current commit.

    python3 perfbench/record_golden.py

Run it only when an output is meant to change; the benchmark counts every
operation whose output no longer matches as failed.
"""
import hashlib
import json
import sys

from run import find_root

ROOT = find_root()
sys.path.insert(0, str(ROOT / "src"))

import acmgenera as ag  # noqa: E402

import workloads as w  # noqa: E402


def main():
    classify = {}
    for d in sorted(set(w.LARGE_DEGREES) | set(w.SWEEP_DEGREES)):
        ag.clear_caches()
        classify[str(d)] = w.classification_digest(ag.acm_genera(d))
    ag.clear_caches()
    queries = {f"{op.kind} {op.args[0]} {op.args[1]}": w.digest(op, w.run_inprocess(ag, op))
               for op in w.plan("regularity-queries")}
    cli = {}
    for cmd in w.CLI_COMMANDS:
        child = w.run_child(w.cli_argv(w.Op("cli", cmd, 0)), ROOT)
        if child.code != 0:
            raise SystemExit(f"{' '.join(cmd)} exited with {child.code}: {child.stderr.decode()}")
        cli[" ".join(cmd)] = hashlib.sha256(child.stdout).hexdigest()
    w.GOLDEN.write_text(json.dumps({"classify": classify, "cli": cli, "queries": queries}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.GOLDEN}")


if __name__ == "__main__":
    main()
