"""Independent output checker for the benchmark.

Nothing here imports acmgenera: the Macaulay bound, admissibility, genus and
the per-length genus sets are computed again from scratch, so a defect in
the package cannot vouch for itself.

The per-length genus sets come from a bitset dynamic program over states
(position t, value h_t, partial multiplicity u).  Each state holds a Python
int whose bit k is set when some admissible prefix ending in that state has
partial genus k.  Moving to position t+1 with value v adds t*v to the genus,
so the mask is shifted left by t*v.  The growth bound is monotone in h_t, so
for a fixed u the sources of a target value v are a suffix of the source
values, and one running OR in descending h_t feeds every target once.
"""
from __future__ import annotations

import json
import re
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def bound(a: int, t: int) -> int:
    """Largest value allowed after ``a`` in position ``t`` (Macaulay's theorem)."""
    total, rem, base = 0, a, t
    while rem > 0 and base >= 1:
        k = base
        while comb(k + 1, base) <= rem:
            k += 1
        total += comb(k + 1, base + 1)
        rem -= comb(k, base)
        base -= 1
    return total


def admissible(h) -> bool:
    """True iff ``h`` is a finite O-sequence (1, h1, ..., h_{s-1}), all entries >= 1."""
    if not h or h[0] != 1 or any(type(x) is not int or x < 1 for x in h):
        return False
    return all(h[t + 1] <= bound(h[t], t) for t in range(1, len(h) - 1))


def genus(h) -> int:
    return sum((j - 1) * x for j, x in enumerate(h) if j >= 2)


@lru_cache(maxsize=None)
def length_profile(d: int) -> dict[int, int]:
    """{length s: bitmask of the genera of multiplicity-d O-sequences of length s}."""
    if d == 1:
        return {1: 1}
    profile: dict[int, int] = {}
    layer: dict[int, dict[int, int]] = {1 + v: {v: 1} for v in range(1, d)}
    t = 1
    while layer:
        nxt: dict[int, dict[int, int]] = {}
        for u, row in layer.items():
            if u == d:
                closed = 0
                for mask in row.values():
                    closed |= mask
                profile[t + 1] = profile.get(t + 1, 0) | closed
                continue
            room = d - u
            values = sorted(row, reverse=True)
            acc = 0
            for i, v in enumerate(values):
                acc |= row[v]
                hi = min(bound(v, t), room)
                lo = bound(values[i + 1], t) + 1 if i + 1 < len(values) else 1
                for w in range(lo, hi + 1):
                    target = nxt.setdefault(u + w, {})
                    target[w] = target.get(w, 0) | (acc << (t * w))
        layer = nxt
        t += 1
    return profile


def genera_mask(d: int) -> int:
    out = 0
    for mask in length_profile(d).values():
        out |= mask
    return out


def universe(d: int) -> int:
    return comb(d - 1, 2) + 1


def min_length(d: int, g: int):
    """Smallest length whose genus set contains ``g``, or None for a gap."""
    profile = length_profile(d)
    return next((s for s in sorted(profile) if profile[s] >> g & 1), None)


def self_check() -> list[str]:
    """Problems with the checker itself: the acceptance counts at d = 25, 50, 100."""
    problems = []
    for d, count in ((25, 187), (50, 870), (100, 3894)):
        got = genera_mask(d).bit_count()
        if got != count:
            problems.append(f"checker: d={d} has {got} genera, expected {count}")
    return problems


# ---------------------------------------------------------------------------
# validators: each returns a list of problems, empty when the output is right


def witness_problems(d: int, g: int, h, s=None) -> list[str]:
    h = tuple(h)
    problems = []
    if not admissible(h):
        problems.append(f"d={d} g={g}: witness {h} is not an O-sequence")
    if sum(h) != d:
        problems.append(f"d={d} g={g}: witness {h} has multiplicity {sum(h)}")
    if genus(h) != g:
        problems.append(f"d={d} g={g}: witness {h} has genus {genus(h)}")
    if s is not None and len(h) != s:
        problems.append(f"d={d} g={g}: witness {h} has length {len(h)}, stated {s}")
    return problems


def partition_problems(d: int, genera: list[int], gaps: list[int], witnesses: dict) -> list[str]:
    """Genera equal the DP set, gaps are its complement, witnesses are valid."""
    truth = genera_mask(d)
    problems = []
    got = 0
    for g in genera:
        got |= 1 << g
    if got != truth:
        problems.append(f"d={d}: genus set differs from the DP set")
    gap_bits = 0
    for g in gaps:
        gap_bits |= 1 << g
    if gap_bits & truth:
        problems.append(f"d={d}: a reported gap is attainable")
    if gap_bits | got != (1 << universe(d)) - 1 or gap_bits & got or len(gaps) + len(genera) != universe(d):
        problems.append(f"d={d}: genera and gaps do not partition [0, C(d-1,2)]")
    for g, h in witnesses.items():
        problems += witness_problems(d, int(g), h)
    return problems


def classification_problems(cls) -> list[str]:
    """Check one ``DegreeClassification`` (read through its public fields only)."""
    return partition_problems(
        cls.d, cls.genera.to_list(), [c.value for c in cls.gaps], cls.witnesses
    )


def regularity_problems(d: int, g: int, answer) -> list[str]:
    """``answer`` is a RegularityAnswer, or None when a gap was reported."""
    s = min_length(d, g)
    if answer is None:
        return [] if s is None else [f"min-reg d={d} g={g}: reported a gap, attainable at s={s}"]
    problems = witness_problems(d, g, answer.witness, answer.min_regularity)
    if answer.min_regularity != s:
        problems.append(f"min-reg d={d} g={g}: reported {answer.min_regularity}, smallest length {s}")
    if answer.postulation_regularity != answer.min_regularity - 2:
        problems.append(f"min-reg d={d} g={g}: rho is not m_acm - 2")
    return problems


def search_problems(d: int, g: int, witness) -> list[str]:
    """A fixed-multiplicity genus search: a witness of genus g, or None for a gap."""
    if witness is None:
        ok = not genera_mask(d) >> g & 1
        return [] if ok else [f"search d={d} g={g}: returned None for an attainable genus"]
    return witness_problems(d, g, witness)


def _oseq(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def cli_problems(argv: list[str], code: int, stdout: str) -> list[str]:
    """Check the stdout of one ``acmgenera`` command from the cli-oracle list."""
    where = " ".join(argv)
    if code != 0:
        return [f"`{where}` exited with {code}"]
    try:
        if argv[0] == "genera" and "json" in argv:
            out = json.loads(stdout)
            d = int(argv[1])
            problems = partition_problems(
                d, out["genera"], out["gaps"], {g: _oseq(h) for g, h in out["witnesses"].items()}
            )
            if "--oracle" in argv and out.get("oracle") != "ok":
                problems.append(f"`{where}`: no oracle confirmation")
            return problems
        if argv[0] == "genera" and "csv" in argv:
            d = int(argv[1])
            rows = [line.split(",", 3) for line in stdout.splitlines()[1:]]
            genera = [int(r[0]) for r in rows if r[1] == "genus"]
            gaps = [int(r[0]) for r in rows if r[1] == "gap"]
            witnesses = {int(r[0]): _oseq(r[3].strip('"')) for r in rows if r[3]}
            return partition_problems(d, genera, gaps, witnesses)
        if argv[0] == "gaps":
            d = int(argv[1])
            gaps = [c["value"] for c in json.loads(stdout)]
            truth = genera_mask(d)
            return partition_problems(d, [g for g in range(universe(d)) if truth >> g & 1], gaps, {})
        if argv[0] == "min-reg":
            d, g = int(argv[1]), int(argv[2])
            m = re.fullmatch(r"m_acm=(\d+) rho=(-?\d+) witness=([\d,]+)\n", stdout)
            if m is None:
                return [f"`{where}`: unreadable output {stdout!r}"]
            s, rho, h = int(m[1]), int(m[2]), _oseq(m[3])
            problems = witness_problems(d, g, h, s)
            if s != min_length(d, g) or rho != s - 2:
                problems.append(f"`{where}`: m_acm={s} rho={rho}, smallest length {min_length(d, g)}")
            return problems
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"`{where}`: unreadable output ({exc!r})"]
    return [f"`{where}`: no check for this command"]
