"""Exception types shared across the package."""


class EmptyFamilyError(ValueError):
    """The requested family of O-sequences has no members (multiplicity < length)."""


class MembershipError(ValueError):
    """An O-sequence was used with a tree family it does not belong to."""


class BudgetError(RuntimeError):
    """A computation exceeded its degree, node, or memory budget."""


# Memory grows about as d^3, and time faster, at every entry point.  At
# d = 1000, on a 2-core x86_64 with Python 3.11.7, length_profile, the
# largest, peaks at 268 MB resident in 16 s (151 MB at d = 800), and a cold
# acm_genera, in a fresh process, at 37 MB in 0.08-0.11 s.
MAX_DEGREE = 1000


def _check_degree(d: int):
    """Refuse a degree below 1, or above the budget before anything is allocated."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d > MAX_DEGREE:
        raise BudgetError(f"degree {d} exceeds the degree budget (limit {MAX_DEGREE})")


class UnattainableGenusError(ValueError):
    """No O-sequence with the requested multiplicity and genus exists.

    ``kind`` is ``"gap"`` when the genus lies inside the admissible range but
    is not attained, ``"out-of-range"`` when it exceeds the range altogether.
    """

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind
