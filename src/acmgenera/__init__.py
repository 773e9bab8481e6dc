"""Exact classification of aCM-curve genera by degree, via finite O-sequences."""

from . import _kernels, continuity, ranges
from .continuity import GenusSet, certain_genera, continuity_prefix, m_sequence
from .errors import BudgetError, EmptyFamilyError, MembershipError, UnattainableGenusError
from .macaulay import (
    BinomialExpansion,
    HilbertData,
    binomial,
    expand,
    format_oseq,
    genus,
    hilbert_data,
    is_admissible,
    macaulay_bound,
    multiplicity,
    parse_oseq,
)
from .ranges import (
    GapCertificate,
    GenusRange,
    certified_gaps,
    genus_range,
    holes,
    max_genus,
    max_oseq,
    min_genus,
    min_oseq,
    range_table,
    separated_after,
)
from .regularity import RegularityAnswer, min_acm_regularity
from .search import (
    DegreeClassification,
    acm_genera,
    brute_force_genera,
    brute_force_length_profile,
    count_osequences,
    genus_search,
)
from .trees import (
    TreeFamily,
    children,
    export_dot,
    export_json,
    iter_family,
    parent,
    precedes,
    root_of,
    total_compare,
)

__version__ = "0.1.0"


# every memo in the package, one functools cache each, bound at import time:
# perfbench's tracer swaps some module attributes for wrappers without cache_clear
_MEMOS = (
    macaulay_bound,
    _kernels.bound_table,
    _kernels._profile,
    _kernels._excess_witnesses,
    ranges._row,
    continuity._certain_mask,
)


def clear_caches():
    """Drop every in-memory memo, the caches in ``_MEMOS``.

    They are ``macaulay_bound``; by degree, the bound tables
    (``_kernels.bound_table``), the per-length genus profiles
    (``_kernels._profile``) and the certain genera
    (``continuity._certain_mask``); by excess, the witness tables of the
    long lengths (``_kernels._excess_witnesses``); and by length, the rows
    of genus-maximal sequences (``ranges._row``).  This lets a benchmark
    time cold computations after a warm-up run.
    """
    for memo in _MEMOS:
        memo.cache_clear()


__all__ = [
    "BinomialExpansion",
    "BudgetError",
    "DegreeClassification",
    "EmptyFamilyError",
    "GapCertificate",
    "GenusRange",
    "GenusSet",
    "HilbertData",
    "MembershipError",
    "RegularityAnswer",
    "TreeFamily",
    "UnattainableGenusError",
    "acm_genera",
    "binomial",
    "brute_force_genera",
    "brute_force_length_profile",
    "certain_genera",
    "certified_gaps",
    "children",
    "continuity_prefix",
    "count_osequences",
    "expand",
    "export_dot",
    "export_json",
    "format_oseq",
    "genus",
    "genus_range",
    "genus_search",
    "hilbert_data",
    "holes",
    "is_admissible",
    "iter_family",
    "m_sequence",
    "macaulay_bound",
    "max_genus",
    "max_oseq",
    "min_acm_regularity",
    "min_genus",
    "min_oseq",
    "multiplicity",
    "parent",
    "parse_oseq",
    "precedes",
    "range_table",
    "root_of",
    "separated_after",
    "total_compare",
]
