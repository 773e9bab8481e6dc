"""Exact classification of aCM-curve genera by degree, via finite O-sequences."""

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


def clear_caches():
    """Drop every in-memory memo (bound tables, genus profiles, range rows, degree recursion).

    This lets a benchmark time cold computations after a warm-up run.
    """
    from . import _kernels as _k
    from . import continuity as _c
    from . import macaulay as _m
    from . import ranges as _r

    _m.macaulay_bound.cache_clear()
    _r.clear_range_caches()
    _c.clear_continuity_caches()
    _k.clear_kernel_caches()

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
