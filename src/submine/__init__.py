"""Constraint-based itemset mining over user-constrained sub-datasets.

Three interchangeable engines extract the same theories of
(sub-dataset, itemset) pairs: a propagation-based solver (``cp``), a
preprocess-then-mine pipeline (``baseline``), and an exhaustive oracle
(``oracle``).
"""

from .dataset import (
    EmptyDatabaseError,
    FormatError,
    Group,
    PartitionScheme,
    TransactionDatabase,
    bits_of,
    indices_of,
    iter_bits,
    parse_fimi,
    parse_labels,
    parse_partition,
)
from .queries import (
    AxisConstraint,
    Query,
    QueryError,
    SolutionPair,
    UnsupportedQueryError,
    assemble,
    build_query,
    check_query,
    count_masks,
    parse_query,
    run_theory,
)
from .reference import (
    SizeLimitError,
    brute_force_theory,
    enumerate_masks,
    mine_closed,
    pp_mine,
)

__version__ = "0.1.0"

__all__ = [
    "AxisConstraint",
    "EmptyDatabaseError",
    "FormatError",
    "Group",
    "PartitionScheme",
    "Query",
    "QueryError",
    "SizeLimitError",
    "SolutionPair",
    "TransactionDatabase",
    "UnsupportedQueryError",
    "assemble",
    "bits_of",
    "brute_force_theory",
    "build_query",
    "check_query",
    "count_masks",
    "enumerate_masks",
    "indices_of",
    "iter_bits",
    "mine_closed",
    "parse_fimi",
    "parse_labels",
    "parse_partition",
    "parse_query",
    "pp_mine",
    "run_theory",
]
