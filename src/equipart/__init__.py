"""Equitable partitions of [n] and distance magic multipartite labelings.

A partition of {1, ..., n} into blocks of sizes p_1 <= ... <= p_k whose
blocks all sum to n(n+1)/(2k) is exactly a distance magic labeling of
the complete multipartite graph with those part sizes.  This package
decides when such partitions exist (proven for k <= 4, conjectured
beyond), constructs them, verifies the graph-level conditions, and runs
exhaustive desk-scale sweeps comparing the prefix condition against a
complete search.
"""

from .core import (
    Instance,
    Partition,
    deviation,
    magic_sum,
    swap,
    swap_delta,
)
from .feasibility import (
    FeasibilityStatus,
    Verdict,
    feasibility,
    prefix_top_sum,
)
from .graphs import (
    MagicCheck,
    labeling_from_partition,
    verify_closed_magic_cycle,
    verify_distance_magic,
)
from .lab import (
    SweepReport,
    check_symmetric,
    enumerate_size_sequences,
    sweep,
)
from .solver import (
    ExactResult,
    ExactStatus,
    SearchParams,
    SolveResult,
    SolveStats,
    SolveStatus,
    solve,
    solve_exact,
    solve_k2,
)

__all__ = [
    "Instance",
    "Partition",
    "deviation",
    "magic_sum",
    "swap",
    "swap_delta",
    "FeasibilityStatus",
    "Verdict",
    "feasibility",
    "prefix_top_sum",
    "MagicCheck",
    "labeling_from_partition",
    "verify_closed_magic_cycle",
    "verify_distance_magic",
    "SweepReport",
    "check_symmetric",
    "enumerate_size_sequences",
    "sweep",
    "ExactResult",
    "ExactStatus",
    "SearchParams",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "solve",
    "solve_exact",
    "solve_k2",
]

__version__ = "0.1.0"
