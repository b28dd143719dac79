"""Numerical toolkit for binary-entropy inequalities on union-closed set families.

The package verifies, by exhaustive grids, randomized sampling, and exact
integer arithmetic, the chain of analytic facts behind the (3 - sqrt(5))/2
element-frequency bound for union-closed families:

* :mod:`entroset.kernel` evaluates the binary entropy function, the
  entropy rate H(x)/x, and its inverse to tight tolerances.
* :mod:`entroset.distribution` manipulates finite distributions on [0, 1]:
  two-point merges, support reduction, and the two-point optimum
  certificate for the joint-entropy lower bound.
* :mod:`entroset.scans` holds every scan engine (grid, sampling and
  exhaustive) and the registry of the sixteen checks, reporting
  worst-case margins with reproducible witnesses.
* :mod:`entroset.setfamily` handles the combinatorial side: union-closed
  families as bitmasks, exact frequency checks, exhaustive enumeration,
  and entropy comparisons for distributions on subsets.
* :mod:`entroset.cli` exposes everything as the ``entroset`` command.

Every scan returns a :class:`entroset.report.ScanReport` whose worst
witness can be replayed through :func:`entroset.scans.reevaluate_witness`.
All entropies are in bits unless a function says otherwise, and ground-set
elements are labelled from zero.
"""

from .kernel import (
    DomainError,
    FREQUENCY_BOUND,
    GOLDEN_THRESHOLD,
    KERNEL_TOL,
    binary_entropy,
    binary_entropy_arr,
    entropy_rate,
    entropy_rate_arr,
    entropy_sq_ratio,
    inverse_entropy_rate,
    inverse_entropy_rate_arr,
)
from .distribution import (
    DistributionError,
    FiniteDistribution,
    OptimumCertificate,
    dump_distribution,
    joint_entropy_optimum,
    load_distribution,
    merge_atoms,
    random_distribution,
    reduce_steps,
    reduce_support,
    scaled_entropy_margin,
    squared_merge_margin,
)
from .report import (
    PreconditionError,
    ScanConfig,
    ScanReport,
    make_report,
    report_from_json,
    report_to_json,
)
from .scans import (
    BoundChain,
    complement_bridge_gap,
    composed_rate,
    entropy_sq_ratio_scaled,
    product_bound_chain,
    product_bound_margin,
    reevaluate_witness,
    run_named_scan,
    tail_rate,
    union_bound_margin,
    SCAN_NAMES,
)
from .setfamily import (
    SetFamily,
    SetFamilyError,
    SubsetDistribution,
    enumerate_union_closed,
    family_census,
    frequency_bound_margin,
    frequency_profile,
    load_family,
    union_closure,
    union_distribution,
    union_entropy_margin,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernel
    "DomainError",
    "FREQUENCY_BOUND",
    "GOLDEN_THRESHOLD",
    "KERNEL_TOL",
    "binary_entropy",
    "binary_entropy_arr",
    "entropy_rate",
    "entropy_rate_arr",
    "entropy_sq_ratio",
    "inverse_entropy_rate",
    "inverse_entropy_rate_arr",
    # distribution
    "DistributionError",
    "FiniteDistribution",
    "OptimumCertificate",
    "dump_distribution",
    "joint_entropy_optimum",
    "load_distribution",
    "merge_atoms",
    "random_distribution",
    "reduce_steps",
    "reduce_support",
    "scaled_entropy_margin",
    "squared_merge_margin",
    # report
    "PreconditionError",
    "ScanConfig",
    "ScanReport",
    "make_report",
    "report_from_json",
    "report_to_json",
    # scans
    "BoundChain",
    "complement_bridge_gap",
    "composed_rate",
    "entropy_sq_ratio_scaled",
    "product_bound_chain",
    "product_bound_margin",
    "reevaluate_witness",
    "run_named_scan",
    "tail_rate",
    "union_bound_margin",
    "SCAN_NAMES",
    # setfamily
    "SetFamily",
    "SetFamilyError",
    "SubsetDistribution",
    "enumerate_union_closed",
    "family_census",
    "frequency_bound_margin",
    "frequency_profile",
    "load_family",
    "union_closure",
    "union_distribution",
    "union_entropy_margin",
]
