"""Version age of information in cache networks driven by renewal updates.

A source node versions its state at renewal instants; caches pull from their
upstream node over links that renew independently, always keeping the fresher
version.  This package provides the exact limiting expected version age on
path and tree topologies, a vectorized Monte Carlo simulator for arbitrary
networks (checked against a reference event loop), statistical verifiers for
the underlying renewal limit theorems, and reproducible comparison sweeps.
"""

__version__ = "0.1.0"

from .analytic import (
    AnalyticAge,
    expected_version_age,
    expected_version_age_poisson,
    link_contribution,
)
from .distributions import (
    Beta,
    ChiSquare,
    Deterministic,
    Distribution,
    Exponential,
    Moments,
    ParetoI,
    Rayleigh,
    Uniform,
    from_literal,
)
from .errors import (
    ConfigError,
    CycleThroughSource,
    DuplicateLink,
    InfiniteSecondMoment,
    InvalidParameter,
    NetworkError,
    NotATree,
    SelfLoop,
    SourceHasIncoming,
    UnknownNode,
    UnreachableNode,
    VersionAgeError,
)
from .experiments import (
    ExperimentSweep,
    SweepPoint,
    fig5_network,
    fig6_network,
    fig7_network,
    sweep_network_family,
    sweep_study,
)
from .network import CacheNetwork, Link
from .renewal import (
    LimitCheck,
    MartingalePoint,
    verify_backward_recurrence_limit,
    verify_renewal_limits,
    verify_windowed_count_limit,
)
# not exported, but bench/spans.py traces it under this name
from .renewal import verify_martingale_zero_mean  # noqa: F401
from .rng import RngStream, derive_seed
from .simulator import ReplicationResult, SimOutcome, monte_carlo, simulate_once

__all__ = [
    "__version__",
    "AnalyticAge",
    "Beta",
    "CacheNetwork",
    "ChiSquare",
    "ConfigError",
    "CycleThroughSource",
    "Deterministic",
    "Distribution",
    "DuplicateLink",
    "Exponential",
    "ExperimentSweep",
    "InfiniteSecondMoment",
    "InvalidParameter",
    "LimitCheck",
    "Link",
    "MartingalePoint",
    "Moments",
    "NetworkError",
    "NotATree",
    "ParetoI",
    "Rayleigh",
    "ReplicationResult",
    "RngStream",
    "SelfLoop",
    "SimOutcome",
    "SourceHasIncoming",
    "SweepPoint",
    "Uniform",
    "UnknownNode",
    "UnreachableNode",
    "VersionAgeError",
    "derive_seed",
    "expected_version_age",
    "expected_version_age_poisson",
    "fig5_network",
    "fig6_network",
    "fig7_network",
    "from_literal",
    "link_contribution",
    "monte_carlo",
    "simulate_once",
    "sweep_network_family",
    "sweep_study",
    "verify_backward_recurrence_limit",
    "verify_renewal_limits",
    "verify_windowed_count_limit",
]
