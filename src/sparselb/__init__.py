"""Load balancing with occasional queue updates: finite-N event simulation,
fluid-limit integration, stationary fixed points, and exact small-N chains
that cross-validate each other."""

from .model import (
    DerivedFunctionals,
    FluidState,
    ModelParams,
    default_jmax,
    derive,
)
from .policies import PolicyKind, PolicySpec
from .des import MetricsRecord, SimConfig, run, run_replications
from .fluid_sync import (
    apply_sync_update,
    check_trajectory_invariants,
    integrate_sync,
    poisson_ab,
    queue_bound,
    rhs_sync,
)
from .fluid_async import driver_of, integrate_async, rhs_async
from .fixed_point import FixedPoint, m_star, m_star_det, q_tilde, solve_nu, y_star
from .ctmc import build_generator, oracle_metrics, queue_marginal, stationary

__all__ = [
    "DerivedFunctionals",
    "FluidState",
    "ModelParams",
    "default_jmax",
    "derive",
    "PolicyKind",
    "PolicySpec",
    "MetricsRecord",
    "SimConfig",
    "run",
    "run_replications",
    "apply_sync_update",
    "check_trajectory_invariants",
    "integrate_sync",
    "poisson_ab",
    "queue_bound",
    "rhs_sync",
    "driver_of",
    "integrate_async",
    "rhs_async",
    "FixedPoint",
    "m_star",
    "m_star_det",
    "q_tilde",
    "solve_nu",
    "y_star",
    "build_generator",
    "oracle_metrics",
    "queue_marginal",
    "stationary",
]
