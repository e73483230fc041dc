"""Shared domain types and state functionals.

The system state is a triangular occupancy array indexed by
(queue length i, dispatcher estimate j) with i <= j, holding the fraction
of servers in each cell (FluidState).  Everything downstream (simulator
snapshots, fluid integrators, fixed-point solver) speaks this
representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Entries below -NEG_TOL are construction/integration errors; tiny negative
# round-off above it is clamped to zero.
NEG_TOL = 1e-12
# The budget for dense (jmax+1)^2 float states that one call holds at once:
# a fixed point, a stored fluid run, a DES run's snapshots; and for a DES
# run's per-server state.  Larger requests are refused, by check_state_budget
# and check_server_budget, before anything is allocated.
MAX_STATE_BYTES = 256_000_000
# The bytes that a DES run holds per server, counted by check_server_budget:
# the largest traced peak of one run at N = 10^5, horizon 3 and lam 0.7 over
# the ten kinds was 326 B (aujsq-det, with its heap of per-server clocks),
# rounded up.  Each job waiting in a line adds 32 B more, not counted here.
SERVER_BYTES = 400
# The budget for the t_end/dt RK4 steps that one asynchronous fluid run
# may ask for, refused by check_step_budget before the run starts: 4 to 8
# minutes at the 26 to 50 us that a step on an 8 x 8 block took on a
# 2-CPU AMD EPYC host.
MAX_STEPS = 10_000_000


class StateError(ValueError):
    """Raised for states that violate construction invariants."""


class TruncationError(RuntimeError):
    """Raised when probability mass reaches the truncation boundary."""


def check_state_budget(states: int, jmax: int, what: str,
                       error: type[Exception] = StateError) -> None:
    """Raise error when what, holding states dense (jmax + 1)^2 float
    states at once, would need more than MAX_STATE_BYTES."""
    need = states * 8 * (jmax + 1) ** 2
    if need > MAX_STATE_BYTES:
        raise error(
            f"{what}: {states} x (jmax+1)^2 floats at jmax={jmax} need "
            f"{need // 10**6} MB, over the {MAX_STATE_BYTES // 10**6} MB budget"
        )


def check_server_budget(servers: int, what: str,
                        error: type[Exception] = StateError) -> None:
    """Raise error when what, a simulation of servers servers, would need
    more than MAX_STATE_BYTES at SERVER_BYTES a server."""
    need = servers * SERVER_BYTES
    if need > MAX_STATE_BYTES:
        raise error(
            f"{what}: N = {servers} servers at {SERVER_BYTES} B each need "
            f"{need // 10**6} MB, over the {MAX_STATE_BYTES // 10**6} MB budget"
        )


def check_step_budget(steps: float, what: str) -> None:
    """Raise StateError when what asks for more than MAX_STEPS RK4 steps."""
    if not steps <= MAX_STEPS:
        raise StateError(f"{what}: {steps:.3g} RK4 steps, over the {MAX_STEPS:,} step budget")


def check_rates(lam: float, delta: float | None = None) -> None:
    """The model's one rate rule: raise StateError unless 0 < lam < 1 and
    delta, when given, is finite and > 0."""
    if not 0.0 < lam < 1.0:
        raise StateError(f"lam must lie in (0, 1), got {lam}")
    if delta is not None and not 0.0 < delta < math.inf:
        raise StateError(f"delta must be finite and > 0, got {delta}")


@dataclass(frozen=True)
class ModelParams:
    """System-level parameters: n_servers servers, per-server arrival rate
    lam, unit-mean service; delta, if set, must match the policy's."""

    n_servers: int
    lam: float
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise StateError(f"n_servers must be >= 1, got {self.n_servers}")
        check_rates(self.lam, self.delta)


def check_delta(params: ModelParams, delta: float | None, error: type[Exception]) -> None:
    """Raise error when params.delta is set and disagrees with a policy's
    delta; a policy without a delta (None) agrees with any."""
    if delta is not None and params.delta not in (None, delta):
        raise error(
            f"ModelParams.delta = {params.delta} disagrees with the policy's delta = {delta}"
        )


def check_probes(params: ModelParams, d: int | None, error: type[Exception]) -> None:
    """Raise error when a jsq-d policy probes d distinct servers, more than
    params.n_servers; a policy without a d (None) probes none."""
    if d is not None and d > params.n_servers:
        raise error(f"jsq-d:{d} probes d = {d} distinct servers, more than N = {params.n_servers}")


@dataclass(frozen=True)
class FluidState:
    """Fraction-valued occupancy array y[i, j], upper-triangular, total 1.

    A non-zero total is normalized at construction; a zero (or non-finite)
    total is a hard error rather than a silent fix-up.
    """

    y: np.ndarray

    def __post_init__(self) -> None:
        y = np.array(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] != y.shape[1]:
            raise StateError(f"y must be a square array, got shape {y.shape}")
        if np.any(y[np.tril_indices_from(y, k=-1)] != 0.0):
            raise StateError("entries below the diagonal (i > j) must be zero")
        if y.min() < -NEG_TOL:
            raise StateError(f"negative entry {y.min()} below tolerance {-NEG_TOL}")
        y[y < 0.0] = 0.0
        total = y.sum()
        if not math.isfinite(total) or total <= 0.0:
            raise StateError(f"state total must be positive and finite, got {total}")
        y /= total
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @classmethod
    def empty(cls, jmax: int) -> "FluidState":
        """All servers idle with accurate (zero) estimates."""
        return cls.from_entries({(0, 0): 1.0}, jmax)

    @classmethod
    def from_entries(cls, entries: dict[tuple[int, int], float], jmax: int) -> "FluidState":
        """The state with y[i, j] = value for each (i, j) in entries, on a
        (jmax + 1)^2 grid; an index outside 0..jmax is refused."""
        check_state_budget(1, jmax, "FluidState.from_entries")
        y = np.zeros((jmax + 1, jmax + 1))
        for (i, j), val in entries.items():
            if not (0 <= i <= jmax and 0 <= j <= jmax):
                raise StateError(f"entry ({i}, {j}) lies outside the grid 0..{jmax}")
            y[i, j] = val
        return cls(y)


@dataclass(frozen=True)
class DerivedFunctionals:
    """Marginals of an occupancy state: v (queue-length fractions) and
    w (estimate fractions)."""

    v: np.ndarray
    w: np.ndarray


# An estimate level counts as occupied above this mass, so drained crumb
# columns receive no assignment flux; the fluid integrators' step bisection
# at level switches drives the depleting column to within it of zero.
SWITCH_TOL = 1e-10


def min_estimate_level(w) -> int:
    """Smallest level j with w[j] > SWITCH_TOL; w is an array or a list."""
    for j, wj in enumerate(w):
        if wj > SWITCH_TOL:
            return j
    raise StateError("no estimate level carries mass")


def derive(y: np.ndarray) -> DerivedFunctionals:
    """The queue and estimate marginals of an occupancy array."""
    return DerivedFunctionals(v=y.sum(axis=1), w=y.sum(axis=0))


def m_star(lam: float, delta: float) -> int:
    """Stationary minimum estimate level, the least m with lam < 1 -
    (1+delta)^-(m+1): the floor of -log(1-lam)/log(1+delta), moved a level by
    that inequality where the logarithms' rounding puts it one off."""
    check_rates(lam, delta)
    level = -math.log1p(-lam) / math.log1p(delta)
    if not math.isfinite(level):
        raise StateError(f"the stationary level overflows at delta = {delta}")
    m = math.floor(level)
    if not lam < 1.0 - (1.0 + delta) ** -(m + 1):
        return m + 1
    return m - 1 if m > 0 and lam < 1.0 - (1.0 + delta) ** -m else m


def default_jmax(lam: float, delta: float) -> int:
    """Truncation level with headroom above the stationary support."""
    return max(2 * m_star(lam, delta) + 10, 40)


def check_truncation(y: np.ndarray) -> None:
    """Abort when more than 1e-6 of mass reaches the last row or column."""
    if y[-1, :].sum() > 1e-6 or y[:, -1].sum() > 1e-6:
        raise TruncationError(
            "probability mass reached the truncation boundary "
            f"(jmax={y.shape[0] - 1}); rerun with a larger grid"
        )
