"""Shared domain types and state functionals.

The system state is a triangular occupancy array indexed by
(queue length i, dispatcher estimate j) with i <= j: integer counts for a
finite system (CountMatrix), fractions for the many-server limit
(FluidState).  Everything downstream (simulator, fluid integrators,
fixed-point solver) speaks this representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Entries below -NEG_TOL are construction/integration errors; tiny negative
# round-off above it is clamped to zero.
NEG_TOL = 1e-12


class StateError(ValueError):
    """Raised for states that violate construction invariants."""


class TruncationError(RuntimeError):
    """Raised when probability mass reaches the truncation boundary."""


@dataclass(frozen=True)
class ModelParams:
    """System-level parameters: n_servers servers, per-server arrival rate
    lam in (0,1), update frequency delta per server, unit-mean service."""

    n_servers: int
    lam: float
    delta: float | None = None
    service_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise StateError(f"n_servers must be >= 1, got {self.n_servers}")
        if not 0.0 < self.lam < 1.0:
            raise StateError(f"lam must lie in (0, 1), got {self.lam}")
        if self.delta is not None and not self.delta > 0.0:
            raise StateError(f"delta must be > 0, got {self.delta}")
        if self.service_rate != 1.0:
            raise StateError("service_rate is fixed at 1 (unit-mean service)")


@dataclass(frozen=True)
class CountMatrix:
    """Exact occupancy counts: counts[(i, j)] servers with queue length i
    and estimate j >= i.  Entries sum to n_servers."""

    counts: dict[tuple[int, int], int]
    n_servers: int

    def __post_init__(self) -> None:
        total = 0
        for (i, j), c in self.counts.items():
            if i < 0 or j < i:
                raise StateError(f"invalid index pair ({i}, {j}): need 0 <= i <= j")
            if c < 0:
                raise StateError(f"negative count at ({i}, {j})")
            total += c
        if total != self.n_servers:
            raise StateError(
                f"counts sum to {total}, expected n_servers={self.n_servers}"
            )
        if self.n_servers < 1:
            raise StateError("n_servers must be >= 1")

    def max_index(self) -> int:
        return max((j for (_, j), c in self.counts.items() if c > 0), default=0)

    def to_array(self, jmax: int | None = None) -> np.ndarray:
        """Dense fraction array counts/N, shape (jmax+1, jmax+1)."""
        jm = self.max_index() if jmax is None else jmax
        y = np.zeros((jm + 1, jm + 1))
        for (i, j), c in self.counts.items():
            if c:
                y[i, j] = c / self.n_servers
        return y


@dataclass(frozen=True)
class FluidState:
    """Fraction-valued occupancy array y[i, j], upper-triangular, total 1.

    A non-zero total is normalized at construction; a zero (or non-finite)
    total is a hard error rather than a silent fix-up.
    """

    y: np.ndarray
    jmax: int = field(default=-1)

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
        object.__setattr__(self, "jmax", y.shape[0] - 1)

    @classmethod
    def empty(cls, jmax: int) -> "FluidState":
        """All servers idle with accurate (zero) estimates."""
        y = np.zeros((jmax + 1, jmax + 1))
        y[0, 0] = 1.0
        return cls(y)

    @classmethod
    def from_entries(
        cls, entries: dict[tuple[int, int], float], jmax: int | None = None
    ) -> "FluidState":
        jm = max(j for _, j in entries) if jmax is None else jmax
        y = np.zeros((jm + 1, jm + 1))
        for (i, j), val in entries.items():
            y[i, j] = val
        return cls(y)


@dataclass(frozen=True)
class DerivedFunctionals:
    """Marginals of an occupancy state: v (queue-length fractions),
    w (estimate fractions), z (queue tail fractions), m (minimum estimate
    present), q_mass (mean queue length)."""

    v: np.ndarray
    w: np.ndarray
    z: np.ndarray
    m: int
    q_mass: float


def queue_fractions(y: np.ndarray) -> np.ndarray:
    """v_i = sum_j y[i, j] for a raw occupancy array."""
    return y.sum(axis=1)


def estimate_fractions(y: np.ndarray) -> np.ndarray:
    """w_j = sum_i y[i, j] for a raw occupancy array."""
    return y.sum(axis=0)


def min_estimate_level(w: np.ndarray, tol: float = 0.0) -> int:
    """Smallest level j with w[j] > tol."""
    idx = np.flatnonzero(w > tol)
    if idx.size == 0:
        raise StateError("no estimate level carries mass")
    return int(idx[0])


def derive(state: FluidState | CountMatrix | np.ndarray) -> DerivedFunctionals:
    """Compute v, w, z, m and total queue mass for a state.

    CountMatrix inputs are scaled to fractions (counts / n_servers).
    """
    if isinstance(state, CountMatrix):
        y = state.to_array()
    elif isinstance(state, FluidState):
        y = state.y
    else:
        y = np.asarray(state, dtype=float)
    v = queue_fractions(y)
    w = estimate_fractions(y)
    # z_k = sum_{i >= k} v_i; reversed cumulative sum keeps z_0 = total.
    z = np.cumsum(v[::-1])[::-1]
    m = min_estimate_level(w)
    q_mass = float(np.dot(np.arange(len(v)), v))
    return DerivedFunctionals(v=v, w=w, z=z, m=m, q_mass=float(q_mass))


def queue_mass_split(d: DerivedFunctionals, level: int) -> tuple[float, float]:
    """Split the queue mass at a level K: (sum_i min(i,K) v_i,
    sum_{i>K} (i-K) v_i).  The two parts add up to the total mass."""
    if level < 0:
        raise StateError(f"level must be >= 0, got {level}")
    idx = np.arange(len(d.v))
    q_leq = float(np.dot(np.minimum(idx, level), d.v))
    above = idx > level
    q_gt = float(np.dot(idx[above] - level, d.v[above]))
    return q_leq, q_gt


def default_jmax(lam: float, delta: float) -> int:
    """Truncation level with headroom above the stationary support."""
    m = math.floor(-math.log1p(-lam) / math.log1p(delta))
    return max(2 * math.ceil(m) + 10, 40)


def check_truncation(y: np.ndarray, tol: float = 1e-6) -> None:
    """Abort when mass reaches the last row or column of the grid."""
    if y[-1, :].sum() > tol or y[:, -1].sum() > tol:
        raise TruncationError(
            "probability mass reached the truncation boundary "
            f"(jmax={y.shape[0] - 1}); rerun with a larger grid"
        )
