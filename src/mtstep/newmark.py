"""Single-domain Newmark time integration.

Implements the two-parameter (beta, gamma) family

    d^(n+1) = d^n + dt v^n + dt^2/2 ((1 - 2 beta) a^n + 2 beta a^(n+1))
    v^(n+1) = v^n + dt ((1 - gamma) a^n + gamma a^(n+1))

advanced simultaneously with the equation of motion
``M a^(n+1) + K d^(n+1) = f^(n+1)``.  The scheme is unconditionally
stable when ``2 beta >= gamma >= 1/2``; otherwise the time-step is limited
by the largest generalized eigenfrequency (see
:func:`critical_time_step`).

This module is the building block reused inside each subdomain of the
coupled multi-time-step solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class NewmarkParams:
    """Integrator parameters (beta, gamma).

    gamma >= 1/2 is required for stability of the family; gamma < 1/2 is
    rejected outright rather than warned about, as are non-finite values.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        if not self.gamma >= 0.5:
            raise ValueError(f"gamma must be >= 1/2, got {self.gamma}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        for name in ("beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def unconditionally_stable(self) -> bool:
        return 2.0 * self.beta >= self.gamma


#: Implicit, second-order, energy-conserving member (beta=1/4, gamma=1/2).
AVERAGE_ACCELERATION = NewmarkParams(beta=0.25, gamma=0.5)

#: Explicit-acceleration member (beta=0, gamma=1/2); conditionally stable.
CENTRAL_DIFFERENCE = NewmarkParams(beta=0.0, gamma=0.5)


@dataclass(frozen=True)
class KinematicState:
    """Displacement / velocity / acceleration triplet at one time level."""

    d: np.ndarray
    v: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not (d.shape == v.shape == a.shape):
            raise ValueError(
                f"d/v/a shapes differ: {d.shape}, {v.shape}, {a.shape}"
            )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "a", a)

    @property
    def size(self) -> int:
        return self.d.shape[0]


def newmark_predict(
    state: KinematicState, params: NewmarkParams, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Predictor: the parts of (d^(n+1), v^(n+1)) independent of a^(n+1).

    Returns
    -------
    (d_pred, v_pred)
        ``d_pred = d + dt v + dt^2/2 (1 - 2 beta) a`` and
        ``v_pred = v + dt (1 - gamma) a``.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    d_pred = state.d + dt * state.v + 0.5 * dt * dt * (1.0 - 2.0 * params.beta) * state.a
    v_pred = state.v + dt * (1.0 - params.gamma) * state.a
    return d_pred, v_pred


class EffectiveSolver:
    """Cached factorization of the effective matrix ``M + beta dt^2 K``.

    A Newmark step with right-hand sides (ra, rv, rd) for the acceleration,
    velocity and displacement rows reduces to one SPD solve:

        (M + beta dt^2 K) a = ra - K rd
        d = rd + beta dt^2 a
        v = rv + gamma dt a

    The factorization is computed once per (M, K, params, dt) combination
    and reused for every substep, which is where the per-subdomain solver
    spends essentially all of its time.  ``M`` and ``K`` may be dense or
    sparse (see :mod:`mtstep.linalg`).
    """

    def __init__(self, M, K, params: NewmarkParams, dt: float):
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.M = M
        self.K = K
        self.params = params
        self.dt = float(dt)
        self._factor = linalg.cholesky_factor(M + params.beta * dt * dt * K)

    def solve_rows(self, ra, rv, rd):
        """Solve the lower-triangular-in-structure step equations.

        Accepts vector or matrix (stacked columns) right-hand sides and
        returns the (a, v, d) solution with matching shape.
        """
        a = self._factor.solve(ra - self.K @ rd)
        d = rd + self.params.beta * self.dt * self.dt * a
        v = rv + self.params.gamma * self.dt * a
        return a, v, d

    def step(self, state: KinematicState, f_next: np.ndarray) -> KinematicState:
        """Advance one unconstrained step under end-of-step load ``f_next``."""
        d_pred, v_pred = newmark_predict(state, self.params, self.dt)
        a, v, d = self.solve_rows(np.asarray(f_next, dtype=float), v_pred, d_pred)
        return KinematicState(d=d, v=v, a=a)


def consistent_initial_acceleration(M, K, f0: np.ndarray, d0: np.ndarray) -> np.ndarray:
    """Initial acceleration from the equation of motion: ``M a0 = f(0) - K d0``.

    The standard choice; it makes static equilibrium an exact fixed point
    of the integrator.
    """
    factor = linalg.cholesky_factor(M)
    return factor.solve(np.asarray(f0, float) - K @ np.asarray(d0, float))


def critical_time_step(M, K, params: NewmarkParams) -> float:
    """Largest stable time-step; ``math.inf`` for unconditional stability.

    The step limit keeps ``A = M + dt^2 (beta - gamma/2) K`` positive
    definite:

        dt_crit = 1 / (omega_max * sqrt(gamma/2 - beta))

    with ``omega_max^2`` the largest generalized eigenvalue of
    ``omega^2 M x = K x``, from an exact eigensolve of dense copies of
    ``M`` and ``K``.  When ``2 beta >= gamma`` the scheme is
    unconditionally stable and ``math.inf`` is returned; callers should
    only ever compare against the result, never do arithmetic with it.
    """
    if params.unconditionally_stable:
        return math.inf
    omega_sq = linalg.max_generalized_eigenvalue(K, M)
    if omega_sq <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(omega_sq * (0.5 * params.gamma - params.beta))
