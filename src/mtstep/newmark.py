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
    """Displacement / velocity / acceleration at one time level, as read-only copies."""

    d: np.ndarray
    v: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        d, v, a = (linalg.frozen(np.atleast_1d(x)) for x in (self.d, self.v, self.a))
        if not (d.shape == v.shape == a.shape):
            raise ValueError(
                f"d/v/a shapes differ: {d.shape}, {v.shape}, {a.shape}"
            )
        for name, x in zip("dva", (d, v, a)):
            object.__setattr__(self, name, x)

    @property
    def size(self) -> int:
        return self.d.shape[0]


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

    def sweep(self, a, v, d, A, V, D) -> None:
        """Advance ``len(A)`` steps from the state (a, v, d), in place.

        On entry ``A[j]`` holds the acceleration-row load of step j + 1;
        on return ``A``, ``V`` and ``D`` hold the state after each step.
        States are vectors, or matrices of stacked columns.  Each step
        forms the predictor rows

            rv = (1 - gamma) dt a + v
            rd = (1/2 - beta) dt^2 a + dt v + d

        and then does what :meth:`solve_rows` does, with the same
        arithmetic in the same order, so a swept history equals one built
        step by step, bit for bit.  The inputs ``a``, ``v``, ``d`` are
        only read.

        On a subdomain of a few DOFs the fixed cost of each numpy call
        outweighs its arithmetic, so the one loop, for dense and CSR
        operators alike, makes few and cheap calls without changing a
        single operand: 10 per explicit sub-step and 12 per implicit one
        when gamma = 1/2, one more each otherwise.

        * The five coefficients are 0-d arrays.  A 0-d array times an
          array costs what the cheaper of a Python float and a
          full-shape array costs, at every size (microseconds per
          ``np.multiply(c, a, out)``, numpy 2.4):

          ============  ==========  ============  =========
          state shape   full-shape  Python float  0-d array
          ============  ==========  ============  =========
          (6,)          0.386       0.595         0.391
          (836,)        0.99        1.49          1.07
          (3168,)       3.16        1.98          1.92
          (3168, 44)    164.8       62.7          62.1
          ============  ==========  ============  =========

        * Two scratch arrays of the state's shape, ``rd`` and ``ga``,
          allocated once per sweep.  The velocity predictor is formed in
          ``V[j]`` and ``dt v`` in ``D[j]``: both rows are overwritten
          later in the same sub-step, so no other buffer is needed.  So
          ``V[j]`` and ``D[j]`` must not share memory with the state
          they advance from (``v`` and ``d`` for j = 0, ``V[j - 1]`` and
          ``D[j - 1]`` after); two alternating rows each are enough.
          Outputs are passed by position, which is cheaper than
          ``out=``.  Only ``K.dot`` returns a fresh array (``np.dot``
          with an output is slower), and it is bound once, which skips
          the ``@`` operator dispatch and calls the same kernel.
        * The load row ``A[j]`` is reduced and then solved in place
          (:attr:`linalg.Factor.solve_in_place`).
        * When (1 - gamma) dt equals gamma dt, a step's gamma dt a is the
          next step's (1 - gamma) dt a and is formed once.
        * ``d = rd + beta dt^2 a`` is formed only when beta != 0.  For an
          explicit scheme (beta = 0, the sub-stepped subdomains of the
          paper) ``rd + 0 a`` is ``rd`` bit for bit, with one IEEE
          exception: a displacement of -0.0 stays -0.0 where the sum
          gives +0.0 (and a non-finite ``a`` no longer reaches ``d``
          through ``0 a``; it still reaches ``v`` and the next step).
          Neither arises from the finite, +0.0 initial states the
          scenario builders make.
        """
        dt = self.dt
        beta, gamma = self.params.beta, self.params.gamma
        c_v, c_g = (1.0 - gamma) * dt, gamma * dt
        reuse = c_v == c_g  # gamma = 1/2: c_g a of step j is c_v a of step j + 1
        c_v, c_d, c_t, c_a, c_g = map(
            np.array, (c_v, (0.5 - beta) * dt * dt, dt, beta * dt * dt, c_g)
        )
        rd, ga = np.empty(a.shape), np.empty(a.shape)
        K_dot, solve = self.K.dot, self._factor.solve_in_place
        multiply, add, subtract = np.multiply, np.add, np.subtract
        if reuse:
            multiply(c_g, a, ga)
        for Aj, Vj, Dj in zip(A, V, D):
            if reuse:
                add(ga, v, Vj)
            else:
                multiply(c_v, a, Vj)
                add(Vj, v, Vj)
            multiply(c_d, a, rd)
            multiply(c_t, v, Dj)
            add(rd, Dj, rd)
            d = add(rd, d, Dj)
            subtract(Aj, K_dot(d), Aj)
            solve(Aj)
            a = Aj
            if beta:
                multiply(c_a, a, rd)
                add(d, rd, Dj)
            multiply(c_g, a, ga)
            v = add(Vj, ga, Vj)


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
