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

import itertools
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

    @classmethod
    def from_rows(cls, rows) -> "KinematicState":
        """The state whose a, v and d are the rows of the (3, n) array
        ``rows``: views of one private read-only copy, with the bits the
        constructor's three copies would hold."""
        state = object.__new__(cls)
        for name, x in zip("avd", linalg.frozen(rows)):
            object.__setattr__(state, name, x)
        return state

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
    sparse (see :mod:`mtstep.linalg`).  For central difference stored
    dense the solver also keeps ``G = M^-1 (dt^2 K)``, formed once from
    the same factor, so that :meth:`sweep` makes no solve per step.
    """

    def __init__(self, M, K, params: NewmarkParams, dt: float):
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.K = K
        self.params = params
        self.dt = float(dt)
        self._factor = linalg.cholesky_factor(M + params.beta * dt * dt * K)
        #: G = M^-1 (dt^2 K) of a central-difference block stored dense
        #: (:func:`linalg.dense_inverse_product`); ``None`` otherwise.
        self.G = None
        if params == CENTRAL_DIFFERENCE:
            self.G = linalg.dense_inverse_product(self._factor, K, self.dt * self.dt)

    def solve(self, b):
        """(M + beta dt^2 K)^-1 b, in a new array, for a vector or a matrix
        of stacked columns ``b``: one call of the factor."""
        return self._factor.solve(b)

    def solve_rows(self, ra, rv, rd):
        """Solve the lower-triangular-in-structure step equations.

        Accepts vector or matrix (stacked columns) right-hand sides and
        returns the (a, v, d) solution with matching shape.
        """
        a = self._factor.solve(ra - self.K @ rd)
        d = rd + self.params.beta * self.dt * self.dt * a
        v = rv + self.params.gamma * self.dt * a
        return a, v, d

    def sweep(self, a, v, d, A, V, D, solved: bool = False) -> None:
        """Advance ``len(A)`` steps from the state (a, v, d), in place.

        On entry ``A[j]`` holds the acceleration-row load of step j + 1
        (with ``solved``, on a block where :attr:`G` is set, M^-1 times
        that load); on return ``A``, ``V`` and ``D`` hold the state after
        each step.  States are vectors, or matrices of stacked columns;
        stacked columns on a block where :attr:`G` is set must come with
        ``solved`` loads.  The inputs ``a``, ``v``, ``d`` are only read.

        ``V`` and ``D`` are arrays of ``len(A)`` rows, or of fewer: step
        j then writes row (j - len(A)) mod len(V), so the last rows hold
        the last steps, in order.  The acceleration-form propagators keep
        two such alternating rows each, and a response map's build one
        velocity row.  Each step reads the rows of the
        step before, so every scheme but central difference needs two
        rows when there are two or more steps; central difference needs
        one.

        Central difference (beta = 0, gamma = 1/2, the sub-stepped
        subdomains of the paper) runs in Henrici's summed form.  It
        carries the displacement increment p = d_(j+1) - d_j,

            p_(1/2) = dt (v + dt/2 a)
            d_(j+1) = d_j + p_(j+1/2),      solve for a_(j+1)
            p_(j+3/2) = p_(j+1/2) + dt^2 a_(j+1)

        in ``V`` during the steps, and forms every velocity afterwards,
        in whole-history passes over ``V``,

            v_(j+1) = p_(j+1/2) / dt + dt/2 a_(j+1).

        That is the same scheme in exact arithmetic.  Its effective
        matrix is M alone, so a step's acceleration is
        M^-1 f - M^-1 K d, and how a step forms it depends on the
        block's storage:

        * Dense (fewer than ``linalg.SPARSE_MIN_DOFS`` rows, where
          :attr:`G` is set): every load row is solved before the first
          step, then scaled by dt^2 in one pass.  For vector states the
          sweep solves them in one call of the factor (the rows of ``A``
          are the Fortran columns of ``A.T``).  Stacked columns would
          take one call per row, so the sweep takes them only solved: a
          caller whose loads are a few fixed columns, constant or scaled
          per row, solves those columns once (:meth:`solve`), writes the
          solved rows into ``A`` and passes ``solved=True``, as the
          response maps and propagators of :mod:`mtstep.coupling` do, so
          their builds call the factor once, whatever the number of
          steps.  A step then makes 3 numpy calls and one product with
          the n x n G, and no solve:

              D[j] = d + p
              A[j] = dt^2 M^-1 f_(j+1) - G D[j]    (dt^2 a_(j+1)),
                                                    G = M^-1 (dt^2 K)
              p += A[j]

          and ``A`` is divided by dt^2 in one pass after the steps.  The
          product with G costs n^2 flops, less than a K product and two
          triangular solves at these sizes.
        * CSR: each step reduces its load row by the K product and
          solves it in place, 6 numpy calls, with the bits of
          :meth:`solve_rows` fed rv = p / dt and rd = d + p.  Solving
          the loads first would cost a band solve per row on top of the
          one each step still needs for K d (measured on wave2d's
          836-DOF block, ten steps: 350 to 560 us per sweep), and a
          dense G there is an n x n array where K and the band factor
          keep a few entries per row (5.6 MB, and 1.5-2.2 ms per sweep).

        Every other scheme forms the predictor rows of the paper's R,

            rv = (1 - gamma) dt a + v
            rd = (1/2 - beta) dt^2 a + dt v + d

        and then does what :meth:`solve_rows` does, with the same
        arithmetic in the same order, so a swept history equals, bit for
        bit, one built step by step from the same rows.

        On a subdomain of a few DOFs the fixed cost of each numpy call
        outweighs its arithmetic, so the loops make few and cheap calls:
        3 and a G product per dense central-difference step, 6 per CSR
        one, plus three for the velocity pass of the whole sweep (and
        the pre-solve, its scaling and the division by dt^2 on dense
        blocks), and 13 per implicit step.

        * The coefficients are 0-d arrays.  A 0-d array times an array
          costs what the cheaper of a Python float and a full-shape
          array costs, at every size (microseconds per
          ``np.multiply(c, a, out)``, numpy 2.4):

          ============  ==========  ============  =========
          state shape   full-shape  Python float  0-d array
          ============  ==========  ============  =========
          (6,)          0.386       0.595         0.391
          (836,)        0.99        1.49          1.07
          (3168,)       3.16        1.98          1.92
          (3168, 44)    164.8       62.7          62.1
          ============  ==========  ============  =========

        * Scratch arrays of the state's shape, allocated once per sweep:
          ``t`` (the p past the last step, and dt^2 a on CSR blocks) in
          the summed form, ``rd`` and ``ga`` in the R form, where the
          velocity predictor is formed in ``V[j]`` and ``dt v`` in
          ``D[j]``: both rows are overwritten later in the same step.
          The summed form's velocity pass allocates one array of ``V``'s
          shape.  Outputs are passed by position, which is cheaper than
          ``out=``.  Only ``K.dot`` and ``G.dot`` return a fresh array
          (``np.dot`` with an output is slower), and each is bound once,
          which skips the ``@`` operator dispatch and calls the same
          kernel.
        * Load rows are solved in place
          (:attr:`linalg.Factor.solve_in_place`): before the dense summed
          form's steps (unless the caller solved them), one per step
          after its reduction otherwise.
        * ``d = rd + beta dt^2 a`` is formed only when beta != 0.  For an
          explicit scheme (beta = 0) ``rd + 0 a`` is ``rd`` bit for bit,
          with one IEEE exception: a displacement of -0.0 stays -0.0
          where the sum gives +0.0 (and a non-finite ``a`` no longer
          reaches ``d`` through ``0 a``; it still reaches ``v`` and the
          next step).  Neither arises from the finite, +0.0 initial
          states the scenario builders make.
        """
        if solved and self.G is None:
            raise ValueError("only a dense central-difference sweep takes solved loads")
        if A.ndim > 2 and self.G is not None and not solved:
            raise ValueError("a dense central-difference sweep takes stacked columns solved")
        dt, n = self.dt, len(A)
        beta, gamma = self.params.beta, self.params.gamma
        K_dot, solve = self.K.dot, self._factor.solve_in_place
        multiply, add, subtract = np.multiply, np.add, np.subtract
        if self.params == CENTRAL_DIFFERENCE:
            c_t, c_g, c_tt = map(np.array, (dt, gamma * dt, dt * dt))
            t = np.empty(a.shape)
            P = _rows(V, n)
            p = P[0]
            multiply(c_g, a, t)
            add(v, t, p)
            multiply(c_t, p, p)
            rows = zip(A, _rows(D, n), itertools.chain(P[1:], (t,)))
            if self.G is None:
                for Aj, Dj, p_next in rows:
                    d = add(d, p, Dj)
                    subtract(Aj, K_dot(d), Aj)
                    solve(Aj)
                    multiply(c_tt, Aj, t)
                    p = add(p, t, p_next)
            else:
                if not solved:  # every load row at once: Fortran columns
                    solve(A.T)
                multiply(c_tt, A, A)
                G_dot = self.G.dot
                for Aj, Dj, p_next in rows:
                    d = add(d, p, Dj)
                    subtract(Aj, G_dot(d), Aj)
                    p = add(p, Aj, p_next)
                np.divide(A, c_tt, A)
            ga = multiply(c_g, A[n - len(V):])
            np.divide(V, c_t, V)
            add(V, ga, V)
            return
        c_v, c_d, c_t, c_a, c_g = map(
            np.array, ((1.0 - gamma) * dt, (0.5 - beta) * dt * dt, dt, beta * dt * dt, gamma * dt)
        )
        rd, ga = np.empty(a.shape), np.empty(a.shape)
        for Aj, Vj, Dj in zip(A, _rows(V, n), _rows(D, n)):
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


def _rows(X, n: int):
    """The rows that steps 0..n-1 of a sweep write: ``X`` itself when it
    has n rows, else X[(j - n) mod len(X)] for step j, one view per row
    of ``X``."""
    if len(X) == n:
        return X
    views = list(X)
    return [views[(j - n) % len(X)] for j in range(n)]


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
