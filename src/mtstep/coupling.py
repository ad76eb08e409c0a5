"""Multi-time-step monolithic coupling of Newmark subdomains.

A decomposed model consists of S subdomains, each with its own mass and
stiffness matrices, Newmark parameters (beta_i, gamma_i) and local
time-step dt_i, glued along interfaces by signed Boolean constraint
matrices C_i acting on *velocities*:

    M_i a_i + K_i d_i = f_i + C_i^T lam        (i = 1..S)
    sum_i C_i v_i = 0

The constraint is enforced at system time levels t^n = n * dt, where
dt = eta_i * dt_i with integer eta_i >= 1 ("subcycling" when eta_i > 1).
Within a system step the multiplier is interpolated linearly between
lam^n and lam^(n+1), and every subdomain takes eta_i Newmark substeps.
All substeps of all subdomains plus the increment dlam = lam^(n+1) - lam^n
satisfy one monolithic linear system per system step; no iteration and no
staggering is involved, so no subdomain is given preference.

Writing the stacked per-sublevel unknown X = (a, v, d), the substep
equations are

    L_i X_i^(n + (j+1)/eta_i) - ((j+1)/eta_i) Ct_i^T (lam^(n+1) - lam^n)
        = P_i^(n + (j+1)/eta_i) + Ct_i^T lam^n + R_i X_i^(n + j/eta_i)

with Ct_i = [C_i | 0 | 0], P_i = (f_i, 0, 0) and, with dt = dt_i,

    L_i = [[ M_i,           0,  K_i ],    R_i = [[ 0,                0,    0 ],
           [-gamma_i dt I,  I,  0   ],           [(1-gamma_i) dt I,  I,    0 ],
           [-beta_i dt^2 I, 0,  I   ]]           [(1/2-beta_i) dt^2 I, dt I, I ]]

The solver eliminates the per-subdomain blocks, which are block lower
bidiagonal, and solves only an N_C x N_C interface Schur complement; the
assembled saddle system is never formed.  ``tests/saddle_oracle.py``
solves it densely as a check.

Each subdomain's sub-levels of one system step are kept as stacked
(eta_i, n_i) arrays (:class:`SubstepHistory`), not as eta_i state
objects.  Loads are data, f_i(t) = g_i(t) f0_i with a fixed vector f0_i
and an optional scalar time function g_i, so a step forms all eta_i + 1
sub-level loads of a subdomain at once (:meth:`Subdomain.loads`): a
read-only broadcast of f0_i when the load is constant, one g_i call per
sub-level otherwise.  A step sweeps every subdomain once with dlam = 0
(:meth:`mtstep.newmark.EffectiveSolver.sweep`, which applies R_i and
solves with L_i), solves the complement for dlam and corrects all
sub-levels of a subdomain from its stacked multiplier propagators
(:meth:`Subdomain.multiplier_propagators`).  The complement and the
propagators do not change from step to step: :class:`CouplingPlan`
factors the complement once per run and each subdomain keeps its
propagators.

The propagators come in two forms, picked by their size.  Up to
``FULL_PROPAGATOR_MAX_BYTES`` a subdomain stores the a, v and d
responses of every sub-level, and one product corrects the whole
history.  Above it, only the a responses are stored (a third of the
memory and of the bytes a step reads); the step takes
dA = Y_a dlam and adds the dV and dD that the Newmark recurrences give
for dA from a zero start (:func:`_add_newmark_response`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NonFiniteState, SingularSaddleSystem
from .newmark import EffectiveSolver, KinematicState, NewmarkParams, critical_time_step

#: Rounding tolerance for the integrality check on eta_i = dt / dt_i.
ETA_ROUND_TOL = 1e-9

#: Compatible-initial-condition tolerance, relative to the velocity scale.
IC_COMPAT_RTOL = 1e-10

#: Largest full propagator array (a, v and d responses of every
#: sub-level, 3 eta n N_C floats) a subdomain stores; above it only the
#: acceleration responses are kept.  Measured per step, in process, with
#: two BLAS threads: the acceleration form's extra passes and per-row sums
#: cost more than the bytes they save on blocks of 0.08-0.38 MB (bar
#: eta = 1000, the plate, wave2d at nx = 30), and less from 2.6 MB on
#: (wave2d at nx = 60 and 90).
FULL_PROPAGATOR_MAX_BYTES = 1 << 20


class SignedBooleanMatrix:
    """Constraint rows with entries in {-1, 0, +1}, at most one per row.

    Row r of C_i selects (with sign) the DOF of subdomain i taking part in
    interface constraint r; a zero row means the constraint does not touch
    this subdomain.

    ``data`` is the dense read-only matrix.  Beside it the non-zero entries
    are kept as ``(row, dof, sign)`` index arrays in row order, and the
    products a system step makes are index operations on them, not
    products against the mostly-zero dense rows:

    * :meth:`product` is ``C x`` as a gather, ``out[rows] = signs x[dofs]``;
    * :meth:`transpose_product` is ``C^T lam`` as a ``np.bincount``;
    * :meth:`row_products` is ``X C^T`` as a column gather.

    For finite operands they give the bits of the dense products, which
    add nothing but exact zeros to the signed entries: ``C x`` and
    ``X C^T`` always, as a row has one entry, and ``C^T lam`` whenever a
    DOF sits in at most two rows, as in every chain glue, because a sum
    of two terms does not depend on their order.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {data.shape}")
        if not np.isin(data, (-1.0, 0.0, 1.0)).all():
            raise ValueError("entries must be in {-1, 0, +1}")
        if data.size and (np.count_nonzero(data, axis=1) > 1).any():
            raise ValueError("each row may have at most one non-zero entry")
        self.data = data
        self.rows, self.dofs = np.nonzero(data)
        self.signs = data[self.rows, self.dofs]
        # Not ``linalg.frozen``: the index arrays keep their integer dtype.
        for part in (self.data, self.rows, self.dofs, self.signs):
            part.setflags(write=False)

    def product(self, x: np.ndarray) -> np.ndarray:
        """``C x`` for a vector, or a matrix of stacked columns, ``x``."""
        out = np.zeros((self.n_constraints, *x.shape[1:]))
        signs = self.signs.reshape(-1, *(1,) * (x.ndim - 1))
        out[self.rows] = signs * x[self.dofs]
        return out

    def transpose_product(self, lam: np.ndarray) -> np.ndarray:
        """``C^T lam`` for a multiplier vector ``lam``."""
        out = np.bincount(self.dofs, self.signs * lam[self.rows], self.shape[1])
        return out.astype(float, copy=False)  # int zeros when C has no entry

    def row_products(self, X: np.ndarray) -> np.ndarray:
        """``X C^T``: the row ``C x`` for every row ``x`` of ``X``."""
        out = np.zeros((len(X), self.n_constraints))
        out[:, self.rows] = self.signs * X[:, self.dofs]
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def n_constraints(self) -> int:
        return self.data.shape[0]

    def __repr__(self):
        return f"SignedBooleanMatrix(shape={self.shape})"


class _Memo(dict):
    """Derived objects that never go stale, each built on first use."""

    def __call__(self, key, build):
        """``build()``, computed on the first call with ``key`` only."""
        if key not in self:
            self[key] = build()
        return self[key]


@dataclass(frozen=True)
class Subdomain:
    """One physics partition: matrices, scheme, local step, load, glue rows.

    The load is data: f_i(t) = g(t) f0, a fixed vector ``f0`` times an
    optional scalar function of time ``g`` (``None`` for a constant load,
    f_i(t) = f0).  :meth:`loads` evaluates it at the sub-levels of a step.
    ``M`` and ``K`` are dense arrays or sparse matrices (stored as CSR);
    either way the subdomain keeps a read-only copy of them and of
    ``f0`` (:func:`linalg.frozen`), so with the frozen fields nothing a
    factor or propagator is derived from can change.  The private
    ``_memo`` therefore keeps those derived objects, themselves
    read-only, for the life of the subdomain without their ever going
    stale.
    """

    M: np.ndarray
    K: np.ndarray
    params: NewmarkParams
    dt_sub: float
    f0: np.ndarray
    C: SignedBooleanMatrix
    g: Optional[Callable[[float], float]] = None
    _memo: _Memo = field(default_factory=_Memo, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("M", "K", "f0"):
            object.__setattr__(self, name, linalg.frozen(getattr(self, name)))
        n = self.M.shape[0]
        if self.M.shape != (n, n) or self.K.shape != (n, n):
            raise DimensionMismatch(
                f"M is {self.M.shape}, K is {self.K.shape}; need matching squares"
            )
        if self.f0.shape != (n,):
            raise DimensionMismatch(f"f0 has shape {self.f0.shape} for {n} DOFs")
        scale_m = abs(self.M).max() or 1.0
        scale_k = abs(self.K).max() or 1.0
        if abs(self.M - self.M.T).max() > 1e-12 * scale_m:
            raise ValueError("M must be symmetric")
        if abs(self.K - self.K.T).max() > 1e-12 * scale_k:
            raise ValueError("K must be symmetric")
        if not self.dt_sub > 0.0:
            raise ValueError(f"dt_sub must be positive, got {self.dt_sub}")
        if self.C.shape[1] != n:
            raise DimensionMismatch(
                f"C has {self.C.shape[1]} columns for {n} DOFs"
            )
        # SPD check on M happens implicitly the first time it is factored.

    @property
    def n_dofs(self) -> int:
        return self.M.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.C.n_constraints

    # -- cached derived objects ------------------------------------------

    def solver(self) -> EffectiveSolver:
        """Cached factorization of M + beta dt_sub^2 K."""
        return self._memo(
            "solver", lambda: EffectiveSolver(self.M, self.K, self.params, self.dt_sub)
        )

    def critical_dt(self) -> float:
        return self._memo(
            "critical_dt", lambda: critical_time_step(self.M, self.K, self.params)
        )

    def loads(self, t0: float, steps: int = 0, dt: Optional[float] = None) -> np.ndarray:
        """The loads f_i(t0 + j dt) for j = 0..steps, shape (steps + 1, n).

        ``dt`` defaults to ``dt_sub``, so ``loads(t_n, eta)`` are the
        loads at the sub-levels of the system step from t_n, and
        ``loads(t)[0]`` is the load at t.  A constant load (``g`` is
        ``None``) is ``f0`` broadcast to that shape, read-only, with no
        call and no copy.  Otherwise row j is ``g(t_j) f0``, with ``g``
        called once per time ``t_j = t0 + j dt``.
        """
        if self.g is None:
            return np.broadcast_to(self.f0, (steps + 1, self.n_dofs))
        dt = self.dt_sub if dt is None else dt
        scales = np.array([self.g(t0 + j * dt) for j in range(steps + 1)], dtype=float)
        return scales[:, None] * self.f0

    def multiplier_propagators(self, eta: int) -> "MultiplierPropagators":
        """Per-sublevel response of this subdomain to a unit dlam.

        The response at sublevel j = 1..eta is the state the homogeneous
        recurrence reaches with interface loading (j/eta) C^T dlam and
        zero initial state.  While the full responses take at most
        ``FULL_PROPAGATOR_MAX_BYTES``, ``Y`` has shape (3, eta, n_dofs,
        N_C) and entry [k, j - 1] is the acceleration (k = 0), velocity
        (1) or displacement (2).  Above that, ``Y`` holds only the
        accelerations, shape (eta, n_dofs, N_C): the velocities and
        displacements follow from them through the Newmark recurrences.
        ``v_end`` is the velocity response at j = eta in both forms.
        One sweep computes either; in the acceleration form it writes
        the velocities and displacements into two alternating rows, so
        the full array is never built.  Depends only on (M, K, params,
        dt_sub, C, eta), so it is computed once and reused for every
        system step; both arrays are read-only.
        """
        return self._memo(("propagators", eta), lambda: self._propagators(eta))

    def _propagators(self, eta: int) -> "MultiplierPropagators":
        n, nc = self.n_dofs, self.n_constraints
        full = 3 * eta * n * nc * 8 <= FULL_PROPAGATOR_MAX_BYTES
        Y = np.empty((3, eta, n, nc) if full else (eta, n, nc))
        A = Y[0] if full else Y
        A.fill(0.0)
        ramp = (np.arange(1, eta + 1) / eta)[:, None]
        A[:, self.C.dofs, self.C.rows] = ramp * self.C.signs  # the loads (j/eta) C^T
        if full:
            V, D = Y[1], Y[2]
        else:  # two alternating rows each: a sub-step reads only the one before
            V_rows, D_rows = np.empty((2, 2, n, nc))
            V = [V_rows[j % 2] for j in range(eta)]
            D = [D_rows[j % 2] for j in range(eta)]
        zero = np.zeros((n, nc))
        self.solver().sweep(zero, zero, zero, A, V, D)
        Y.setflags(write=False)
        return MultiplierPropagators(Y, linalg.frozen(V[-1]))


class MultiplierPropagators(NamedTuple):
    """A subdomain's stacked response to a unit dlam, in one of two forms.

    ``Y`` is (3, eta, n, N_C) in the full form and (eta, n, N_C), the
    accelerations only, in the acceleration form; ``v_end`` (n, N_C) is
    the velocity response at the last sub-level, the subdomain's term of
    the interface complement.  See :meth:`Subdomain.multiplier_propagators`.
    """

    Y: np.ndarray
    v_end: np.ndarray

    @property
    def full(self) -> bool:
        return self.Y.ndim == 4


class CouplingPlan:
    """What a coupled model derives once from (subdomains, dt_system).

    Validates the pair (matching constraint counts, integer sub-step
    ratios eta_i, every sub-step below its critical step) and holds the
    ratios.  On first use it factors the N_C x N_C interface Schur
    complement

        S = sum_i C_i Y_i^v

    with Y_i^v the end-of-step velocity response of subdomain i to a unit
    dlam (:meth:`Subdomain.multiplier_propagators`).  S depends on
    nothing that changes from step to step, so one pivoted LU serves the
    whole run.  :attr:`memo` keeps other run-constant objects, such as
    the backward-Euler system matrix.  :meth:`CoupledSystem.apply` hands
    the same plan to every later level.
    """

    def __init__(self, subdomains: tuple[Subdomain, ...], dt_system: float):
        if not subdomains:
            raise ValueError("need at least one subdomain")
        if not 0.0 < dt_system < math.inf:
            raise ValueError(f"dt_system must be positive and finite, got {dt_system}")
        n_c = subdomains[0].n_constraints
        if any(sub.n_constraints != n_c for sub in subdomains):
            raise DimensionMismatch(
                "all subdomains must carry the same number of constraint rows"
            )
        self.subdomains = subdomains
        self.dt_system = dt_system
        self.n_constraints = n_c

        # eta_i = dt / dt_i must be a positive integer (up to rounding).
        etas = []
        for sub in subdomains:
            ratio = dt_system / sub.dt_sub
            eta = round(ratio)
            if eta < 1 or abs(ratio - eta) > ETA_ROUND_TOL * max(1.0, ratio):
                raise ValueError(
                    f"dt_system/dt_sub = {ratio!r} is not a positive integer"
                )
            etas.append(eta)
        self.eta = tuple(etas)

        # Theorem-1 hypothesis: every local step below its critical value.
        for k, sub in enumerate(subdomains):
            crit = sub.critical_dt()
            if not sub.dt_sub < crit:
                raise ValueError(
                    f"subdomain {k}: dt_sub = {sub.dt_sub:g} exceeds the "
                    f"critical time-step {crit:g}"
                )
        self.memo = _Memo()

    def describes(self, subdomains: tuple[Subdomain, ...], dt_system: float) -> bool:
        """Whether this plan was built for exactly these subdomains and step."""
        return (
            dt_system == self.dt_system
            and len(subdomains) == len(self.subdomains)
            and all(a is b for a, b in zip(subdomains, self.subdomains))
        )

    def interface_factor(self) -> linalg.Factor:
        """Pivoted LU of the interface Schur complement.

        Raises
        ------
        SingularSaddleSystem
            If the complement is singular — typically redundant
            constraint rows.
        """
        return self.memo("interface", self._factor_interface)

    def _factor_interface(self) -> linalg.Factor:
        n_c = self.n_constraints
        schur = np.zeros((n_c, n_c))
        for sub, eta in zip(self.subdomains, self.eta):
            schur += sub.C.data @ sub.multiplier_propagators(eta).v_end
        try:
            return linalg.lu_factor(schur)
        except linalg.SingularMatrix as exc:
            raise SingularSaddleSystem(
                f"interface Schur complement is singular: {exc}"
            ) from exc


@dataclass(frozen=True)
class SubstepHistory:
    """One subdomain's sub-levels over one system step, stacked by level.

    ``a``, ``v`` and ``d`` have shape (eta, n): row j - 1 is the state at
    sub-level j = 1..eta, so the last row is the state at the new system
    level.  ``f`` has shape (eta + 1, n): the loads at sub-levels 0..eta,
    as :meth:`Subdomain.loads` gives them (read-only for a constant
    load).
    """

    a: np.ndarray
    v: np.ndarray
    d: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class SystemStepResult:
    """Sub-level histories and the new multiplier from one system step.

    ``histories[i]`` holds the eta_i sub-levels of subdomain i as stacked
    arrays (:class:`SubstepHistory`); only the last level becomes a
    :class:`KinematicState`, when :meth:`CoupledSystem.apply` commits the
    step.
    """

    histories: tuple[SubstepHistory, ...]
    lambda_next: np.ndarray


@dataclass(frozen=True)
class CoupledSystem:
    """Immutable snapshot of the coupled model at one system time level.

    ``lambda_current`` is a read-only copy, as are a state's arrays.
    ``plan`` is built from the subdomains and ``dt_system`` when not
    given (or given for other ones); :meth:`apply` passes it on, so the
    validation and the factors it holds are made once per run.
    """

    subdomains: tuple[Subdomain, ...]
    dt_system: float
    states: tuple[KinematicState, ...]
    lambda_current: np.ndarray
    t_current: float = 0.0
    plan: Optional[CouplingPlan] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        subs = tuple(self.subdomains)
        states = tuple(self.states)
        object.__setattr__(self, "subdomains", subs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "lambda_current", linalg.frozen(self.lambda_current))
        if len(states) != len(subs):
            raise DimensionMismatch("one state per subdomain required")
        if self.plan is None or not self.plan.describes(subs, self.dt_system):
            object.__setattr__(self, "plan", CouplingPlan(subs, self.dt_system))

        n_c = self.n_constraints
        if self.lambda_current.shape != (n_c,):
            raise DimensionMismatch(
                f"lambda has shape {self.lambda_current.shape}, expected ({n_c},)"
            )
        for sub, st in zip(subs, states):
            if st.size != sub.n_dofs:
                raise DimensionMismatch("state size does not match subdomain DOFs")

        # Compatible initial conditions: interface velocities already match.
        residual = self.velocity_residual()
        v_scale = max((np.abs(st.v).max(initial=0.0) for st in states), default=0.0)
        if np.abs(residual).max(initial=0.0) > IC_COMPAT_RTOL * max(v_scale, 1.0):
            raise ValueError(
                "incompatible initial conditions: sum_i C_i v_i != 0"
            )

    # -- derived quantities ----------------------------------------------

    @property
    def eta(self) -> tuple[int, ...]:
        """Sub-step ratios eta_i = dt_system / dt_i."""
        return self.plan.eta

    @property
    def n_constraints(self) -> int:
        return self.plan.n_constraints

    def velocity_residual(self) -> np.ndarray:
        """sum_i C_i v_i at the current system level."""
        out = np.zeros(self.n_constraints)
        for sub, st in zip(self.subdomains, self.states):
            out += sub.C.product(st.v)
        return out

    def apply(self, result: SystemStepResult) -> "CoupledSystem":
        """Commit a step result, returning the system at the next level."""
        # Each state copies its rows: a committed level does not keep the
        # step's history alive.
        new_states = tuple(
            KinematicState(d=hist.d[-1], v=hist.v[-1], a=hist.a[-1])
            for hist in result.histories
        )
        return replace(
            self,
            states=new_states,
            lambda_current=result.lambda_next,
            t_current=self.t_current + self.dt_system,
        )


def initialize_coupled_system(
    subdomains: Sequence[Subdomain],
    dt_system: float,
    d0: Sequence[np.ndarray],
    v0: Sequence[np.ndarray],
) -> CoupledSystem:
    """Build a CoupledSystem at t = 0 with consistent initial accelerations.

    Initial accelerations come from the equations of motion at t = 0, and
    the initial multiplier is chosen so they also satisfy the
    differentiated constraint sum_i C_i a_i = 0, by solving the interface
    Schur complement

        (sum_i C_i M_i^{-1} C_i^T) lam0 = -sum_i C_i M_i^{-1} (f_i(0) - K_i d_i)
    """
    subs = tuple(subdomains)
    n_c = subs[0].n_constraints
    d0 = [np.atleast_1d(np.asarray(x, dtype=float)) for x in d0]
    v0 = [np.atleast_1d(np.asarray(x, dtype=float)) for x in v0]

    m_factors = [linalg.cholesky_factor(sub.M) for sub in subs]
    free_acc = [
        fac.solve(sub.loads(0.0)[0] - sub.K @ d)
        for sub, fac, d in zip(subs, m_factors, d0)
    ]

    lam0 = np.zeros(n_c)
    if n_c > 0:
        schur = np.zeros((n_c, n_c))
        rhs = np.zeros(n_c)
        for sub, fac, acc in zip(subs, m_factors, free_acc):
            Ct = sub.C.data.T
            schur += sub.C.data @ fac.solve(Ct)
            rhs -= sub.C.data @ acc
        try:
            lam0 = linalg.solve_general(schur, rhs)
        except linalg.SingularMatrix as exc:
            raise SingularSaddleSystem(
                f"consistent multiplier init failed: {exc}"
            ) from exc

    states = []
    for sub, fac, acc, d, v in zip(subs, m_factors, free_acc, d0, v0):
        a = acc + fac.solve(sub.C.data.T @ lam0)
        states.append(KinematicState(d=d, v=v, a=a))

    return CoupledSystem(
        subdomains=subs,
        dt_system=dt_system,
        states=tuple(states),
        lambda_current=lam0,
    )


# ---------------------------------------------------------------------------
# System step: interface Schur complement
# ---------------------------------------------------------------------------

def require_finite(result: SystemStepResult) -> None:
    """Raise :class:`NonFiniteState` unless the step's new level is finite.

    Checks the new multiplier and each subdomain's state at the new
    system level.
    """
    arrays = [result.lambda_next]
    for hist in result.histories:
        arrays += (hist.a[-1], hist.v[-1], hist.d[-1])
    if not all(np.isfinite(x).all() for x in arrays):
        raise NonFiniteState("non-finite multiplier or state at the new system level")


def _add_newmark_response(
    H: np.ndarray, dA: np.ndarray, params: NewmarkParams, dt: float
) -> None:
    """Add the sub-level accelerations dA (eta, n) and the velocities and
    displacements they imply from a zero start to the history H, in place.

    The Newmark recurrences

        dV_j = dV_{j-1} + (1 - gamma) dt dA_{j-1} + gamma dt dA_j
        dD_j = dD_{j-1} + (1/2 - beta) dt^2 dA_{j-1} + dt dV_{j-1} + beta dt^2 dA_j

    with dA_0 = dV_0 = dD_0 = 0 sum, with S_j = dA_1 + ... + dA_j, to

        dV_j = dt (S_j - (1 - gamma) dA_j)
        dD_j = dt^2 (S_j / 2 - (1/2 - beta) dA_j) + dt (dV_1 + ... + dV_{j-1})

    so two running sums over the rows and a few whole-array passes give
    them all.  The running sums add whole rows: ``np.cumsum(axis=0)``
    accumulates column by column, which took 5-8 ns per entry on the
    wave2d blocks against about 1.5 us per row here.
    """
    S = dA.copy()  # S_j
    for prev, row in zip(S, S[1:]):
        row += prev
    dV = S - (1.0 - params.gamma) * dA
    dV *= dt
    W = np.zeros_like(dV)  # dV_1 + ... + dV_{j-1}
    for prev, dv, row in zip(W, dV, W[1:]):
        np.add(prev, dv, out=row)
    dD = 0.5 * S - (0.5 - params.beta) * dA
    dD *= dt * dt
    dD += dt * W
    H[0] += dA
    H[1] += dV
    H[2] += dD


def advance_system_step(sys: CoupledSystem) -> SystemStepResult:
    """Advance the whole coupled system over one system time-step.

    Pure function: the input system is untouched; commit the result with
    ``sys.apply(result)``.  Each subdomain is swept once with dlam = 0 on
    preallocated (eta, n) arrays; the N_C x N_C interface complement,
    factored once per run by the system's plan, gives dlam; and one
    product with the stacked multiplier propagators corrects every
    sub-level of a subdomain at once (in the acceleration form, the
    product gives the accelerations and the Newmark recurrences the
    rest).

    Raises
    ------
    SingularSaddleSystem
        If the interface system is singular — typically redundant
        constraint rows.
    NonFiniteState
        If the new multiplier or a state at the new system level is not
        finite.
    """
    lam_n = sys.lambda_current
    n_c = sys.n_constraints
    t_n = sys.t_current

    # Forward-eliminate each subdomain with dlam = 0.  H[0], H[1] and
    # H[2] are the stacked sub-level accelerations, velocities and
    # displacements.
    levels = []
    gap = np.zeros(n_c)
    for sub, eta, st in zip(sys.subdomains, sys.eta, sys.states):
        f = sub.loads(t_n, eta)
        H = np.empty((3, eta, sub.n_dofs))
        H[0] = 0.0 + f[1:]  # R_i's zero acceleration row plus the loads
        H[0] += sub.C.transpose_product(lam_n)
        sub.solver().sweep(st.a, st.v, st.d, *H)
        levels.append((H, f))
        gap += sub.C.product(H[1, -1])

    dlam = sys.plan.interface_factor().solve(-gap) if n_c else np.zeros(0)

    if n_c:
        for sub, eta, (H, _) in zip(sys.subdomains, sys.eta, levels):
            props = sub.multiplier_propagators(eta)
            Y = props.Y
            if not props.full:
                dA = (Y.reshape(-1, n_c) @ dlam).reshape(H[0].shape)
                _add_newmark_response(H, dA, sub.params, sub.dt_sub)
            elif sub.n_dofs > 1:
                # One (3 eta n, N_C) matrix-vector product in place of
                # the 3 eta small ones a stacked matmul makes.
                H += (Y.reshape(-1, n_c) @ dlam).reshape(H.shape)
            else:
                # numpy takes each one-row product as a dot product,
                # which a matrix-vector kernel would round differently.
                H += Y @ dlam

    result = SystemStepResult(
        histories=tuple(SubstepHistory(*H, f=f) for H, f in levels),
        lambda_next=lam_n + dlam,
    )
    require_finite(result)
    return result
