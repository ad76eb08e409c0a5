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

(:meth:`Subdomain.apply_R` applies R_i).  The solver eliminates the
per-subdomain blocks, which are block lower bidiagonal, and solves only
an N_C x N_C interface Schur complement; the assembled saddle system is
never formed.  ``tests/saddle_oracle.py`` solves it densely as a check.
The complement does not change from step to step: :class:`CouplingPlan`
factors it once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse

from . import linalg
from .errors import DimensionMismatch, SingularSaddleSystem
from .newmark import EffectiveSolver, KinematicState, NewmarkParams, critical_time_step

#: Rounding tolerance for the integrality check on eta_i = dt / dt_i.
ETA_ROUND_TOL = 1e-9

#: Compatible-initial-condition tolerance, relative to the velocity scale.
IC_COMPAT_RTOL = 1e-10


class SignedBooleanMatrix:
    """Constraint rows with entries in {-1, 0, +1}, at most one per row.

    Row r of C_i selects (with sign) the DOF of subdomain i taking part in
    interface constraint r; a zero row means the constraint does not touch
    this subdomain.
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
        self.data.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def n_constraints(self) -> int:
        return self.data.shape[0]

    @classmethod
    def zeros(cls, n_constraints: int, n_dofs: int) -> "SignedBooleanMatrix":
        return cls(np.zeros((n_constraints, n_dofs)))

    @classmethod
    def from_entries(
        cls, n_constraints: int, n_dofs: int, entries: Sequence[tuple[int, int, int]]
    ) -> "SignedBooleanMatrix":
        """Build from (row, dof, sign) triplets."""
        data = np.zeros((n_constraints, n_dofs))
        for row, col, sign in entries:
            data[row, col] = sign
        return cls(data)

    def __repr__(self):
        return f"SignedBooleanMatrix(shape={self.shape})"


def _read_only(A):
    """A private copy of a dense or sparse operator that cannot be written."""
    if scipy.sparse.issparse(A):
        A = scipy.sparse.csr_array(A, dtype=float, copy=True)
        A.sum_duplicates()  # canonical: no later operation sorts it in place
        parts = (A.data, A.indices, A.indptr)
    else:
        A = np.array(A, dtype=float)
        parts = (A,)
    for part in parts:
        part.setflags(write=False)
    return A


@dataclass(frozen=True)
class Subdomain:
    """One physics partition: matrices, scheme, local step, load, glue rows.

    ``force`` maps a time to the load vector f_i(t).  ``M`` and ``K`` are
    dense arrays or sparse matrices (stored as CSR); either way the
    subdomain keeps a read-only copy, so with the frozen fields nothing a
    factor or propagator is derived from can change.  The private
    ``_cache`` therefore memoizes those derived objects for the life of
    the subdomain without ever going stale.
    """

    M: np.ndarray
    K: np.ndarray
    params: NewmarkParams
    dt_sub: float
    force: Callable[[float], np.ndarray]
    C: SignedBooleanMatrix
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "M", _read_only(self.M))
        object.__setattr__(self, "K", _read_only(self.K))
        n = self.M.shape[0]
        if self.M.shape != (n, n) or self.K.shape != (n, n):
            raise DimensionMismatch(
                f"M is {self.M.shape}, K is {self.K.shape}; need matching squares"
            )
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

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def solver(self) -> EffectiveSolver:
        """Cached factorization of M + beta dt_sub^2 K."""
        return self._cached(
            "solver", lambda: EffectiveSolver(self.M, self.K, self.params, self.dt_sub)
        )

    def critical_dt(self) -> float:
        return self._cached(
            "critical_dt", lambda: critical_time_step(self.M, self.K, self.params)
        )

    def apply_R(self, a, v, d):
        """Apply the history operator R_i to an (a, v, d) triplet.

        Returns the (ra, rv, rd) rows of R_i X; the acceleration row of
        R_i is identically zero.
        """
        dt = self.dt_sub
        beta, gamma = self.params.beta, self.params.gamma
        ra = np.zeros_like(np.asarray(a, dtype=float))
        rv = (1.0 - gamma) * dt * a + v
        rd = (0.5 - beta) * dt * dt * a + dt * v + d
        return ra, rv, rd

    def multiplier_propagators(self, eta: int):
        """Per-sublevel response of this subdomain to a unit dlam.

        Returns a list ``Y[j]`` (j = 1..eta) of (aY, vY, dY) matrices of
        shape (n_dofs, N_C): the state produced at sublevel j by the
        homogeneous recurrence with interface loading (j/eta) C^T dlam
        and zero initial state.  Depends only on (M, K, params, dt_sub,
        C, eta), so it is computed once and reused for every system step.
        """
        return self._cached(("propagators", eta), lambda: self._propagators(eta))

    def _propagators(self, eta: int):
        solver = self.solver()
        n, nc = self.n_dofs, self.n_constraints
        Ct = self.C.data.T  # (n, nc)
        aY = np.zeros((n, nc))
        vY = np.zeros((n, nc))
        dY = np.zeros((n, nc))
        out = []
        for j in range(1, eta + 1):
            ra, rv, rd = self.apply_R(aY, vY, dY)
            ra = ra + (j / eta) * Ct
            aY, vY, dY = solver.solve_rows(ra, rv, rd)
            out.append((aY, vY, dY))
        return out


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
    whole run.  :meth:`cached` keeps other run-constant objects, such as
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
        self._cache: dict = {}

    def describes(self, subdomains: tuple[Subdomain, ...], dt_system: float) -> bool:
        """Whether this plan was built for exactly these subdomains and step."""
        return (
            dt_system == self.dt_system
            and len(subdomains) == len(self.subdomains)
            and all(a is b for a, b in zip(subdomains, self.subdomains))
        )

    def cached(self, key, build):
        """``build()``, computed on the first call with ``key`` only."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def interface_factor(self) -> linalg.Factor:
        """Pivoted LU of the interface Schur complement.

        Raises
        ------
        SingularSaddleSystem
            If the complement is singular — typically redundant
            constraint rows.
        """
        return self.cached("interface", self._factor_interface)

    def _factor_interface(self) -> linalg.Factor:
        n_c = self.n_constraints
        schur = np.zeros((n_c, n_c))
        for sub, eta in zip(self.subdomains, self.eta):
            Y = sub.multiplier_propagators(eta)
            schur += sub.C.data @ Y[-1][1]  # velocity response at j = eta
        try:
            return linalg.lu_factor(schur)
        except linalg.SingularMatrix as exc:
            raise SingularSaddleSystem(
                f"interface Schur complement is singular: {exc}"
            ) from exc


@dataclass(frozen=True)
class SystemStepResult:
    """Full subcycle histories and the new multiplier from one system step.

    ``new_states[i]`` holds the eta_i sub-level states of subdomain i, the
    last entry being the state at the new system level.
    """

    new_states: tuple[tuple[KinematicState, ...], ...]
    lambda_next: np.ndarray


@dataclass(frozen=True)
class CoupledSystem:
    """Immutable snapshot of the coupled model at one system time level.

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
        object.__setattr__(
            self, "lambda_current", np.asarray(self.lambda_current, dtype=float)
        )
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
            out += sub.C.data @ st.v
        return out

    def apply(self, result: SystemStepResult) -> "CoupledSystem":
        """Commit a step result, returning the system at the next level."""
        new_states = tuple(hist[-1] for hist in result.new_states)
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
    t0: float = 0.0,
    lambda_init: str = "consistent",
) -> CoupledSystem:
    """Build a CoupledSystem with consistent initial accelerations.

    Initial accelerations come from the equations of motion at t0.  With
    ``lambda_init="consistent"`` (the default) the initial multiplier is
    chosen so the accelerations also satisfy the differentiated constraint
    sum_i C_i a_i = 0, by solving the interface Schur complement

        (sum_i C_i M_i^{-1} C_i^T) lam0 = -sum_i C_i M_i^{-1} (f_i(t0) - K_i d_i)

    ``lambda_init="zero"`` starts from lam0 = 0 instead (each subdomain's
    a0 then ignores the interface force), which generally leaves a
    non-zero initial acceleration drift.
    """
    subs = tuple(subdomains)
    n_c = subs[0].n_constraints
    d0 = [np.atleast_1d(np.asarray(x, dtype=float)) for x in d0]
    v0 = [np.atleast_1d(np.asarray(x, dtype=float)) for x in v0]

    m_factors = [linalg.cholesky_factor(sub.M) for sub in subs]
    free_acc = [
        fac.solve(sub.force(t0) - sub.K @ d)
        for sub, fac, d in zip(subs, m_factors, d0)
    ]

    if lambda_init == "consistent" and n_c > 0:
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
    elif lambda_init in ("consistent", "zero"):
        lam0 = np.zeros(n_c)
    else:
        raise ValueError(f"unknown lambda_init {lambda_init!r}")

    states = []
    for sub, fac, acc, d, v in zip(subs, m_factors, free_acc, d0, v0):
        a = acc + fac.solve(sub.C.data.T @ lam0)
        states.append(KinematicState(d=d, v=v, a=a))

    return CoupledSystem(
        subdomains=subs,
        dt_system=dt_system,
        states=tuple(states),
        lambda_current=lam0,
        t_current=t0,
    )


# ---------------------------------------------------------------------------
# Multiplier interpolation
# ---------------------------------------------------------------------------

def interpolate_lambda(
    lam_n: np.ndarray, lam_np1: np.ndarray, j: int, eta: int
) -> np.ndarray:
    """Linear multiplier interpolant (1 - j/eta) lam^n + (j/eta) lam^(n+1)."""
    lam_n = np.asarray(lam_n, dtype=float)
    lam_np1 = np.asarray(lam_np1, dtype=float)
    if lam_n.shape != lam_np1.shape:
        raise DimensionMismatch(
            f"multiplier shapes differ: {lam_n.shape} vs {lam_np1.shape}"
        )
    if not 0 <= j <= eta:
        raise ValueError(f"sublevel j={j} outside [0, {eta}]")
    w = j / eta
    return (1.0 - w) * lam_n + w * lam_np1


# ---------------------------------------------------------------------------
# System step: interface Schur complement
# ---------------------------------------------------------------------------

def _sublevel_forces(sub: Subdomain, eta: int, t_n: float) -> list[np.ndarray]:
    """f_i evaluated at the eta sub-levels following t_n."""
    return [np.asarray(sub.force(t_n + j * sub.dt_sub), dtype=float) for j in range(1, eta + 1)]


def advance_system_step(sys: CoupledSystem) -> SystemStepResult:
    """Advance the whole coupled system over one system time-step.

    Pure function: the input system is untouched; commit the result with
    ``sys.apply(result)``.  The block lower bidiagonal subdomain blocks
    are eliminated and only the N_C x N_C interface complement is solved,
    with the factor the system's plan keeps for the whole run.

    Raises
    ------
    SingularSaddleSystem
        If the interface system is singular — typically redundant
        constraint rows.
    """
    lam_n = sys.lambda_current
    n_c = sys.n_constraints

    # Forward-eliminate each subdomain with dlam = 0.
    base_hist: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    gap = np.zeros(n_c)
    for sub, eta, st in zip(sys.subdomains, sys.eta, sys.states):
        solver = sub.solver()
        Ct_lam = sub.C.data.T @ lam_n
        forces = _sublevel_forces(sub, eta, sys.t_current)
        a, v, d = st.a, st.v, st.d
        hist = []
        for j in range(1, eta + 1):
            ra, rv, rd = sub.apply_R(a, v, d)
            ra = ra + forces[j - 1] + Ct_lam
            a, v, d = solver.solve_rows(ra, rv, rd)
            hist.append((a, v, d))
        base_hist.append(hist)
        gap += sub.C.data @ hist[-1][1] if n_c else 0.0

    dlam = sys.plan.interface_factor().solve(-gap) if n_c else np.zeros(0)

    new_states = []
    for sub, eta, hist in zip(sys.subdomains, sys.eta, base_hist):
        if n_c:
            Y = sub.multiplier_propagators(eta)
            sub_states = tuple(
                KinematicState(d=d + dY @ dlam, v=v + vY @ dlam, a=a + aY @ dlam)
                for (a, v, d), (aY, vY, dY) in zip(hist, Y)
            )
        else:
            sub_states = tuple(KinematicState(d=d, v=v, a=a) for a, v, d in hist)
        new_states.append(sub_states)

    return SystemStepResult(new_states=tuple(new_states), lambda_next=lam_n + dlam)
