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
solves it densely as a check.  The consistent start (blocks M_i) and
the backward-Euler baseline (blocks M_i / dt + dt K_i) solve through
:class:`DualSchur`.

A swept subdomain's sub-levels of one system step are kept as stacked
(eta_i, n_i) arrays (:class:`SubstepHistory`), not as eta_i state
objects.  Loads are data, f_i(t) = g_i(t) f0_i with a fixed vector f0_i
and an optional scalar time function g_i, so a step forms all eta_i + 1
sub-level loads of a subdomain at once (:meth:`Subdomain.loads`): a
read-only broadcast of f0_i when the load is constant, one g_i call per
sub-level otherwise.  A :class:`Subdomain` is plain data; one
:class:`CouplingPlan` per run builds everything derived from the
subdomains and dt_system once and holds it.

The plan picks each block's stepper once (:meth:`CouplingPlan.block`).
Its ``start`` steps the block with dlam = 0 and returns what the block
carries into the interface solve and its end velocity, whose C_i
products sum to the gap; its ``finish`` takes dlam and returns the
block's :class:`SubstepHistory`.  Either stepper carries the block's
term C_i Y_i^v of the complement.  :class:`MultiplierPropagators` sweep
the block (:meth:`mtstep.newmark.EffectiveSolver.sweep`, which applies
R_i and solves with L_i) and correct all its sub-levels by one product
with its stacked responses to a unit dlam.  Up to
``FULL_PROPAGATOR_MAX_BYTES`` those hold a, v and d; above it only a,
and the Newmark recurrences give the rest (:func:`_add_newmark_response`).

A dense central-difference block with a constant load is not swept at
every step.  Its history over a system step is linear in
z = (a_n, v_n, d_n, 1, lam_n, dlam), which extends the superposition the
propagators apply to dlam alone (the free/link split of Prakash and
Hjelmstad, IJNME 61, 2004).  So the plan sweeps the block's m = 3n + 1 +
2 N_C unit columns once per run into its :class:`ResponseMap`
(:meth:`Subdomain.response_map`), whose start forms z and whose finish
forms the block's end rows and its rows C d_j as two matrix-vector
products of the map with z.  The map keeps only those rows, up to
``RESPONSE_MAP_MAX_BYTES``, and a step result holds only those rows of
the block.  CSR blocks, implicit schemes, blocks with a time function
and larger maps keep the sweep, which stays the one definition of a
block's history and builds the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

#: Largest response map (:meth:`Subdomain.response_map`) a dense
#: central-difference block is stepped by: the bytes of the rows the map
#: keeps, 8 m (3n + (eta - 1) u).  Above it the block keeps the sweep and
#: its propagators.  Measured per system step, in process, 2 vCPUs,
#: medians of 100 advances in five alternating runs: the bar's 6-DOF block
#: (m = 23) at eta = 1000 (0.37 MB) takes 0.16-0.17 ms mapped against
#: 2.31-2.37 ms swept, and at eta = 3000 (1.1 MB) 0.30-0.33 against
#: 6.6 ms; the plate's 60- and 72-DOF blocks (N_C = 44, m = 269 and 305)
#: at eta = 5 (0.56-0.74 MB each) take 294-312 us mapped against 281-297
#: swept, and at eta = 10 (0.77-1.01 MB) about 8 % less mapped.  The cost
#: of a sub-step against the bytes a map reads per sub-level sets the
#: crossover, so no byte count marks it for every block; this budget maps
#: the bar up to eta = 1416 and leaves the plate at its default eta swept.
RESPONSE_MAP_MAX_BYTES = 1 << 19

#: Largest of the two (eta, n, m) arrays a response map's build sweeps,
#: in bytes; a block whose build would need more keeps the sweep.  The
#: bar's at eta = 1000 are 1.1 MB each.
RESPONSE_MAP_BUILD_MAX_BYTES = 1 << 22

#: Largest memory a system step may ask for: the (3, eta, n) history,
#: the (eta + 1, n) loads and the stacked propagators of every subdomain.
#: The shipped configurations need at most 4.46 MB (wave2d) and wave2d at
#: 4x DOFs with eta = (20, 1) about 59 MB.  A plan above it is refused at
#: build, before its first step fails to allocate.
STEP_MAX_BYTES = 1 << 30


def _propagator_shape(eta: int, n: int, n_c: int) -> tuple[int, ...]:
    """Shape of a subdomain's stacked propagators: the full (3, eta, n,
    N_C) form up to ``FULL_PROPAGATOR_MAX_BYTES``, the accelerations
    (eta, n, N_C) above it."""
    full = (3, eta, n, n_c)
    return full if 8 * math.prod(full) <= FULL_PROPAGATOR_MAX_BYTES else full[1:]


class SignedBooleanMatrix:
    """Constraint rows with entries in {-1, 0, +1}, at most one per row.

    Row r of C_i selects (with sign) the DOF of subdomain i taking part in
    interface constraint r; a zero row means the constraint does not touch
    this subdomain.

    C is stored once, as its non-zero entries: the read-only index arrays
    ``rows`` (strictly increasing, so at most one entry per row), ``dofs``
    and ``signs`` (each -1 or +1), and the ``shape`` (N_C, n).  The
    products a system step makes are index operations on them:

    * :meth:`product` is ``C x`` as a gather, ``out[rows] = signs x[dofs]``;
    * :meth:`transpose_product` is ``C^T lam`` as a ``np.bincount``;
    * :meth:`row_products` is ``X C^T`` as a column gather.

    For finite operands they give the bits of the dense products with
    :meth:`toarray`, which add nothing but exact zeros to the signed
    entries: ``C x`` and ``X C^T`` always, as a row has one entry, and
    ``C^T lam`` whenever a DOF sits in at most two rows, as in every chain
    glue, because a sum of two terms does not depend on their order.
    """

    def __init__(self, rows, dofs, signs, shape: tuple[int, int]):
        self.rows, self.dofs = (np.array(x, dtype=np.intp) for x in (rows, dofs))
        self.signs = np.array(signs, dtype=float)
        n_c, n = self.shape = tuple(map(int, shape))
        if n_c < 0 or n < 0:
            raise ValueError(f"shape must be non-negative, got {self.shape}")
        if self.rows.ndim != 1 or not self.rows.shape == self.dofs.shape == self.signs.shape:
            raise ValueError("rows, dofs and signs must be 1-D arrays of one length")
        if not (np.array_equal(self.rows, rows) and np.array_equal(self.dofs, dofs)):
            raise ValueError("rows and dofs must be whole numbers")
        if not np.isin(self.signs, (-1.0, 1.0)).all():
            raise ValueError("signs must be -1 or +1")
        if (np.diff(self.rows) <= 0).any():
            raise ValueError("rows must increase strictly: one entry per row at most")
        for index, size in ((self.rows, n_c), (self.dofs, n)):
            if ((index < 0) | (index >= size)).any():
                raise ValueError(f"an index lies outside the shape {self.shape}")
        # Not ``linalg.frozen``: the index arrays keep their integer dtype.
        for part in (self.rows, self.dofs, self.signs):
            part.setflags(write=False)

    def toarray(self) -> np.ndarray:
        """The dense (N_C, n) rows: zeros, with ``signs`` at (rows, dofs)."""
        out = np.zeros(self.shape)
        out[self.rows, self.dofs] = self.signs
        return out

    def transpose_columns(self) -> np.ndarray:
        """``C^T`` as (n, N_C) load columns: zeros, with ``signs`` at
        (dofs, rows)."""
        out = np.zeros(self.shape[::-1])
        out[self.dofs, self.rows] = self.signs
        return out

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
    def n_constraints(self) -> int:
        return self.shape[0]

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

    Plain data.  The load is f_i(t) = g(t) f0, a fixed vector ``f0``
    times an optional scalar function of time ``g`` (``None`` for a
    constant load, f_i(t) = f0).  :meth:`loads` evaluates it at the
    sub-levels of a step.  ``M`` and ``K`` are dense arrays or sparse
    matrices (stored as CSR); either way the subdomain keeps a read-only
    copy of them and of ``f0`` (:func:`linalg.frozen`), so with the
    frozen fields nothing a factor or propagator is derived from can
    change.  The subdomain keeps none of those derived objects: the
    :class:`CouplingPlan` of a run builds and holds them.
    """

    M: np.ndarray
    K: np.ndarray
    params: NewmarkParams
    dt_sub: float
    f0: np.ndarray
    C: SignedBooleanMatrix
    g: Optional[Callable[[float], float]] = None

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
        for name in ("M", "K", "f0"):  # a NaN passes the symmetry tests below
            if not linalg.all_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, holds NaN or inf")
        if (self.K.diagonal() < 0.0).any():  # K_ii = e_i^T K e_i < 0 disproves K >= 0
            raise ValueError("K must be positive semidefinite, has a negative diagonal entry")
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

    def multiplier_propagators(self, eta: int, solver: EffectiveSolver) -> "MultiplierPropagators":
        """Per-sublevel response of this subdomain to a unit dlam.

        The response at sublevel j = 1..eta is the state the homogeneous
        recurrence reaches with interface loading (j/eta) C^T dlam and
        zero initial state; ``solver`` is the subdomain's effective
        factor.  While the full responses take at most
        ``FULL_PROPAGATOR_MAX_BYTES``, ``Y`` has shape (3, eta, n_dofs,
        N_C) and entry [k, j - 1] is the acceleration (k = 0), velocity
        (1) or displacement (2).  Above that, ``Y`` holds only the
        accelerations, shape (eta, n_dofs, N_C): the velocities and
        displacements follow from them through the Newmark recurrences.
        ``interface_term`` is C Y^v, the N_C x N_C product of the
        constraint rows with the velocity response at j = eta, in both
        forms.  One sweep computes either from a shared read-only zero
        start; in the acceleration form it writes the velocities and
        displacements into min(eta, 2) alternating rows, so the full
        array is never built, and the end velocities are dropped once
        their product is formed.  Both arrays are read-only.  Each call
        builds them anew; :meth:`CouplingPlan.block` builds them once per
        run for a block it sweeps.
        """
        n, nc = self.n_dofs, self.n_constraints
        Y = np.empty(_propagator_shape(eta, n, nc))
        full = Y.ndim == 4
        A = Y[0] if full else Y
        solved = solver.G is not None
        if solved:  # (j/eta) M^-1 C^T, from one solve
            _ramped(solver.solve(self.C.transpose_columns()), A)
        else:
            A.fill(0.0)
            A[:, self.C.dofs, self.C.rows] = _ramp(eta)[:, None] * self.C.signs  # (j/eta) C^T
        if full:
            V, D = Y[1], Y[2]
        else:  # alternating rows: a sub-step reads only the one before
            V, D = np.empty((2, min(eta, 2), n, nc))
        zero = np.broadcast_to(0.0, (n, nc))
        solver.sweep(zero, zero, zero, A, V, D, solved)
        Y.setflags(write=False)
        # C Y^v by index gather; + 0.0 turns the gather's -1 * 0.0 = -0.0
        # into the +0.0 the dense product C @ V[-1] gives.
        interface_term = self.C.row_products(V[-1].T).T + 0.0
        return MultiplierPropagators(Y, linalg.frozen(interface_term))

    def response_map(self, eta: int, solver: EffectiveSolver) -> "ResponseMap":
        """This subdomain's history over a system step as a linear map of
        z = (a_n, v_n, d_n, 1, lam_n, dlam), for a constant load (``g``
        is ``None``) on a dense central-difference block (``solver.G``
        is set).

        The history is linear in z, so one sweep of its m = 3n + 1 + 2 N_C
        unit columns gives it.  The columns, in the order of z: unit a,
        v and d from a zero load, and, from a zero start, the loads f0
        and C^T e_k on every sub-level and (j/eta) C^T e_k on sub-level j
        (the multiplier propagators).  Those loads are fixed columns,
        constant or scaled per sub-level, so one solve of M^-1 [f0 | C^T]
        gives every solved load row.  The map keeps only what a step's
        readers read: the end rows and the displacements, at every
        sub-level but the last, of the DOFs that C touches
        (:class:`ResponseMap`).  The build sweeps into two (eta, n, m)
        arrays, for the accelerations and displacements of every
        sub-level, that live only as long as the call, and into one
        velocity row.  Each call builds the map anew;
        :meth:`CouplingPlan.block` builds it once per run for a block it
        maps.
        """
        n, nc = self.n_dofs, self.n_constraints
        m = 3 * n + 1 + 2 * nc
        A, V, D = np.empty((eta, n, m)), np.empty((1, n, m)), np.empty((eta, n, m))
        solved = solver.solve(np.column_stack((self.f0, self.C.transpose_columns())))
        A[:, :, :3 * n] = 0.0
        A[:, :, 3 * n:3 * n + 1 + nc] = solved
        _ramped(solved[:, 1:], A[:, :, 3 * n + 1 + nc:])
        # Unit starts: a, v and d are the identity in columns k n..(k + 1) n.
        solver.sweep(*np.eye(3 * n, m).reshape(3, n, m), A, V, D, solved=True)
        dofs = np.unique(self.C.dofs)
        # + 0.0 as in multiplier_propagators: the dense product's +0.0.
        interface_term = self.C.row_products(V[-1, :, m - nc:].T).T + 0.0
        kept = ResponseMap(
            end=np.concatenate((A[-1], V[-1], D[-1])),
            constrained=D[:-1, dofs],  # a new array, as fancy indexing makes
            dofs=dofs,
            gather=np.searchsorted(dofs, self.C.dofs),
            interface_term=interface_term,
        )
        for x in kept:  # each a new array that nothing else holds
            x.setflags(write=False)
        return kept


def _ramp(eta: int) -> np.ndarray:
    """The multiplier ramp j/eta at sub-levels j = 1..eta."""
    return np.arange(1, eta + 1) / eta


def _ramped(W: np.ndarray, out: np.ndarray) -> None:
    """out[j - 1] = (j/eta) W for j = 1..eta = len(out).

    One ``einsum`` pass: a broadcast ``np.multiply`` would allocate
    numpy's 64 KB iteration buffer beside ``out``.
    """
    np.einsum("j,ik->jik", _ramp(len(out)), W, out=out)


class ResponseMap(NamedTuple):
    """A subdomain's history over one system step as a linear map of
    z = (a_n, v_n, d_n, 1, lam_n, dlam), m = 3n + 1 + 2 N_C numbers.

    ``end`` (3n, m) gives the rows a, v and d at the last sub-level;
    ``constrained`` (eta - 1, u, m) the displacements, at sub-levels
    1..eta-1, of the u DOFs ``dofs`` that C touches (increasing), and
    ``gather`` the position in ``dofs`` of each of C's entries.
    ``interface_term`` (N_C, N_C) is C Y^v, as in
    :class:`MultiplierPropagators`.  All are read-only.  See
    :meth:`Subdomain.response_map`.
    """

    end: np.ndarray
    constrained: np.ndarray
    dofs: np.ndarray
    gather: np.ndarray
    interface_term: np.ndarray

    def start(self, sub: Subdomain, solver: EffectiveSolver, state: KinematicState,
              lam_n: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """z with dlam = 0, and the end velocity it gives."""
        z = np.concatenate((state.a, state.v, state.d, (1.0,), lam_n, np.zeros(len(lam_n))))
        return z, self.end[sub.n_dofs:2 * sub.n_dofs] @ z

    def finish(self, sub: Subdomain, z: np.ndarray, f: np.ndarray,
               dlam: np.ndarray) -> "SubstepHistory":
        """The history for ``dlam``, written into ``z``: the (3, n) end
        rows and the (eta, N_C) rows C d_j, read-only, from two
        matrix-vector products, and the loads ``f``.  C d_j at the last
        sub-level is read from the end rows, so the two agree bit for
        bit."""
        z[len(z) - len(dlam):] = dlam
        end = (self.end @ z).reshape(3, -1)
        levels = self.constrained.shape[:2]
        d = np.concatenate((
            (self.constrained.reshape(-1, len(z)) @ z).reshape(levels), end[2, self.dofs][None]
        ))
        out = np.zeros((len(d), sub.n_constraints))
        out[:, sub.C.rows] = sub.C.signs * d[:, self.gather]
        end.setflags(write=False)
        out.setflags(write=False)
        return SubstepHistory(end, out, f)


class MultiplierPropagators(NamedTuple):
    """A subdomain's stacked response to a unit dlam, in one of two forms.

    ``Y`` is (3, eta, n, N_C) in the full form and (eta, n, N_C), the
    accelerations only, in the acceleration form; ``interface_term``
    (N_C, N_C) is C Y^v, the constraint rows times the velocity response
    at the last sub-level: the subdomain's term of the interface
    complement.  See :meth:`Subdomain.multiplier_propagators`.
    """

    Y: np.ndarray
    interface_term: np.ndarray

    def start(self, sub: Subdomain, solver: EffectiveSolver, state: KinematicState,
              lam_n: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The block's stacked (3, eta, n) rows H of a, v and d swept with
        dlam = 0, and its end velocity, a view of H."""
        H = np.empty((3, len(f) - 1, sub.n_dofs))
        H[0] = 0.0 + f[1:]  # R_i's zero acceleration row plus the loads
        H[0] += sub.C.transpose_product(lam_n)
        solver.sweep(state.a, state.v, state.d, *H)
        return H, H[1, -1]

    def finish(self, sub: Subdomain, H: np.ndarray, f: np.ndarray,
               dlam: np.ndarray) -> "SubstepHistory":
        """The history of the rows ``H`` corrected in place by ``dlam``,
        and the loads ``f``."""
        n_c = len(dlam)
        if n_c:
            Y = self.Y
            if Y.ndim == 3:  # the acceleration form
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
        return SubstepHistory.swept(H, f, sub.C)


class CouplingPlan:
    """The one owner of a coupled run: (subdomains, dt_system) and all
    that is derived from them.

    Validates the pair (matching constraint counts, integer sub-step
    ratios eta_i, a step's arrays within ``STEP_MAX_BYTES``, every
    sub-step below its critical step) and holds the subdomains, the
    ratios and the critical steps.  Each subdomain's effective factor
    (:meth:`solver`) and its stepper (:meth:`block`), a response map or
    multiplier propagators, are built at its first start, and the
    N_C x N_C interface Schur complement

        S = sum_i C_i Y_i^v

    is factored (:meth:`interface_factor`) at the first interface solve,
    with Y_i^v the end-of-step velocity response of subdomain i to a unit
    dlam.  Each stepper carries its term C_i Y_i^v, so the plan only adds
    the terms up.
    None of these changes from step to step: :attr:`memo` keeps each,
    and other run-constant objects such as the backward-Euler
    :class:`DualSchur`, for the life of the plan.  :meth:`CoupledSystem.apply`
    hands the same plan to every later level; another plan shares nothing.
    """

    def __init__(self, subdomains: Sequence[Subdomain], dt_system: float):
        subdomains = tuple(subdomains)
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

        # eta_i = dt / dt_i must be a positive integer (up to rounding),
        # and a step's arrays must fit the budget: per subdomain, floats
        # for the (3, eta, n) history, the (eta + 1, n) loads and the
        # propagators.
        etas, floats = [], 0
        for sub in subdomains:
            ratio = dt_system / sub.dt_sub
            eta = round(ratio)
            if eta < 1 or abs(ratio - eta) > ETA_ROUND_TOL * max(1.0, ratio):
                raise ValueError(
                    f"dt_system/dt_sub = {ratio!r} is not a positive integer"
                )
            etas.append(eta)
            floats += (4 * eta + 1) * sub.n_dofs
            floats += math.prod(_propagator_shape(eta, sub.n_dofs, n_c))
        self.eta = tuple(etas)
        if 8 * floats > STEP_MAX_BYTES:
            raise ValueError(
                f"a system step needs {8 * floats / 2**30:.3g} GiB of sub-level "
                f"arrays, more than the {STEP_MAX_BYTES / 2**30:g} GiB allowed"
            )

        # Theorem-1 hypothesis: every local step below its critical value.
        self.critical_dt = ()
        for k, sub in enumerate(subdomains):
            crit = critical_time_step(sub.M, sub.K, sub.params)
            if not sub.dt_sub < crit:
                raise ValueError(
                    f"subdomain {k}: dt_sub = {sub.dt_sub:g} exceeds the "
                    f"critical time-step {crit:g}"
                )
            self.critical_dt += (crit,)
        self.memo = _Memo()

    def solver(self, k: int) -> EffectiveSolver:
        """Factorization of M + beta dt_sub^2 K of subdomain ``k``."""
        sub = self.subdomains[k]
        return self.memo(
            ("solver", k), lambda: EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
        )

    def block(self, k: int) -> "ResponseMap | MultiplierPropagators":
        """The stepper of subdomain ``k`` at its ratio eta_k: its response
        map when it is a dense central-difference block (``solver.G``
        set) with a constant load (``g`` is ``None``) whose map and map
        build fit ``RESPONSE_MAP_MAX_BYTES`` and
        ``RESPONSE_MAP_BUILD_MAX_BYTES``, else its multiplier propagators."""
        return self.memo(("block", k), lambda: self._choose(k))

    def _choose(self, k: int) -> "ResponseMap | MultiplierPropagators":
        sub, eta, solver = self.subdomains[k], self.eta[k], self.solver(k)
        if solver.G is not None and sub.g is None:
            n, n_c = sub.n_dofs, self.n_constraints
            u = len(np.unique(sub.C.dofs))
            m = 3 * n + 1 + 2 * n_c
            if (
                8 * m * (3 * n + (eta - 1) * u) <= RESPONSE_MAP_MAX_BYTES
                and 8 * m * eta * n <= RESPONSE_MAP_BUILD_MAX_BYTES
            ):
                return sub.response_map(eta, solver)
        return sub.multiplier_propagators(eta, solver)

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
        for k in range(len(self.subdomains)):
            schur += self.block(k).interface_term
        try:
            return linalg.lu_factor(schur)
        except linalg.SingularMatrix as exc:
            raise SingularSaddleSystem(
                f"interface Schur complement is singular: {exc}"
            ) from exc


@dataclass(frozen=True)
class SubstepHistory:
    """What one system step forms of one subdomain.

    * ``end``: the (3, n) rows a, v and d at the new system level;
    * ``constraint_rows``: the (eta, N_C) rows C d_j at sub-levels
      j = 1..eta, formed once, when the history is made;
    * ``f``: the (eta + 1, n) loads at sub-levels 0..eta, as
      :meth:`Subdomain.loads` gives them (read-only for a constant load);
    * ``rows``: the stacked (3, eta, n) rows a, v and d of a swept block,
      row j - 1 at sub-level j, or ``None`` for a block stepped by its
      response map, which forms only its end rows and its rows C d_j
      (both read-only).

    :meth:`swept` builds a history from its stacked rows; ``end`` is then
    a view of them.
    """

    end: np.ndarray
    constraint_rows: np.ndarray
    f: np.ndarray
    rows: Optional[np.ndarray] = None

    @classmethod
    def swept(cls, rows: np.ndarray, f: np.ndarray, C: SignedBooleanMatrix) -> "SubstepHistory":
        """The history of the stacked rows (3, eta, n) and loads ``f``."""
        return cls(rows[:, -1], C.row_products(rows[2]), f, rows)


@dataclass(frozen=True)
class SystemStepResult:
    """Sub-level histories and the new multiplier from one system step.

    ``histories[i]`` holds what the step forms of subdomain i
    (:class:`SubstepHistory`); only its end rows become a
    :class:`KinematicState`, when :meth:`CoupledSystem.apply` commits the
    step.
    """

    histories: tuple[SubstepHistory, ...]
    lambda_next: np.ndarray


@dataclass(frozen=True)
class CoupledSystem:
    """Immutable snapshot of the coupled model at one system time level.

    ``plan`` is the run's :class:`CouplingPlan`; the subdomains, the
    system step, the ratios eta_i and the constraint count are read
    through it.  ``lambda_current`` is a read-only copy, as are a
    state's arrays.  :meth:`apply` passes the plan on, so the validation
    and everything the plan derives are made once per run.
    """

    plan: CouplingPlan
    states: tuple[KinematicState, ...]
    lambda_current: np.ndarray
    t_current: float = 0.0

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "lambda_current", linalg.frozen(self.lambda_current))
        if len(states) != len(self.subdomains):
            raise DimensionMismatch("one state per subdomain required")

        n_c = self.n_constraints
        if self.lambda_current.shape != (n_c,):
            raise DimensionMismatch(
                f"lambda has shape {self.lambda_current.shape}, expected ({n_c},)"
            )
        for sub, st in zip(self.subdomains, states):
            if st.size != sub.n_dofs:
                raise DimensionMismatch("state size does not match subdomain DOFs")

        # Compatible velocities: the interface velocities match at every
        # level.  The residual is formed once per level and kept.
        v_residual = np.zeros(n_c)
        for sub, st in zip(self.subdomains, states):
            v_residual += sub.C.product(st.v)
        v_residual.setflags(write=False)
        object.__setattr__(self, "_velocity_residual", v_residual)
        residual = np.abs(v_residual).max(initial=0.0)
        v_scale = max((np.abs(st.v).max(initial=0.0) for st in states), default=0.0)
        tolerance = IC_COMPAT_RTOL * max(v_scale, 1.0)
        if residual > tolerance:
            raise ValueError(
                f"incompatible velocities: max |sum_i C_i v_i| = {residual:.3g} > {tolerance:.3g}"
            )

    # -- derived quantities ----------------------------------------------

    @property
    def subdomains(self) -> tuple[Subdomain, ...]:
        return self.plan.subdomains

    @property
    def dt_system(self) -> float:
        return self.plan.dt_system

    @property
    def eta(self) -> tuple[int, ...]:
        """Sub-step ratios eta_i = dt_system / dt_i."""
        return self.plan.eta

    @property
    def n_constraints(self) -> int:
        return self.plan.n_constraints

    def velocity_residual(self) -> np.ndarray:
        """sum_i C_i v_i at the current system level, read-only: formed
        once, when the level is made."""
        return self._velocity_residual

    def apply(self, result: SystemStepResult) -> "CoupledSystem":
        """Commit a step result, returning the system at the next level."""
        # Each state copies its end rows, once: a committed level does not
        # keep the step's history alive.
        new_states = tuple(KinematicState.from_rows(hist.end) for hist in result.histories)
        return replace(
            self,
            states=new_states,
            lambda_current=result.lambda_next,
            t_current=self.t_current + self.dt_system,
        )


class DualSchur:
    """Dual Schur elimination of SPD blocks A_i glued by constraint rows C_i.

    :meth:`solve` gives the x_i and lam of

        A_i x_i = r_i + C_i^T lam  (i = 1..S),    sum_i C_i x_i = 0

    without forming that saddle system: lam solves the N_C x N_C complement
    (sum_i C_i A_i^{-1} C_i^T) lam = -sum_i C_i A_i^{-1} r_i.  Each A_i,
    dense or CSR, is factored by :func:`linalg.cholesky_factor` when the
    helper is built, beside the dense rows of each C_i that its products
    read; the complement is formed at the first solve, in the pass that
    forms its right-hand side, and factored once by :func:`linalg.lu_factor`.
    """

    def __init__(self, blocks, constraints: Sequence[SignedBooleanMatrix]):
        self.dense = [C.toarray() for C in constraints]
        self.factors = [linalg.cholesky_factor(A) for A in blocks]
        self.complement: Optional[linalg.Factor] = None

    def solve(self, rhs) -> tuple[list[np.ndarray], np.ndarray]:
        """``(x, lam)`` for the r_i in ``rhs``, an iterable read in block
        order; x_i is A_i^{-1} r_i plus A_i^{-1} C_i^T lam.  Raises
        :class:`linalg.SingularMatrix` if the complement is singular."""
        free = [fac.solve(r) for fac, r in zip(self.factors, rhs)]
        n_c = len(self.dense[0])
        lam = np.zeros(n_c)
        if n_c > 0:
            first = self.complement is None
            schur, lam_rhs = np.zeros((n_c, n_c)), np.zeros(n_c)
            for C, fac, x in zip(self.dense, self.factors, free):
                if first:
                    schur += C @ fac.solve(C.T)
                lam_rhs -= C @ x
            if first:
                self.complement = linalg.lu_factor(schur)
            lam = self.complement.solve(lam_rhs)
        pairs = zip(self.dense, self.factors, free)
        return [x + fac.solve(C.T @ lam) for C, fac, x in pairs], lam


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

    (:func:`_consistent_start`).  The mass factors that solve it are
    freed before the plan is built, so they are not alive while its
    critical-step eigensolves run.
    """
    subs = tuple(subdomains)
    states, lam0 = _consistent_start(subs, d0, v0)
    return CoupledSystem(plan=CouplingPlan(subs, dt_system), states=states, lambda_current=lam0)


def _consistent_start(
    subs: tuple[Subdomain, ...],
    d0: Sequence[np.ndarray],
    v0: Sequence[np.ndarray],
) -> tuple[tuple[KinematicState, ...], np.ndarray]:
    """The states at t = 0 and lam0 of :func:`initialize_coupled_system`;
    the mass factors and free accelerations die with the call."""
    d0 = [np.atleast_1d(np.asarray(x, dtype=float)) for x in d0]
    v0 = [np.atleast_1d(np.asarray(x, dtype=float)) for x in v0]
    masses = DualSchur([sub.M for sub in subs], [sub.C for sub in subs])
    try:
        acc, lam0 = masses.solve(sub.loads(0.0)[0] - sub.K @ d for sub, d in zip(subs, d0))
    except linalg.SingularMatrix as exc:
        raise SingularSaddleSystem(f"consistent multiplier init failed: {exc}") from exc
    states = tuple(KinematicState(d=d, v=v, a=a) for a, d, v in zip(acc, d0, v0))
    return states, lam0


# ---------------------------------------------------------------------------
# System step: interface Schur complement
# ---------------------------------------------------------------------------

def require_finite(result: SystemStepResult) -> None:
    """Raise :class:`NonFiniteState` unless the step's new level is finite.

    Checks the new multiplier and each subdomain's state at the new
    system level.
    """
    arrays = [result.lambda_next] + [hist.end for hist in result.histories]
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
    ``sys.apply(result)``.  Every block is started by its stepper
    (:meth:`CouplingPlan.block`) with dlam = 0, and the products of C_i
    with the end velocities sum to the gap.  The N_C x N_C interface
    complement, factored once per run by the system's plan, gives dlam,
    and every stepper then finishes its block with dlam into its
    :class:`SubstepHistory`.

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
    plan = sys.plan

    started = []
    gap = np.zeros(n_c)
    for k, (sub, eta, st) in enumerate(zip(sys.subdomains, sys.eta, sys.states)):
        f = sub.loads(sys.t_current, eta)
        block = plan.block(k)
        carried, v_end = block.start(sub, plan.solver(k), st, lam_n, f)
        gap += sub.C.product(v_end)
        started.append((block, carried, f))

    dlam = plan.interface_factor().solve(-gap) if n_c else np.zeros(0)

    histories = tuple(
        block.finish(sub, carried, f, dlam)
        for sub, (block, carried, f) in zip(sys.subdomains, started)
    )
    result = SystemStepResult(histories=histories, lambda_next=lam_n + dlam)
    require_finite(result)
    return result

