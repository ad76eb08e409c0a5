"""Per-sub-level reference for the stacked system step and its diagnostics.

The library keeps each subdomain's sub-levels of a system step as stacked
(eta, n) arrays, sweeps them in one loop and evaluates the energy split
with one product per subdomain.  This module keeps the straightforward
form of the same algorithm as an independent reference: one
``KinematicState`` per sub-level, a list of per-level multiplier
propagators, and diagnostics that walk the sub-levels one by one.  It
also turns a step result's histories into per-level states for tests
that read individual sub-levels, and starts a system with a zero
multiplier for tests that need a non-zero initial acceleration drift.

For the stability statements it keeps the energy method's functional
(:func:`energy_norm`) and a force-free variant of a scenario that still
moves (:func:`free_vibration_variant`).
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from mtstep import linalg
from mtstep.baselines import merge_system_matrices
from mtstep.coupling import (
    CoupledSystem,
    CouplingPlan,
    MultiplierPropagators,
    ResponseMap,
    Subdomain,
    SystemStepResult,
    initialize_coupled_system,
)
from mtstep.newmark import CENTRAL_DIFFERENCE, EffectiveSolver, KinematicState
from mtstep.problems import Scenario
from saddle_oracle import interpolate_lambda


def substeps(sub: Subdomain, solver: EffectiveSolver, a, v, d, loads, solved=False):
    """The states (a, v, d) after each sub-step from (a, v, d), one per
    load row, with the rows and the arithmetic the sweep uses.

    Central difference (beta = 0, gamma = 1/2) carries the displacement
    increment p = d_(j+1) - d_j through the system step, from
    p = dt (v + gamma dt a) by p += dt^2 a after each sub-step, and
    forms the velocity as p / dt + gamma dt a (the summed form).  On a
    block stored dense it takes dt^2 a as dt^2 M^-1 f - G (d + p), with
    G = M^-1 (dt^2 K) and vector loads solved in one call before the
    first sub-step (with ``solved``, which stacked-column loads need, the
    load rows are M^-1 f already), and a as that over dt^2.  On a CSR
    block it calls ``solver.solve_rows`` with
    rv = p / dt and rd = d + p.  Every other scheme calls ``solve_rows``
    with the rows of the paper's history operator R
    (``saddle_oracle.apply_R``): rv = (1 - gamma) dt a + v and
    rd = (1/2 - beta) dt^2 a + dt v + d.  All are the same step in exact
    arithmetic.
    """
    dt = sub.dt_sub
    beta, gamma = sub.params.beta, sub.params.gamma
    if sub.params != CENTRAL_DIFFERENCE:
        for f in loads:
            rv = (1.0 - gamma) * dt * a + v
            a, v, d = solver.solve_rows(f, rv, (0.5 - beta) * dt * dt * a + dt * v + d)
            yield a, v, d
        return
    p = dt * (v + gamma * dt * a)
    mass = linalg.cholesky_factor(sub.M)
    G = linalg.dense_inverse_product(mass, sub.K, dt * dt)
    if G is None:
        for f in loads:
            a, v, d = solver.solve_rows(f, p / dt, d + p)
            p = p + dt * dt * a
            yield a, v, d
        return
    F = np.array(loads)
    if not solved:
        F = mass.solve(F.T).T
    for f in F:
        d = d + p
        step = dt * dt * f - G @ d  # dt^2 a
        a = step / (dt * dt)
        v = p / dt + gamma * dt * a
        p = p + step
        yield a, v, d


def sublevel_states(result: SystemStepResult) -> tuple[tuple[KinematicState, ...], ...]:
    """Per subdomain, the eta sub-level states of a step, last one at the new level."""
    return tuple(
        tuple(KinematicState(d=d, v=v, a=a) for a, v, d in zip(*h.rows))
        for h in result.histories
    )


def zero_multiplier_system(subdomains, dt_system, d0, v0) -> CoupledSystem:
    """A system at t = 0 with lam0 = 0 and a0 = M^{-1} (f(0) - K d0) per subdomain.

    Unlike ``initialize_coupled_system``, the initial accelerations ignore
    the interface force, so sum_i C_i a_i is generally not zero, and the
    interface complement is never formed (redundant rows pass).
    """
    states = []
    for sub, d, v in zip(subdomains, d0, v0):
        d = np.atleast_1d(np.asarray(d, dtype=float))
        a = linalg.cholesky_factor(sub.M).solve(sub.loads(0.0)[0] - sub.K @ d)
        states.append(KinematicState(d=d, v=v, a=a))
    return CoupledSystem(
        plan=CouplingPlan(subdomains, dt_system),
        states=tuple(states),
        lambda_current=np.zeros(subdomains[0].n_constraints),
    )


def zero_multiplier_start(system: CoupledSystem) -> CoupledSystem:
    """:func:`zero_multiplier_system` on ``system``'s subdomains and initial d, v."""
    return zero_multiplier_system(
        system.subdomains, system.dt_system,
        [st.d for st in system.states], [st.v for st in system.states],
    )


class ReferenceStep(NamedTuple):
    """Per-level states of one system step, as the reference step builds them."""

    new_states: tuple[tuple[KinematicState, ...], ...]
    lambda_next: np.ndarray


def propagators(sub: Subdomain, eta: int) -> list[tuple[np.ndarray, ...]]:
    """``Y[j - 1] = (aY, vY, dY)``: the response at sub-level j to a unit dlam.

    On a dense central-difference block the loads are M^-1 C^T, solved
    once, times j/eta; otherwise (j/eta) C^T.
    """
    solver = EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
    n, nc = sub.n_dofs, sub.n_constraints
    Ct = sub.C.toarray().T
    zero = np.zeros((n, nc))
    solved = solver.G is not None
    if solved:
        Ct = linalg.cholesky_factor(sub.M).solve(Ct)
    # R's zero acceleration row plus the ramp load: 0.0 + x, which turns
    # a -0.0 load into +0.0.
    loads = [0.0 + (j / eta) * Ct for j in range(1, eta + 1)]
    return list(substeps(sub, solver, zero, zero, zero, loads, solved))


def plan_propagators(plan: CouplingPlan, k: int) -> MultiplierPropagators:
    """The multiplier propagators of block ``k``: the plan's own for a
    block it sweeps, built anew with the plan's factor for a block it
    maps, which the plan keeps none of."""
    block = plan.block(k)
    if isinstance(block, MultiplierPropagators):
        return block
    return plan.subdomains[k].multiplier_propagators(plan.eta[k], plan.solver(k))


def response_columns(sub: Subdomain, eta: int) -> list[tuple[np.ndarray, ...]]:
    """``R[j - 1] = (aR, vR, dR)``, each (n, m): the responses at sub-level
    j of the m = 3n + 1 + 2 N_C unit columns of a response map, in the
    order of z = (a_n, v_n, d_n, 1, lam_n, dlam).

    Unit a, v and d from a zero load; from a zero start the loads f0 and
    C^T e_k on every sub-level and (j/eta) C^T e_k on sub-level j, each
    solved as M^-1 [f0 | C^T], once, times its factor.
    """
    solver = EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
    n, nc = sub.n_dofs, sub.n_constraints
    fixed = np.zeros((n, 1 + nc))
    fixed[:, 0] = sub.f0
    fixed[:, 1:] = sub.C.toarray().T
    W = linalg.cholesky_factor(sub.M).solve(fixed)
    zero = np.zeros((n, 3 * n))
    loads = [np.hstack((zero, W, (j / eta) * W[:, 1:])) for j in range(1, eta + 1)]
    start = [np.zeros((n, 3 * n + 1 + 2 * nc)) for _ in range(3)]
    for k, x in enumerate(start):
        x[:, k * n:(k + 1) * n] = np.eye(n)
    return list(substeps(sub, solver, *start, loads, solved=True))


def reference_step(sys: CoupledSystem) -> ReferenceStep:
    """One system step, sub-level by sub-level, through the Schur complement.

    A block that the run's plan steps by its response map is stepped
    here by its unit responses (:func:`response_columns`), level by
    level, times z; every other block is swept free and corrected by its
    propagators.
    """
    lam_n = sys.lambda_current
    n_c = sys.n_constraints
    base = []
    gap = np.zeros(n_c)
    schur = np.zeros((n_c, n_c))
    for k, (sub, eta, st) in enumerate(zip(sys.subdomains, sys.eta, sys.states)):
        if isinstance(sys.plan.block(k), ResponseMap):
            R = response_columns(sub, eta)
            z = np.concatenate((st.a, st.v, st.d, [1.0], lam_n, np.zeros(n_c)))
            gap += sub.C.toarray() @ (R[-1][1] @ z)
            schur += sub.C.toarray() @ R[-1][1][:, len(z) - n_c:]
            base.append((True, R, z))
            continue
        solver = EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
        Ct_lam = sub.C.toarray().T @ lam_n
        f = sub.loads(sys.t_current, eta)
        loads = [0.0 + f[j] + Ct_lam for j in range(1, eta + 1)]
        hist = list(substeps(sub, solver, st.a, st.v, st.d, loads))
        Y = propagators(sub, eta)
        gap += sub.C.toarray() @ hist[-1][1]
        schur += sub.C.toarray() @ Y[-1][1]
        base.append((False, hist, Y))
    dlam = np.linalg.solve(schur, -gap) if n_c else np.zeros(0)

    new_states = []
    for mapped, levels, extra in base:
        if mapped:  # the response columns and z
            z = extra.copy()
            z[len(z) - n_c:] = dlam
            new_states.append(tuple(
                KinematicState(d=dR @ z, v=vR @ z, a=aR @ z) for aR, vR, dR in levels
            ))
        else:  # the free sweep and the propagators
            new_states.append(tuple(
                KinematicState(d=d + dY @ dlam, v=v + vY @ dlam, a=a + aY @ dlam)
                for (a, v, d), (aY, vY, dY) in zip(levels, extra)
            ))
    return ReferenceStep(new_states=tuple(new_states), lambda_next=lam_n + dlam)


def _quad(A, x: np.ndarray) -> float:
    return 0.5 * float(x @ (A @ x))


def energy_algorithm(step: ReferenceStep, sys: CoupledSystem) -> float:
    """Scheme-induced energy change, summed sub-level by sub-level."""
    out = 0.0
    for sub, st_n, hist in zip(sys.subdomains, sys.states, step.new_states):
        beta, gamma = sub.params.beta, sub.params.gamma
        chain = [st_n, *hist]
        pairs = list(zip(chain, chain[1:]))
        jump_V = sum(_quad(sub.K, nxt.d - cur.d) for cur, nxt in pairs)
        jump_T = sum(_quad(sub.M, nxt.a - cur.a) for cur, nxt in pairs)
        system_jump_T = _quad(sub.M, chain[-1].a) - _quad(sub.M, chain[0].a)
        coeff = sub.dt_sub * sub.dt_sub * (beta - 0.5 * gamma)
        out -= 2.0 * (gamma - 0.5) * jump_V
        out -= coeff * system_jump_T
        out -= coeff * (2.0 * gamma - 1.0) * jump_T
    return out


def energy_interface(step: ReferenceStep, sys: CoupledSystem) -> float:
    """Interface work, with the multiplier interpolated at each sub-level."""
    lam_n, lam_np1 = sys.lambda_current, step.lambda_next
    out = 0.0
    for sub, eta, st_n, hist in zip(
        sys.subdomains, sys.eta, sys.states, step.new_states
    ):
        gamma = sub.params.gamma
        chain = [st_n, *hist]
        for j in range(eta):
            lam_w = (1.0 - gamma) * interpolate_lambda(
                lam_n, lam_np1, j, eta
            ) + gamma * interpolate_lambda(lam_n, lam_np1, j + 1, eta)
            out += float(lam_w @ (sub.C.toarray() @ (chain[j + 1].d - chain[j].d)))
    return out


def external_work(step: ReferenceStep, sys: CoupledSystem) -> float:
    """gamma-weighted load work, evaluating the loads at each sub-level."""
    out = 0.0
    for sub, eta, st_n, hist in zip(
        sys.subdomains, sys.eta, sys.states, step.new_states
    ):
        gamma = sub.params.gamma
        chain = [st_n, *hist]
        f = sub.loads(sys.t_current, eta)
        for j in range(eta):
            f_w = (1.0 - gamma) * f[j] + gamma * f[j + 1]
            out += float(f_w @ (chain[j + 1].d - chain[j].d))
    return out


def stability_weights(sub: Subdomain):
    """(A_i, K_i) of the functional, A_i = M_i + dt_i^2 (beta_i - gamma_i/2) K_i."""
    dt_i = sub.dt_sub
    return sub.M + dt_i * dt_i * (sub.params.beta - 0.5 * sub.params.gamma) * sub.K, sub.K


def energy_norm(sys: CoupledSystem) -> float:
    """Stability functional sum_i (a^T A_i a + v^T K_i v).

    A_i (:func:`stability_weights`) is positive definite when dt_i is
    below the critical step, and the functional is non-increasing along
    force-free trajectories: the discrete stability statement.
    """
    out = 0.0
    for sub, st in zip(sys.subdomains, sys.states):
        A, K = stability_weights(sub)
        out += float(st.a @ (A @ st.a)) + float(st.v @ (K @ st.v))
    return out


def free_vibration_variant(scenario: Scenario) -> Scenario:
    """Same model, zero forces, started from the static deflection.

    Replaces every load with zero and sets the initial displacement to
    the static solution of the original load (solved on the merged,
    undecomposed system so the interface copies agree exactly), with zero
    initial velocity: force-free dynamics with non-trivial motion, the
    hypothesis of the stability and conservation statements.
    """
    sys = scenario.system
    _, K, load, maps = merge_system_matrices(sys)
    d_static = linalg.cholesky_factor(K).solve(load(sys.t_current))
    subs = [replace(sub, f0=np.zeros(sub.n_dofs), g=None) for sub in sys.subdomains]
    system = initialize_coupled_system(
        subs,
        sys.dt_system,
        d0=[d_static[mp] for mp in maps],
        v0=[np.zeros(sub.n_dofs) for sub in subs],
    )
    return replace(scenario, system=system, oracle=None)
