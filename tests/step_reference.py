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
    Subdomain,
    SystemStepResult,
    initialize_coupled_system,
)
from mtstep.newmark import KinematicState
from mtstep.problems import Scenario
from saddle_oracle import apply_R, interpolate_lambda


def sublevel_states(result: SystemStepResult) -> tuple[tuple[KinematicState, ...], ...]:
    """Per subdomain, the eta sub-level states of a step, last one at the new level."""
    return tuple(
        tuple(KinematicState(d=d, v=v, a=a) for a, v, d in zip(h.a, h.v, h.d))
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
        subdomains=tuple(subdomains),
        dt_system=dt_system,
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
    """``Y[j - 1] = (aY, vY, dY)``: the response at sub-level j to a unit dlam."""
    solver = sub.solver()
    n, nc = sub.n_dofs, sub.n_constraints
    Ct = sub.C.data.T
    aY = vY = dY = np.zeros((n, nc))
    out = []
    for j in range(1, eta + 1):
        ra, rv, rd = apply_R(sub, aY, vY, dY)
        aY, vY, dY = solver.solve_rows(ra + (j / eta) * Ct, rv, rd)
        out.append((aY, vY, dY))
    return out


def reference_step(sys: CoupledSystem) -> ReferenceStep:
    """One system step, sub-level by sub-level, through the Schur complement."""
    lam_n = sys.lambda_current
    n_c = sys.n_constraints
    base = []
    gap = np.zeros(n_c)
    for sub, eta, st in zip(sys.subdomains, sys.eta, sys.states):
        solver = sub.solver()
        Ct_lam = sub.C.data.T @ lam_n
        a, v, d = st.a, st.v, st.d
        f = sub.loads(sys.t_current, eta)
        hist = []
        for j in range(1, eta + 1):
            ra, rv, rd = apply_R(sub, a, v, d)
            a, v, d = solver.solve_rows(ra + f[j] + Ct_lam, rv, rd)
            hist.append((a, v, d))
        base.append(hist)
        gap += sub.C.data @ hist[-1][1]

    schur = np.zeros((n_c, n_c))
    Ys = [propagators(sub, eta) for sub, eta in zip(sys.subdomains, sys.eta)]
    for sub, Y in zip(sys.subdomains, Ys):
        schur += sub.C.data @ Y[-1][1]
    dlam = np.linalg.solve(schur, -gap) if n_c else np.zeros(0)

    new_states = tuple(
        tuple(
            KinematicState(d=d + dY @ dlam, v=v + vY @ dlam, a=a + aY @ dlam)
            for (a, v, d), (aY, vY, dY) in zip(hist, Y)
        )
        for hist, Y in zip(base, Ys)
    )
    return ReferenceStep(new_states=new_states, lambda_next=lam_n + dlam)


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
            out += float(lam_w @ (sub.C.data @ (chain[j + 1].d - chain[j].d)))
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
