"""Energy bookkeeping and interface-drift tracking.

For each subdomain the kinetic and potential energies are

    T_i(x) = 1/2 x^T M_i x        V_i(x) = 1/2 x^T K_i x

and the energy of a system level, formed only by :func:`level_energy`, is
E = sum_i (T_i(v_i) + V_i(d_i)).  With zero external forces, the change
of E over one system step splits exactly into a scheme contribution and
an interface-work contribution:

    E^(n+1) - E^(n) = e_algorithm + e_interface

where, writing [x]_j = x^(n+(j+1)/eta) - x^(n+j/eta) for sub-level jumps
and  [[x]] for the jump over the whole system step,

    e_algorithm = - 2 sum_i sum_j (gamma_i - 1/2) V_i([d_i]_j)
                  - sum_i dt_i^2 (beta_i - gamma_i/2) [[T_i(a_i)]]
                  - sum_i dt_i^2 (beta_i - gamma_i/2)(2 gamma_i - 1)
                        sum_j T_i([a_i]_j)

    e_interface = sum_i sum_j ((1-gamma_i) lam^(n+j/eta_i)
                               + gamma_i lam^(n+(j+1)/eta_i))^T C_i [d_i]_j

with the sub-level multipliers given by linear interpolation.  Both
vanish when every subdomain uses average acceleration without subcycling
(exact conservation); e_algorithm is strictly dissipative for
gamma > 1/2, beta = gamma/2.

With non-zero loads the balance extends by the external work term
computed by :func:`external_work`.  For a constant load the term
telescopes to f0_i^T (d_i^(n+1) - d_i^n); a time-varying load is weighed
sub-level by sub-level with the loads the step evaluated.

The terms are computed from what a step forms of each subdomain
(:class:`mtstep.coupling.SubstepHistory`): its end rows, its rows C_i d_j
and, for a swept block, its stacked sub-level rows.  The jumps [x]_j are
one ``np.diff`` of a history, the quadratic forms of all sub-levels come
from one product ``M_i X^T`` or ``K_i X^T`` per subdomain (dense or
sparse), and the interpolated multipliers from one weight vector j/eta_i.
A block stepped by its response map is central difference (gamma = 1/2,
beta = 0), whose sub-level terms of e_algorithm have zero coefficients,
and carries a constant load, so no term reads sub-level rows it does not
hold.  The per-level terms are added in level order, subdomain by
subdomain, so the sums do not depend on how a vectorised reduction would
group them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .coupling import CoupledSystem, SystemStepResult


@dataclass(frozen=True)
class EnergyBreakdown:
    """Subdomain sums of kinetic and potential energy, and a step's split terms."""

    kinetic: float
    potential: float
    e_algorithm: float = 0.0
    e_interface: float = 0.0

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


@dataclass(frozen=True)
class DriftRecord:
    """Interface residuals of the un-enforced continuity conditions."""

    a_drift: np.ndarray
    d_drift: np.ndarray
    v_residual: np.ndarray


def _half_form(A, x: np.ndarray) -> float:
    """1/2 x^T A x."""
    return 0.5 * float(x @ (A @ x))


def level_energy(blocks: Sequence[tuple]) -> EnergyBreakdown:
    """Energy of one level from its (M, K, v, d) blocks, one per subdomain.

    Every kinetic form 1/2 v^T M v is made before the first potential
    form 1/2 d^T K d; each kind is summed in block order.
    """
    kin = [_half_form(M, v) for M, _, v, _ in blocks]
    pot = [_half_form(K, d) for _, K, _, d in blocks]
    return EnergyBreakdown(kinetic=_add_floats(kin), potential=_add_floats(pot))


def _add_floats(terms: Sequence[float]) -> float:
    """0.0 + each of a few Python floats, left to right.

    A plain loop: it gives the bits of :func:`_add_in_order` and, for one
    term per subdomain, costs a tenth of a numpy call.
    """
    out = 0.0
    for x in terms:
        out += x
    return out


def total_energy(sys: CoupledSystem) -> EnergyBreakdown:
    """Kinetic/potential split at the system's current level."""
    return level_energy(
        [(sub.M, sub.K, st.v, st.d) for sub, st in zip(sys.subdomains, sys.states)]
    )


def _jumps(x0: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Sub-level jumps [x]_j of a stacked (eta, n) history that starts at x0."""
    return np.diff(X, axis=0, prepend=x0[np.newaxis])


def _half_forms(A, X: np.ndarray) -> np.ndarray:
    """1/2 x_j^T A x_j for every row x_j of X, from one product A X^T."""
    return 0.5 * np.einsum("ij,ji->i", X, A @ X.T)


def _add_in_order(*parts: Sequence[float]) -> float:
    """0.0 + every term of parts[0], then of parts[1], ..., one at a time.

    A vectorised sum groups the terms differently, which moves the last
    digits of a split term.  ``np.add.accumulate`` does not: each partial
    sum is the one before plus the next term, strictly left to right, so
    its last entry has the bits of a Python loop over the terms, in one
    call.  The built-in ``sum`` is no substitute: from Python 3.12 it
    compensates the rounding of float sums, so its result would depend
    on the interpreter.
    """
    return float(np.add.accumulate(np.concatenate(([0.0], *parts)))[-1])


def energy_algorithm(step: SystemStepResult, sys: CoupledSystem) -> float:
    """Scheme-induced energy change over the step from ``sys`` to ``step``.

    ``sys`` must be the system value the step was computed *from* (level
    n); the sub-level histories come from ``step``.

    A term whose coefficient is exactly zero is not computed: the
    V- and T-jump sums when gamma = 1/2, every kinetic term when
    beta = gamma/2.  For finite terms that gives the same bits, as
    ``out - 0.0 * x`` is ``out`` (``out`` is never -0.0: it starts at
    +0.0, and a difference of equal values is +0.0).
    """
    out = 0.0
    for sub, st_n, hist in zip(sys.subdomains, sys.states, step.histories):
        beta, gamma = sub.params.beta, sub.params.gamma
        dt_i = sub.dt_sub
        coeff_V = 2.0 * (gamma - 0.5)
        coeff = dt_i * dt_i * (beta - 0.5 * gamma)
        coeff_T = coeff * (2.0 * gamma - 1.0)
        if coeff_V:
            jump_V = _add_in_order(_half_forms(sub.K, _jumps(st_n.d, hist.rows[2])))
            out -= coeff_V * jump_V
        if coeff:
            system_jump_T = _half_form(sub.M, hist.end[0]) - _half_form(sub.M, st_n.a)
            out -= coeff * system_jump_T
        if coeff_T:
            jump_T = _add_in_order(_half_forms(sub.M, _jumps(st_n.a, hist.rows[0])))
            out -= coeff_T * jump_T
    return out


def energy_interface(step: SystemStepResult, sys: CoupledSystem) -> float:
    """Net work done by the interface forces over one system step."""
    lam_n = sys.lambda_current
    lam_np1 = step.lambda_next
    works = []
    for sub, st_n, hist in zip(sys.subdomains, sys.states, step.histories):
        gamma = sub.params.gamma
        rows = hist.constraint_rows  # C_i d_j
        eta = len(rows)
        w = np.arange(eta + 1) / eta  # lam^(n+j/eta) = (1 - w_j) lam^n + w_j lam^(n+1)
        lam = np.multiply.outer(1.0 - w, lam_n) + np.multiply.outer(w, lam_np1)
        lam_w = (1.0 - gamma) * lam[:-1] + gamma * lam[1:]
        jumps = _jumps(sub.C.product(st_n.d), rows)  # rows C_i [d_i]_j
        works.append(np.einsum("ij,ij->i", lam_w, jumps))
    return _add_in_order(*works)


def external_work(step: SystemStepResult, sys: CoupledSystem) -> float:
    """gamma-weighted work of the external loads over one system step,

        sum_i sum_j ((1 - gamma_i) f_i^(n+j/eta_i) + gamma_i f_i^(n+(j+1)/eta_i))^T [d_i]_j.

    Extends the f = 0 balance identity: E^(n+1) - E^(n) = e_algorithm +
    e_interface + external_work.  A constant load (``g`` is ``None``)
    weighs every jump by f0_i, so its sum telescopes to
    f0_i^T (d_i^(n+1) - d_i^n), formed from the end rows alone.  A
    time-varying load reads the loads the step evaluated, carried by its
    history, and the sub-level rows; no mapped block has one.
    """
    works = []
    for sub, st_n, hist in zip(sys.subdomains, sys.states, step.histories):
        if sub.g is None:
            works.append([float(sub.f0 @ (hist.end[2] - st_n.d))])
            continue
        gamma = sub.params.gamma
        f_w = (1.0 - gamma) * hist.f[:-1] + gamma * hist.f[1:]
        works.append(np.einsum("ij,ij->i", f_w, _jumps(st_n.d, hist.rows[2])))
    return _add_in_order(*works)


def step_energy_report(
    step: SystemStepResult, sys_before: CoupledSystem
) -> EnergyBreakdown:
    """Energy at the new level plus the per-step split terms."""
    energy = level_energy([
        (sub.M, sub.K, hist.end[1], hist.end[2])
        for sub, hist in zip(sys_before.subdomains, step.histories)
    ])
    return replace(
        energy,
        e_algorithm=energy_algorithm(step, sys_before),
        e_interface=energy_interface(step, sys_before),
    )


def drift_record(sys: CoupledSystem) -> DriftRecord:
    """Interface drifts sum_i C_i (a_i, d_i, v_i) at the current level.

    The velocity residual is enforced by the solver (zero to round-off);
    the acceleration and displacement drifts are genuinely un-enforced.
    Without subcycling and with a uniform scheme they obey the exact
    recurrences

        a_drift^(n+1) = (1 - 1/gamma) a_drift^(n)
        d_drift^(n+1) = d_drift^(n) + (1/2 - beta/gamma) dt^2 a_drift^(n)

    so they remain bounded (and d_drift constant when gamma = 2 beta).
    """
    n_c = sys.n_constraints
    a_drift = np.zeros(n_c)
    d_drift = np.zeros(n_c)
    for sub, st in zip(sys.subdomains, sys.states):
        a_drift += sub.C.product(st.a)
        d_drift += sub.C.product(st.d)
    return DriftRecord(a_drift, d_drift, sys.velocity_residual())
