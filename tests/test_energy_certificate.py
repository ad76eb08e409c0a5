"""The energy method's stability certificate, over every reachable state.

The paper assesses stability with the energy functional

    E = sum_i a_i^T A_i a_i + v_i^T K_i v_i,   A_i = M_i + dt_i^2 (beta_i - gamma_i/2) K_i

(:func:`step_reference.energy_norm`).  A force-free system step is linear
in the committed level it starts from, so stepping a basis of those
levels once checks all of them.  A committed level holds any
displacements d and multiplier lambda, velocities v in the null space of
[C_1 ... C_S], and the accelerations a_i = M_i^-1 (C_i^T lambda - K_i d_i)
of the equations of motion.  Stepping each basis level once with zero
load gives the Gram matrices Q0 and Q1 of E before and after the step.
The step is stable when Q1 <= Q0:

* on the range of Q0, Q1 is at most Q0: no state's E grows;
* on the null space of Q0, Q1 vanishes: a level that holds no energy (a
  static equilibrium under its interface forces) gains none.

Both hold up to round-off.  The basis is scaled so that every basis
level has E = 1; then each Gram entry is at most 1 in size, and the n
rounded products it sums leave it an error of order n eps, whatever its
own size.  So Q1 may exceed Q0 by ``RELATIVE`` times Q0 (the rounding
of one step) plus :func:`absolute_bound` (the rounding of the entries)
times the identity, and Q0's eigenvalues below that bound count as its
null space.

On copies of the solver with one of these faults, every case fails
(measured): the multiplier propagators lagged by one sub-level (the
worst growth is 1.025 to 9.65), and gamma dt scaled by 1 + 1e-6 in
``EffectiveSolver.sweep`` (1 + 7.5e-9 to 1 + 8.2e-6).
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from mtstep import coupling, linalg, problems
from mtstep.coupling import advance_system_step
from mtstep.newmark import KinematicState
from step_reference import free_vibration_variant, stability_weights

EPS = np.finfo(float).eps

#: Allowed growth of E relative to E: a thousand roundings per step.
RELATIVE = 1e3 * EPS


def absolute_bound(n: int) -> float:
    """Rounding allowed in the scaled Gram matrices of an n-level basis."""
    return 1e3 * n * EPS


def committed_levels(sys):
    """A basis of the committed levels of ``sys``, as (states, lambda) pairs.

    Unit displacements, an orthonormal basis of the admissible
    velocities, and unit multipliers.
    """
    sizes = [sub.n_dofs for sub in sys.subdomains]
    n, n_c = sum(sizes), sys.n_constraints
    V = scipy.linalg.null_space(np.hstack([sub.C.data for sub in sys.subdomains]))
    k = n + V.shape[1] + n_c
    D, Vel, Lam = np.zeros((n, k)), np.zeros((n, k)), np.zeros((n_c, k))
    D[:, :n] = np.eye(n)
    Vel[:, n:n + V.shape[1]] = V
    Lam[:, n + V.shape[1]:] = np.eye(n_c)
    offsets = np.cumsum([0] + sizes)
    parts = []
    for sub, lo, hi in zip(sys.subdomains, offsets, offsets[1:]):
        a = linalg.cholesky_factor(sub.M).solve(sub.C.data.T @ Lam - sub.K @ D[lo:hi])
        parts.append((D[lo:hi], Vel[lo:hi], a))
    return [
        (tuple(KinematicState(d=d[:, j], v=v[:, j], a=a[:, j]) for d, v, a in parts), Lam[:, j])
        for j in range(k)
    ]


def gram(subdomains, levels) -> np.ndarray:
    """Q[p, q] = sum_i a_p^T A_i a_q + v_p^T K_i v_q over the levels' states."""
    Q = 0.0
    for i, sub in enumerate(subdomains):
        A, K = stability_weights(sub)
        a = np.column_stack([states[i].a for states in levels])
        v = np.column_stack([states[i].v for states in levels])
        Q = Q + a.T @ (A @ a) + v.T @ (K @ v)
    return 0.5 * (Q + Q.T)


def certificate(sys):
    """Stepped basis of the force-free ``sys``'s levels: (scaled Q0, scaled Q1)."""
    basis = committed_levels(sys)
    stepped = []
    for states, lam in basis:
        result = advance_system_step(replace(sys, states=states, lambda_current=lam))
        stepped.append([
            KinematicState(d=h.d[-1], v=h.v[-1], a=h.a[-1]) for h in result.histories
        ])
    Q0 = gram(sys.subdomains, [states for states, _ in basis])
    Q1 = gram(sys.subdomains, stepped)
    scale = 1.0 / np.sqrt(np.diag(Q0))  # every basis level at E = 1
    return scale[:, None] * Q0 * scale, scale[:, None] * Q1 * scale


def check_certificate(name, Q0, Q1, n_constraints):
    """Assert Q1 <= Q0 up to the round-off bounds, printing the worst figures."""
    bound = absolute_bound(len(Q0))
    w, U = np.linalg.eigh(Q0)
    held, null = U[:, w > bound], U[:, w <= bound]
    excess = np.linalg.eigvalsh(held.T @ (Q1 - (1.0 + RELATIVE) * Q0) @ held)[-1]
    whitened = held / np.sqrt(w[w > bound])
    growth = np.linalg.eigvalsh(whitened.T @ Q1 @ whitened)[-1]
    gained = np.abs(np.linalg.eigvalsh(null.T @ Q1 @ null)).max(initial=0.0)
    print(
        f"{name}: {len(Q0)} levels, {null.shape[1]} hold no energy; worst growth "
        f"1 + {growth - 1:.2e}, excess {excess:.2e}, gained {gained:.2e} "
        f"(bound {bound:.2e})"
    )
    assert null.shape[1] >= n_constraints
    assert excess <= bound
    assert gained <= bound


CASES = {
    "sdof2": problems.build_sdof2,
    "sdof3": problems.build_sdof3,
    "bar1d_eta10": problems.build_bar_1d,
    "bar1d_eta100": lambda: problems.build_bar_1d(etas=(1, 100, 1)),
    "plate2d": problems.build_plate_2d,
    "wave2d_20x10": lambda: problems.build_wave_2d(nx=20, ny=10),
    # Every block above the size bound: the acceleration-only propagators.
    "wave2d_20x10_acceleration": lambda: problems.build_wave_2d(nx=20, ny=10),
}


@pytest.mark.parametrize("name", CASES)
def test_force_free_step_never_increases_the_energy_functional(name, monkeypatch):
    if name.endswith("_acceleration"):
        monkeypatch.setattr(coupling, "FULL_PROPAGATOR_MAX_BYTES", 0)
    scenario = CASES[name]()
    Q0, Q1 = certificate(free_vibration_variant(scenario).system)
    check_certificate(name, Q0, Q1, scenario.system.n_constraints)
