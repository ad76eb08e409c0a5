import math

import numpy as np
import pytest

from mtstep import linalg
from mtstep.baselines import merged_newmark_reference
from mtstep.coupling import SignedBooleanMatrix, Subdomain, initialize_coupled_system
from mtstep.errors import SingularMatrix
from mtstep.newmark import (
    AVERAGE_ACCELERATION,
    CENTRAL_DIFFERENCE,
    EffectiveSolver,
    KinematicState,
    NewmarkParams,
    critical_time_step,
)


def sweep_states(solver, st, loads):
    """The states after each unconstrained step of ``solver.sweep`` from ``st``.

    ``loads`` holds one end-of-step load row per step.
    """
    A = np.array(loads, dtype=float)
    V, D = np.empty_like(A), np.empty_like(A)
    solver.sweep(st.a, st.v, st.d, A, V, D)
    return [KinematicState(d=d, v=v, a=a) for a, v, d in zip(A, V, D)]


def test_params_reject_low_gamma():
    with pytest.raises(ValueError):
        NewmarkParams(beta=0.25, gamma=0.49)


def test_params_reject_negative_beta():
    with pytest.raises(ValueError):
        NewmarkParams(beta=-0.1, gamma=0.5)


def test_stability_classification():
    assert AVERAGE_ACCELERATION.unconditionally_stable
    assert not CENTRAL_DIFFERENCE.unconditionally_stable
    assert NewmarkParams(beta=0.3025, gamma=0.6).unconditionally_stable
    assert not NewmarkParams(beta=0.25, gamma=0.6).unconditionally_stable


def test_kinematic_state_promotes_scalars_and_checks_shapes():
    st = KinematicState(d=1.0, v=2.0, a=3.0)
    assert st.size == 1
    assert st.d.shape == (1,)
    with pytest.raises(ValueError):
        KinematicState(d=np.zeros(2), v=np.zeros(3), a=np.zeros(2))


def test_predict_formulas():
    # With K = 0 and no load a step's acceleration is zero, so the swept
    # displacement and velocity are the predictor rows.
    st = KinematicState(d=[1.0, 0.0], v=[0.5, -1.0], a=[2.0, 4.0])
    params = NewmarkParams(beta=0.3, gamma=0.7)
    dt = 0.1
    M, K = np.eye(2), np.zeros((2, 2))
    (new,) = sweep_states(EffectiveSolver(M, K, params, dt), st, np.zeros((1, 2)))
    np.testing.assert_allclose(
        new.d, st.d + dt * st.v + 0.5 * dt**2 * (1 - 2 * 0.3) * st.a
    )
    np.testing.assert_allclose(new.v, st.v + dt * (1 - 0.7) * st.a)
    with pytest.raises(ValueError):
        EffectiveSolver(M, K, params, 0.0)


def test_step_against_direct_linear_solve():
    # Independent oracle: solve the 3n x 3n step equations with numpy.
    rng = np.random.default_rng(7)
    n = 4
    A = rng.standard_normal((n, n))
    M = A @ A.T + n * np.eye(n)
    B = rng.standard_normal((n, n))
    K = B @ B.T
    params = NewmarkParams(beta=0.3025, gamma=0.6)
    dt = 0.05
    st = KinematicState(
        d=rng.standard_normal(n), v=rng.standard_normal(n), a=rng.standard_normal(n)
    )
    f = rng.standard_normal(n)

    I = np.eye(n)
    Z = np.zeros((n, n))
    big = np.block([
        [M, Z, K],
        [-params.gamma * dt * I, I, Z],
        [-params.beta * dt * dt * I, Z, I],
    ])
    d_pred = st.d + dt * st.v + 0.5 * dt * dt * (1.0 - 2.0 * params.beta) * st.a
    v_pred = st.v + dt * (1.0 - params.gamma) * st.a
    rhs = np.concatenate([f, v_pred, d_pred])
    sol = np.linalg.solve(big, rhs)

    (new,) = sweep_states(EffectiveSolver(M, K, params, dt), st, [f])
    np.testing.assert_allclose(new.a, sol[:n], atol=1e-11)
    np.testing.assert_allclose(new.v, sol[n:2 * n], atol=1e-11)
    np.testing.assert_allclose(new.d, sol[2 * n:], atol=1e-11)


def test_static_equilibrium_is_fixed_point():
    M = np.diag([2.0, 3.0])
    K = np.array([[4.0, -1.0], [-1.0, 2.0]])
    f = np.array([1.0, -0.5])
    d0 = np.linalg.solve(K, f)
    st = KinematicState(d=d0, v=np.zeros(2), a=np.zeros(2))
    solver = EffectiveSolver(M, K, AVERAGE_ACCELERATION, 0.1)
    st = sweep_states(solver, st, np.tile(f, (10, 1)))[-1]
    np.testing.assert_allclose(st.d, d0, atol=1e-13)
    np.testing.assert_allclose(st.v, 0.0, atol=1e-13)
    np.testing.assert_allclose(st.a, 0.0, atol=1e-13)


def test_average_acceleration_conserves_energy():
    m, k = 2.0, 50.0
    M, K = np.array([[m]]), np.array([[k]])
    st = KinematicState(d=[0.3], v=[1.5], a=[-k * 0.3 / m])
    solver = EffectiveSolver(M, K, AVERAGE_ACCELERATION, 0.02)
    e0 = 0.5 * m * st.v[0] ** 2 + 0.5 * k * st.d[0] ** 2
    for st in sweep_states(solver, st, np.zeros((500, 1))):
        e = 0.5 * m * st.v[0] ** 2 + 0.5 * k * st.d[0] ** 2
        assert abs(e - e0) <= 1e-12 * e0


def test_second_order_convergence_on_oscillator():
    m, k = 1.0, 4.0 * math.pi**2  # period 1
    M, K = np.array([[m]]), np.array([[k]])
    omega = math.sqrt(k / m)

    def run(dt):
        # Stop at t = 0.3, away from the extrema where the phase error
        # would only show up at second order in itself.
        st = KinematicState(d=[1.0], v=[0.0], a=[-omega**2])
        solver = EffectiveSolver(M, K, AVERAGE_ACCELERATION, dt)
        n = round(0.3 / dt)
        st = sweep_states(solver, st, np.zeros((n, 1)))[-1]
        return abs(st.d[0] - math.cos(omega * n * dt))

    e1, e2 = run(0.01), run(0.005)
    assert 3.5 <= e1 / e2 <= 4.5


def test_consistent_initial_acceleration():
    # The merged Newmark reference starts from M a0 = f(0) - K d0.
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    M = A @ A.T + 3 * np.eye(3)
    K = np.eye(3) * 2.0
    f0 = rng.standard_normal(3)
    d0 = rng.standard_normal(3)
    sub = Subdomain(
        M=M, K=K, params=AVERAGE_ACCELERATION, dt_sub=0.1, f0=f0,
        C=SignedBooleanMatrix(np.zeros((0, 3))),
    )
    sys = initialize_coupled_system([sub], 0.1, d0=[d0], v0=[np.zeros(3)])
    (start,) = merged_newmark_reference(sys, 0)[0]
    np.testing.assert_allclose(start.d, d0)
    np.testing.assert_allclose(M @ start.a + K @ d0, f0, atol=1e-12)


def test_critical_time_step_closed_form():
    # Single DOF: omega = sqrt(k/m), dt_crit = 1/(omega sqrt(gamma/2 - beta)).
    m, k = 0.5, 200.0
    M, K = np.array([[m]]), np.array([[k]])
    omega = math.sqrt(k / m)
    got = critical_time_step(M, K, CENTRAL_DIFFERENCE)
    assert got == pytest.approx(2.0 / omega, rel=1e-7)
    assert critical_time_step(M, K, AVERAGE_ACCELERATION) == math.inf
    assert critical_time_step(M, np.zeros((1, 1)), CENTRAL_DIFFERENCE) == math.inf


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_critical_time_step_marks_stability_boundary():
    # Just below the critical step the free oscillation stays bounded,
    # just above it blows up.
    m, k = 1.0, 1.0e4
    M, K = np.array([[m]]), np.array([[k]])
    dt_crit = critical_time_step(M, K, CENTRAL_DIFFERENCE)

    def amplitude(dt, n=2000):
        st = KinematicState(d=[1.0], v=[0.0], a=[-k / m])
        solver = EffectiveSolver(M, K, CENTRAL_DIFFERENCE, dt)
        peak = 1.0
        for st in sweep_states(solver, st, np.zeros((n, 1))):
            peak = max(peak, abs(st.d[0]))
        return peak

    assert amplitude(0.98 * dt_crit) < 10.0
    assert amplitude(1.02 * dt_crit) > 1e6


def test_effective_solver_rejects_singular_effective_matrix():
    # beta = 0 and M = 0 on one DOF: effective matrix is singular.
    M = np.diag([1.0, 0.0])
    K = np.eye(2)
    with pytest.raises(SingularMatrix):
        EffectiveSolver(M, K, CENTRAL_DIFFERENCE, 0.1)
