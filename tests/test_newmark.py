import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg

from mtstep import linalg, problems
from mtstep.baselines import merged_newmark_reference
from mtstep.coupling import (
    Subdomain,
    advance_system_step,
    initialize_coupled_system,
)
from mtstep.errors import SingularMatrix
from mtstep.newmark import (
    AVERAGE_ACCELERATION,
    CENTRAL_DIFFERENCE,
    EffectiveSolver,
    KinematicState,
    NewmarkParams,
    critical_time_step,
)
import decimal_oracle
from glue_reference import signed_boolean
from saddle_oracle import apply_R


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
        C=signed_boolean(np.zeros((0, 3))),
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


@pytest.mark.parametrize(
    "build, index, routine, calls",
    [
        (lambda: problems.build_bar_1d().system, 1, "dpotrs", 1),
        (lambda: problems.build_plate_2d().system, 3, "dpotrs", 6),
        (lambda: problems.build_wave_2d().system, 0, "dpbtrs", 6),
    ],
    ids=["explicit_dense", "implicit_dense", "explicit_csr"],
)
def test_dense_central_difference_sweep_solves_once(build, index, routine, calls, monkeypatch):
    # A dense central-difference sweep of 6 sub-steps calls its factor once,
    # to solve all six load rows before the first sub-step, and then takes
    # each acceleration from G = M^-1 (dt^2 K).  An implicit block and a
    # CSR central-difference block (wave2d's 836 DOFs) still solve once per
    # sub-step.  The LAPACK routine is bound when the factor is built, so
    # it is counted from there, and only during the sweep.
    sub = build().subdomains[index]
    solves = []
    lapack = getattr(scipy.linalg.lapack, routine)

    def counted(c, b, *args, **kwargs):
        solves.append(b.shape)
        return lapack(c, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, routine, counted)
    solver = EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
    assert (solver.G is not None) == (calls == 1)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, sub.n_dofs))
    a, v, d = (rng.standard_normal(sub.n_dofs) for _ in range(3))
    solves.clear()
    solver.sweep(a, v, d, A, np.empty_like(A), np.empty_like(A))
    assert len(solves) == calls
    if calls == 1:
        assert solves == [(sub.n_dofs, 6)]


def test_effective_solver_rejects_singular_effective_matrix():
    # beta = 0 and M = 0 on one DOF: effective matrix is singular.
    M = np.diag([1.0, 0.0])
    K = np.eye(2)
    with pytest.raises(SingularMatrix):
        EffectiveSolver(M, K, CENTRAL_DIFFERENCE, 0.1)


def _decimal_substeps(sub, st, loads):
    """(a, v, d) after each Newmark sub-step of ``sub``, at 34 digits,
    stacked as (3, steps, n) floats.

    Starts from the exact values of the float inputs and applies the
    paper's R-form rows (:func:`decimal_oracle.substeps`), which equal the
    rows of the sweep's summed form in exact arithmetic.
    """
    exact = decimal_oracle.exact
    with localcontext() as ctx:
        ctx.prec = decimal_oracle.PRECISION
        c_a = Decimal(sub.dt_sub) ** 2 * Decimal(sub.params.beta)
        inv = decimal_oracle.inverse(exact(sub.M) + c_a * exact(sub.K))
        out = decimal_oracle.history(sub, inv, exact(st.a), exact(st.v), exact(st.d), exact(loads))
    return decimal_oracle.to_float(out)


def _block_sweeps(build, index, system_steps):
    """Central-difference block ``index`` of the system ``build()`` makes,
    after ``system_steps`` coupled steps, swept over the next system step
    with its loads: (sub, [sweep, R form], response map, 34-digit
    reference), the sweeps and the reference each (a, v, d) stacked as
    (3, eta, n).

    The sweep runs in the summed form (with G = M^-1 (dt^2 K) and the
    loads solved first, both blocks being stored dense); the R form is
    ``apply_R`` plus ``solve_rows``; the response map's are the rows a
    mapped step forms, its end rows (3, n) and rows C d_j (eta, N_C),
    with dlam = 0; and the reference is :func:`_decimal_substeps` from
    the same float inputs.
    """
    system = build()
    for _ in range(system_steps):
        system = system.apply(advance_system_step(system))
    sub, solver, st = system.subdomains[index], system.plan.solver(index), system.states[index]
    assert sub.params == CENTRAL_DIFFERENCE and solver.G is not None
    loads = (
        0.0 + sub.loads(system.t_current, system.eta[index])[1:]
        + sub.C.transpose_product(system.lambda_current)
    )
    A, V, D = loads.copy(), np.empty_like(loads), np.empty_like(loads)
    solver.sweep(st.a, st.v, st.d, A, V, D)
    a, v, d, rows = st.a, st.v, st.d, []
    for f in loads:
        ra, rv, rd = apply_R(sub, a, v, d)
        a, v, d = solver.solve_rows(ra + f, rv, rd)
        rows.append((a, v, d))
    r_form = np.array(rows).transpose(1, 0, 2)
    eta, n_c = system.eta[index], sub.n_constraints
    z = np.concatenate((st.a, st.v, st.d, [1.0], system.lambda_current, np.zeros(n_c)))
    f = sub.loads(system.t_current, eta)
    hist = sub.response_map(eta, solver).finish(sub, z, f, np.zeros(n_c))
    mapped = hist.end, hist.constraint_rows
    return sub, [np.array([A, V, D]), r_form], mapped, _decimal_substeps(sub, st, loads)


def _check_forms(sub, forms, mapped, ref, bounds):
    """Every sub-level (a, v, d) of each swept form, the map's end rows
    and its rows C d_j against the reference ``ref``, each quantity
    within its bound; C d_j within the displacement bound, as each row
    of C has one entry of magnitude 1."""
    for got in forms:
        for x, x_ref, bound in zip(got, ref, bounds):
            assert np.abs(x - x_ref).max() <= bound
    end, constraint_rows = mapped
    for x, x_ref, bound in zip(end, ref[:, -1], bounds):
        assert np.abs(x - x_ref).max() <= bound
    assert np.abs(constraint_rows - sub.C.row_products(ref[2])).max() <= bounds[2]


#: The dense central-difference blocks the accuracy tests sweep: the
#: bar's 6-DOF block at eta = 1000 and the plate's loaded 72-DOF block
#: (the bottom-right one) at eta = 5.
ACCURACY_BLOCKS = (
    (lambda: problems.build_bar_1d(etas=(1, 1000, 1)).system, 1),
    (lambda: problems.build_plate_2d().system, 1),
)


def test_central_difference_substeps_keep_their_accuracy():
    # Each block over its first system step, from t = 0, against a
    # 34-digit reference from the same float inputs.  Each sub-step
    # rounds each entry a few times and the stable recurrence
    # (omega dt < 2) does not amplify an error, so the error grows at
    # most linearly: eta sub-steps x 4 ulp of each quantity's largest
    # magnitude bound the sweep's summed form, the R-form rows of
    # solve_rows and the response map's end rows and rows C d_j (each of
    # its unit columns is such a sweep, and z combines them).  Measured,
    # as fractions of the bound: at most 5.7e-3 (bar) and 0.36 (plate)
    # for the sweep, 5.8e-3 and 0.20 for the R form.
    for build, index in ACCURACY_BLOCKS:
        sub, forms, mapped, ref = _block_sweeps(build, index, 0)
        scales = np.abs(ref).max(axis=(1, 2))
        assert (scales > 0.0).all()
        _check_forms(sub, forms, mapped, ref, ref.shape[1] * 4 * np.finfo(float).eps * scales)


def test_central_difference_substeps_keep_their_accuracy_in_motion():
    # The same blocks after 5 system steps, in motion, where the
    # displacement round-off reaches the other quantities.  Over n
    # sub-steps of dt (T = n dt), with each local rounding at most
    # 4 ulp (u = 4 eps) of its quantity's largest magnitude:
    # * d sums the increments p = d_(j+1) - d_j, |p| <= dt max|v| up to
    #   round-off, and p carries its own round-off on: e_d <= n u X with
    #   X = max|d| + T max|v|;
    # * a = M^-1 (f - K d) turns an error in d into one up to
    #   lambda_max(K, M) times as large: e_a <= n u (max|a| + lambda_max X);
    # * a stable oscillation of frequency omega carries a displacement
    #   error into a velocity error up to omega times as large:
    #   e_v <= n u (max|v| + omega_max X).
    # Measured, as fractions of these bounds: at most 2.6e-3 on the bar
    # and 0.061 on the plate, for the summed form and the R form alike.
    # The lambda_max term is what the t = 0 bound of n x 4 ulp of max|a|
    # leaves out: against that bound the bar's a reads up to 0.93 here,
    # the plate's up to 1.4.
    for build, index in ACCURACY_BLOCKS:
        sub, forms, mapped, ref = _block_sweeps(build, index, 5)
        lam = linalg.max_generalized_eigenvalue(sub.K, sub.M)
        n = ref.shape[1]
        u = n * 4 * np.finfo(float).eps
        top_a, top_v, top_d = (np.abs(x).max() for x in ref)
        X = top_d + n * sub.dt_sub * top_v
        bounds = (u * (top_a + lam * X), u * (top_v + math.sqrt(lam) * X), u * X)
        assert top_v > 0.0
        _check_forms(sub, forms, mapped, ref, bounds)
