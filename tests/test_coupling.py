import dataclasses
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from mtstep import coupling, linalg
from mtstep.coupling import (
    CoupledSystem,
    CouplingPlan,
    SignedBooleanMatrix,
    Subdomain,
    advance_system_step,
    initialize_coupled_system,
)
from mtstep.diagnostics import step_energy_report
from mtstep.errors import DimensionMismatch, SingularSaddleSystem
from mtstep.newmark import (
    AVERAGE_ACCELERATION,
    CENTRAL_DIFFERENCE,
    KinematicState,
    NewmarkParams,
)
from mtstep.problems import (
    build_bar_1d,
    build_plate_2d,
    build_sdof2,
    build_sdof3,
    build_wave_2d,
)
from saddle_oracle import (
    advance_monolithic,
    assemble_L_R,
    interpolate_lambda,
    subdomain_substep,
)
from step_reference import sublevel_states, zero_multiplier_start, zero_multiplier_system


def signed_boolean_from_entries(n_constraints, n_dofs, entries):
    """A SignedBooleanMatrix from (row, dof, sign) triplets."""
    data = np.zeros((n_constraints, n_dofs))
    for row, col, sign in entries:
        data[row, col] = sign
    return SignedBooleanMatrix(data)


def make_pair(dt_a=0.02, dt_b=0.02, sign=(+1, -1), params=AVERAGE_ACCELERATION):
    """The split oscillator: (m, k) = (0.1, 2.5) and (0.005, 50)."""
    subs = [
        Subdomain(
            M=np.array([[0.1]]), K=np.array([[2.5]]), params=params,
            dt_sub=dt_a, f0=np.zeros(1),
            C=SignedBooleanMatrix(np.array([[float(sign[0])]])),
        ),
        Subdomain(
            M=np.array([[0.005]]), K=np.array([[50.0]]), params=params,
            dt_sub=dt_b, f0=np.zeros(1),
            C=SignedBooleanMatrix(np.array([[float(sign[1])]])),
        ),
    ]
    return subs


# ---------------------------------------------------------------------------
# SignedBooleanMatrix
# ---------------------------------------------------------------------------

def test_signed_boolean_validation():
    SignedBooleanMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        SignedBooleanMatrix(np.array([[0.5, 0.0]]))
    with pytest.raises(ValueError):
        SignedBooleanMatrix(np.array([[1.0, -1.0]]))  # two entries in one row
    with pytest.raises(ValueError):
        SignedBooleanMatrix(np.zeros(3))  # not 2-D


def test_signed_boolean_is_read_only():
    C = SignedBooleanMatrix(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        C.data[0, 0] = -1.0


def _bits(x):
    """The raw bits of a float array, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(x).view(np.int64)


def test_signed_boolean_products_match_dense_bitwise():
    # Row 1 is a zero row and DOF 2 sits in rows 0 and 3.
    C = signed_boolean_from_entries(4, 5, [(0, 2, 1), (2, 0, -1), (3, 2, -1)])
    rng = np.random.default_rng(3)
    x = rng.standard_normal(5)
    X = rng.standard_normal((5, 3))
    lam = rng.standard_normal(4)
    rows = rng.standard_normal((7, 5))
    for got, want in (
        (C.product(x), C.data @ x),
        (C.product(X), C.data @ X),
        (C.transpose_product(lam), C.data.T @ lam),
        (C.row_products(rows), rows @ C.data.T),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))
    Z = SignedBooleanMatrix(np.zeros((2, 3)))
    for got, want in (
        (Z.product(x[:3]), np.zeros(2)),
        (Z.transpose_product(lam[:2]), np.zeros(3)),
        (Z.row_products(rows[:, :3]), np.zeros((7, 2))),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# Construction checks
# ---------------------------------------------------------------------------

def test_eta_derived_from_time_step_ratio():
    subs = make_pair(dt_a=0.02, dt_b=0.005)
    sys = initialize_coupled_system(subs, 0.02, d0=[[0.1], [0.1]], v0=[[1.0], [1.0]])
    assert sys.eta == (1, 4)


def test_non_integer_ratio_rejected():
    subs = make_pair(dt_a=0.02, dt_b=0.0075)
    with pytest.raises(ValueError, match="not a positive integer"):
        initialize_coupled_system(subs, 0.02, d0=[[0.0], [0.0]], v0=[[0.0], [0.0]])


def test_subcritical_time_step_enforced():
    # Central difference on the stiff half: dt_crit = 2 sqrt(m/k) = 0.02.
    params = NewmarkParams(beta=0.0, gamma=0.5)
    subs = make_pair(dt_a=0.025, dt_b=0.025, params=params)
    with pytest.raises(ValueError, match="critical"):
        initialize_coupled_system(subs, 0.025, d0=[[0.0], [0.0]], v0=[[0.0], [0.0]])


def test_critical_step_guard_is_exact():
    # Plate subdomain 0 under central difference: dt_crit = 2 / omega_max.
    # A step 2e-8 above the exact limit is rejected, one 2e-8 below is
    # accepted.
    sub = build_plate_2d().system.subdomains[0]
    omega_sq = scipy.linalg.eigh(sub.K, sub.M, eigvals_only=True)[-1]
    dt_crit = 2.0 / np.sqrt(omega_sq)
    n = sub.n_dofs

    def system(dt):
        single = Subdomain(
            M=sub.M, K=sub.K, params=CENTRAL_DIFFERENCE, dt_sub=dt,
            f0=np.zeros(n), C=SignedBooleanMatrix(np.zeros((0, n))),
        )
        return initialize_coupled_system(
            [single], dt, d0=[np.zeros(n)], v0=[np.zeros(n)]
        )

    with pytest.raises(ValueError, match="critical"):
        system((1.0 + 2e-8) * dt_crit)
    assert system((1.0 - 2e-8) * dt_crit).eta == (1,)


def test_incompatible_initial_velocities_rejected():
    subs = make_pair()
    with pytest.raises(ValueError, match="incompatible"):
        initialize_coupled_system(subs, 0.02, d0=[[0.0], [0.0]], v0=[[1.0], [0.0]])


def test_mismatched_constraint_counts_rejected():
    subs = make_pair()
    bad = Subdomain(
        M=subs[1].M, K=subs[1].K, params=subs[1].params, dt_sub=subs[1].dt_sub,
        f0=np.zeros(1), C=SignedBooleanMatrix(np.array([[-1.0], [0.0]])),
    )
    st = KinematicState(d=[0.0], v=[0.0], a=[0.0])
    with pytest.raises(DimensionMismatch):
        CoupledSystem(
            subdomains=(subs[0], bad), dt_system=0.02,
            states=(st, st), lambda_current=np.zeros(1),
        )


@pytest.mark.parametrize(
    "field, value, error, match",
    [
        pytest.param("K", np.eye(3), DimensionMismatch, "matching squares", id="K_shape"),
        pytest.param("f0", np.zeros(3), DimensionMismatch, "f0 has shape", id="f0_shape"),
        pytest.param(
            "M", np.array([[0.1, 0.0], [0.01, 0.1]]), ValueError, "M must be symmetric",
            id="M_not_symmetric",
        ),
        pytest.param(
            "K", np.array([[2.5, 0.0], [1.0, 2.5]]), ValueError, "K must be symmetric",
            id="K_not_symmetric",
        ),
        pytest.param("dt_sub", 0.0, ValueError, "dt_sub must be positive", id="dt_sub_zero"),
        pytest.param(
            "C", SignedBooleanMatrix(np.array([[1.0]])), DimensionMismatch, "columns",
            id="C_columns",
        ),
    ],
)
def test_subdomain_rejects_bad_input(field, value, error, match):
    valid = dict(
        M=0.1 * np.eye(2), K=2.5 * np.eye(2), params=AVERAGE_ACCELERATION,
        dt_sub=0.02, f0=np.zeros(2), C=SignedBooleanMatrix(np.array([[1.0, 0.0]])),
    )
    Subdomain(**valid)
    with pytest.raises(error, match=match):
        Subdomain(**{**valid, field: value})


def test_coupling_plan_needs_a_subdomain():
    with pytest.raises(ValueError, match="at least one subdomain"):
        CouplingPlan((), 0.02)


@pytest.mark.parametrize(
    "states, lam, match",
    [
        ((([0.0],) * 3,), np.zeros(1), "one state per subdomain"),
        ((([0.0],) * 3,) * 2, np.zeros(2), "lambda has shape"),
        ((([0.0],) * 3, ([0.0, 0.0],) * 3), np.zeros(1), "state size"),
    ],
    ids=["state_count", "lambda_shape", "state_size"],
)
def test_coupled_system_rejects_mismatched_parts(states, lam, match):
    with pytest.raises(DimensionMismatch, match=match):
        CoupledSystem(
            subdomains=tuple(make_pair()), dt_system=0.02,
            states=tuple(KinematicState(d=d, v=v, a=a) for d, v, a in states),
            lambda_current=lam,
        )


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_redundant_rows_fail_the_consistent_initial_multiplier():
    subs = [
        replace(sub, C=SignedBooleanMatrix(np.vstack([sub.C.data, sub.C.data])))
        for sub in make_pair()
    ]
    with pytest.raises(SingularSaddleSystem, match="consistent multiplier"):
        initialize_coupled_system(subs, 0.02, d0=[[0.1], [0.1]], v0=[[1.0], [1.0]])


def test_consistent_lambda_init_zeroes_acceleration_drift():
    sc = build_sdof2(etas=(1, 1))
    a_drift = sum(
        sub.C.data @ st.a for sub, st in zip(sc.system.subdomains, sc.system.states)
    )
    np.testing.assert_allclose(a_drift, 0.0, atol=1e-12)


def test_zero_lambda_init_leaves_acceleration_drift():
    sys = zero_multiplier_start(build_sdof2(etas=(1, 1)).system)
    assert np.all(sys.lambda_current == 0.0)
    a_drift = sum(sub.C.data @ st.a for sub, st in zip(sys.subdomains, sys.states))
    assert np.abs(a_drift).max() > 1.0  # 0.1 * (k_a/m_a - k_b/m_b) sized


# ---------------------------------------------------------------------------
# Substep building blocks
# ---------------------------------------------------------------------------

def test_interpolate_lambda_endpoints_and_range():
    lam0, lam1 = np.array([1.0, -2.0]), np.array([3.0, 2.0])
    np.testing.assert_allclose(interpolate_lambda(lam0, lam1, 0, 4), lam0)
    np.testing.assert_allclose(interpolate_lambda(lam0, lam1, 4, 4), lam1)
    np.testing.assert_allclose(
        interpolate_lambda(lam0, lam1, 1, 4), 0.75 * lam0 + 0.25 * lam1
    )
    with pytest.raises(ValueError):
        interpolate_lambda(lam0, lam1, 5, 4)
    with pytest.raises(DimensionMismatch):
        interpolate_lambda(lam0, np.zeros(3), 1, 4)


def test_assemble_L_R_blocks():
    sub = make_pair()[0]
    L, R = assemble_L_R(sub)
    n = 1
    dt, beta, gamma = sub.dt_sub, sub.params.beta, sub.params.gamma
    np.testing.assert_allclose(L[:n, :n], sub.M)
    np.testing.assert_allclose(L[:n, 2 * n:], sub.K)
    np.testing.assert_allclose(L[n:2 * n, :n], -gamma * dt * np.eye(n))
    np.testing.assert_allclose(L[2 * n:, :n], -beta * dt * dt * np.eye(n))
    np.testing.assert_allclose(R[n:2 * n, :n], (1 - gamma) * dt * np.eye(n))
    np.testing.assert_allclose(R[2 * n:, :n], (0.5 - beta) * dt * dt * np.eye(n))
    np.testing.assert_allclose(R[2 * n:, n:2 * n], dt * np.eye(n))


def test_step_histories_satisfy_substep_equations():
    # Re-advance every subdomain with the solved multiplier endpoint; the
    # sub-level histories must reproduce themselves.
    sc = build_sdof3(etas=(1, 2, 4))
    sys = sc.system
    for _ in range(3):
        result = advance_system_step(sys)
        for sub, eta, st, hist in zip(
            sys.subdomains, sys.eta, sys.states, sublevel_states(result)
        ):
            prev = st
            f = sub.loads(sys.t_current, eta)
            for j in range(1, eta + 1):
                f_next = f[j]
                redo = subdomain_substep(
                    sub, prev, sys.lambda_current, result.lambda_next, j, eta, f_next
                )
                np.testing.assert_allclose(redo.d, hist[j - 1].d, atol=1e-13)
                np.testing.assert_allclose(redo.v, hist[j - 1].v, atol=1e-13)
                np.testing.assert_allclose(redo.a, hist[j - 1].a, atol=1e-13)
                prev = hist[j - 1]
        sys = sys.apply(result)


def test_sublevel_states_obey_equations_of_motion():
    sc = build_sdof3(etas=(2, 1, 4))
    sys = sc.system
    result = advance_system_step(sys)
    for sub, eta, hist in zip(sys.subdomains, sys.eta, sublevel_states(result)):
        assert len(hist) == eta
        f = sub.loads(sys.t_current, eta)
        for j, st in enumerate(hist, start=1):
            lam_j = interpolate_lambda(
                sys.lambda_current, result.lambda_next, j, eta
            )
            residual = sub.M @ st.a + sub.K @ st.d - f[j] - sub.C.data.T @ lam_j
            np.testing.assert_allclose(residual, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# System stepping
# ---------------------------------------------------------------------------

def test_advance_is_pure():
    sc = build_sdof2()
    sys = sc.system
    d_before = [st.d.copy() for st in sys.states]
    lam_before = sys.lambda_current.copy()
    t_before = sys.t_current
    advance_system_step(sys)
    for st, d in zip(sys.states, d_before):
        np.testing.assert_array_equal(st.d, d)
    np.testing.assert_array_equal(sys.lambda_current, lam_before)
    assert sys.t_current == t_before


def test_velocity_constraint_enforced_each_level():
    sc = build_sdof3(etas=(1, 2, 4))
    sys = sc.system
    for _ in range(20):
        sys = sys.apply(advance_system_step(sys))
        assert np.abs(sys.velocity_residual()).max() <= 1e-12


def test_schur_and_monolithic_paths_agree():
    sc = build_sdof3(etas=(2, 1, 4))
    sys_s = sc.system
    sys_m = sc.system
    for _ in range(10):
        res_s = advance_system_step(sys_s)
        res_m = advance_monolithic(sys_m)
        np.testing.assert_allclose(res_s.lambda_next, res_m.lambda_next, atol=1e-9)
        for hist_s, hist_m in zip(sublevel_states(res_s), sublevel_states(res_m)):
            for a, b in zip(hist_s, hist_m):
                np.testing.assert_allclose(a.d, b.d, atol=1e-9)
                np.testing.assert_allclose(a.v, b.v, atol=1e-9)
                np.testing.assert_allclose(a.a, b.a, atol=1e-9)
        sys_s = sys_s.apply(res_s)
        sys_m = sys_m.apply(res_m)


def test_subdomain_order_does_not_matter():
    subs_ab = make_pair(dt_b=0.005)
    subs_ba = make_pair(dt_b=0.005, sign=(-1, +1))[::-1]
    sys_ab = initialize_coupled_system(
        subs_ab, 0.02, d0=[[0.1], [0.1]], v0=[[1.0], [1.0]]
    )
    sys_ba = initialize_coupled_system(
        subs_ba, 0.02, d0=[[0.1], [0.1]], v0=[[1.0], [1.0]]
    )
    for _ in range(10):
        sys_ab = sys_ab.apply(advance_system_step(sys_ab))
        sys_ba = sys_ba.apply(advance_system_step(sys_ba))
    np.testing.assert_allclose(sys_ab.states[0].d, sys_ba.states[1].d, atol=1e-13)
    np.testing.assert_allclose(sys_ab.states[1].d, sys_ba.states[0].d, atol=1e-13)
    # The multiplier flips sign with the constraint rows.
    np.testing.assert_allclose(
        sys_ab.lambda_current, -sys_ba.lambda_current, atol=1e-13
    )


def test_subcycled_sublevels_interpolate_between_levels():
    # Sanity on the sub-level time grid: eta states per system step, the
    # last one landing on the new system level.
    sc = build_sdof2(etas=(1, 4))
    sys = sc.system
    result = advance_system_step(sys)
    hist = sublevel_states(result)
    assert len(hist[0]) == 1
    assert len(hist[1]) == 4
    final = sys.apply(result)
    np.testing.assert_allclose(hist[1][-1].d, final.states[1].d)


# ---------------------------------------------------------------------------
# Immutability, the per-run plan and sparse operators
# ---------------------------------------------------------------------------

def test_subdomain_is_immutable():
    dense_sub = make_pair()[0]
    sparse_sub = Subdomain(
        M=scipy.sparse.csr_array(np.array([[0.1]])), K=np.array([[2.5]]),
        params=AVERAGE_ACCELERATION, dt_sub=0.02, f0=np.zeros(1),
        C=SignedBooleanMatrix(np.array([[1.0]])),
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        dense_sub.M = np.array([[0.2]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        dense_sub.dt_sub = 0.01
    with pytest.raises(ValueError):
        dense_sub.M[0, 0] = 0.2
    with pytest.raises(ValueError):
        dense_sub.K[0, 0] = 0.2
    with pytest.raises(ValueError):
        sparse_sub.M.data[0] = 0.2
    with pytest.raises(ValueError):
        dense_sub.f0[0] = 1.0
    # The subdomain holds its own copies: the caller's arrays stay
    # writable and later writes to them do not reach the subdomain.
    M, f0 = np.array([[0.1]]), np.array([1.0])
    sub = replace(dense_sub, M=M, f0=f0)
    M[0, 0] = 0.2
    f0[0] = 2.0
    assert sub.M[0, 0] == 0.1 and sub.f0[0] == 1.0


def test_coupled_system_is_immutable():
    # A level keeps read-only copies of its states and multiplier: writes
    # to the arrays it was built from do not reach it, and neither do
    # writes through it.
    d0, v0 = [np.array([0.1]), np.array([0.1])], [np.array([1.0]), np.array([1.0])]
    sys = initialize_coupled_system(make_pair(), 0.02, d0=d0, v0=v0)
    d0[0][0] = 5.0
    v0[1][0] = 5.0
    assert sys.states[0].d[0] == 0.1 and sys.states[1].v[0] == 1.0
    for level in (sys, sys.apply(advance_system_step(sys))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            level.lambda_current = np.zeros(1)
        with pytest.raises(ValueError):
            level.lambda_current[0] = 1.0
        for st in level.states:
            with pytest.raises(dataclasses.FrozenInstanceError):
                st.d = np.zeros(1)
            for x in (st.d, st.v, st.a):
                with pytest.raises(ValueError):
                    x[0] = 1.0
    lam = np.array([2.0])
    level = replace(sys, lambda_current=lam)
    lam[0] = 3.0
    assert level.lambda_current[0] == 2.0


def _held_arrays(name, record):
    """(name, array) for each array a record holds as a field; a CSR
    operator holds three."""
    fields = record._asdict() if isinstance(record, tuple) else vars(record)
    out = []
    for key, value in fields.items():
        if scipy.sparse.issparse(value):
            out += [(f"{name}.{key}.{part}", getattr(value, part))
                    for part in ("data", "indices", "indptr")]
        elif isinstance(value, np.ndarray):
            out.append((f"{name}.{key}", value))
    return out


# name: (builder, propagators forced into the acceleration form, form expected)
READ_ONLY_CASES = {
    "sdof2": (build_sdof2, False, "full"),
    "sdof3": (build_sdof3, False, "full"),
    "bar1d": (build_bar_1d, False, "full"),
    "plate2d": (build_plate_2d, False, "full"),
    "wave2d": (build_wave_2d, False, "acceleration"),  # CSR blocks
    "wave2d_20x10": (lambda: build_wave_2d(nx=20, ny=10), False, "full"),
    "wave2d_20x10_acceleration": (lambda: build_wave_2d(nx=20, ny=10), True, "acceleration"),
}


@pytest.mark.parametrize("name", READ_ONLY_CASES)
def test_every_held_array_is_read_only(name, monkeypatch):
    # Subdomains, constraint matrices, states, levels and the cached
    # multiplier propagators hold no writable array, so neither a cached
    # object nor what it was derived from can be changed behind a step.
    build, acceleration, form = READ_ONLY_CASES[name]
    if acceleration:
        monkeypatch.setattr(coupling, "FULL_PROPAGATOR_MAX_BYTES", 0)
    sys0 = build().system
    sys1 = sys0.apply(advance_system_step(sys0))
    records = [("system", sys0), ("system", sys1)]
    records += [(f"state {k}", st) for level in (sys0, sys1) for k, st in enumerate(level.states)]
    for k, (sub, eta) in enumerate(zip(sys1.subdomains, sys1.eta)):
        props = sub.multiplier_propagators(eta)
        assert props.full == (form == "full")
        records += [(f"subdomain {k}", sub), (f"C {k}", sub.C), (f"propagators {k}", props)]
    arrays = [pair for name, record in records for pair in _held_arrays(name, record)]
    names = {name for name, _ in arrays}
    for k in range(len(sys1.subdomains)):
        for field_name in ("M", "K", "f0"):
            assert any(n.startswith(f"subdomain {k}.{field_name}") for n in names)
        assert {f"C {k}.{f}" for f in ("data", "rows", "dofs", "signs")} <= names
        assert {f"propagators {k}.Y", f"propagators {k}.v_end", f"state {k}.d"} <= names
    assert "system.lambda_current" in names
    writable = sorted({name for name, x in arrays if x.flags.writeable})
    assert not writable, f"writable arrays: {writable}"


def test_interface_factor_built_once_per_run(monkeypatch):
    calls = []
    lu_factor = linalg.lu_factor

    def counted(A):
        calls.append(A.shape)
        return lu_factor(A)

    monkeypatch.setattr(linalg, "lu_factor", counted)
    sys = build_sdof3(etas=(1, 2, 4)).system
    calls.clear()  # the consistent initial multiplier is solved once at build
    plan = sys.plan
    for _ in range(5):
        sys = sys.apply(advance_system_step(sys))
        assert sys.plan is plan
    assert calls == [(2, 2)]


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_redundant_rows_fail_on_every_advance():
    # Two copies of the same constraint row: the interface complement is
    # singular.  The failure is not cached away.
    subs = [
        Subdomain(
            M=np.array([[m]]), K=np.array([[k]]), params=AVERAGE_ACCELERATION,
            dt_sub=0.02, f0=np.zeros(1),
            C=SignedBooleanMatrix(np.array([[sign], [sign]])),
        )
        for m, k, sign in ((0.1, 2.5, 1.0), (0.005, 50.0, -1.0))
    ]
    sys = zero_multiplier_system(subs, 0.02, d0=[[0.1], [0.1]], v0=[[1.0], [1.0]])
    for _ in range(2):
        with pytest.raises(SingularSaddleSystem):
            advance_system_step(sys)


def test_sparse_operators_match_dense_operators():
    # The small wave2d mesh is stored dense; the same model with CSR
    # operators must follow the same trajectory.
    sc = build_wave_2d(nx=10, ny=5, dt_system=2e-3, etas=(2, 1))
    dense_sys = sc.system
    assert not any(scipy.sparse.issparse(sub.M) for sub in dense_sys.subdomains)
    sparse_subs = [
        replace(sub, M=scipy.sparse.csr_array(sub.M), K=scipy.sparse.csr_array(sub.K))
        for sub in dense_sys.subdomains
    ]
    zeros = [np.zeros(sub.n_dofs) for sub in sparse_subs]
    sparse_sys = initialize_coupled_system(sparse_subs, 2e-3, d0=zeros, v0=zeros)
    assert all(scipy.sparse.issparse(sub.K) for sub in sparse_sys.subdomains)
    for _ in range(60):
        res_d = advance_system_step(dense_sys)
        res_s = advance_system_step(sparse_sys)
        for hist_d, hist_s in zip(sublevel_states(res_d), sublevel_states(res_s)):
            for a, b in zip(hist_d, hist_s):
                for x, y in ((a.d, b.d), (a.v, b.v), (a.a, b.a)):
                    np.testing.assert_allclose(y, x, rtol=0, atol=1e-10 * max(np.abs(x).max(), 1e-30))
        np.testing.assert_allclose(
            res_s.lambda_next, res_d.lambda_next, rtol=0,
            atol=1e-10 * np.abs(res_d.lambda_next).max(),
        )
        rep_d = step_energy_report(res_d, dense_sys)
        rep_s = step_energy_report(res_s, sparse_sys)
        for x, y in ((rep_d.total, rep_s.total), (rep_d.e_interface, rep_s.e_interface)):
            assert abs(x - y) <= 1e-10 * rep_d.total
        dense_sys = dense_sys.apply(res_d)
        sparse_sys = sparse_sys.apply(res_s)
        assert np.abs(sparse_sys.velocity_residual()).max() <= 1e-8
    assert rep_d.total > 0.0
