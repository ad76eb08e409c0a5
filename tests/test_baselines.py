import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from mtstep import diagnostics, linalg
from mtstep.baselines import (
    backward_euler_decay,
    backward_euler_step,
    merge_dof_map,
    merge_system_matrices,
    merged_newmark_reference,
)
from mtstep.coupling import (
    IC_COMPAT_RTOL,
    CouplingPlan,
    advance_system_step,
    initialize_coupled_system,
)
from mtstep.errors import NonFiniteState, SingularSaddleSystem
from mtstep.newmark import AVERAGE_ACCELERATION
from mtstep.problems import (
    build_bar_1d,
    build_plate_2d,
    build_sdof2,
    build_sdof3,
    build_wave_2d,
)
from backward_euler_oracle import backward_euler_kkt_step
from glue_reference import signed_boolean
from step_reference import sublevel_states, zero_multiplier_system


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_backward_euler_rejects_redundant_rows():
    # Two copies of every constraint row make the saddle matrix singular.
    sys0 = build_sdof2().system
    subs = [
        replace(sub, C=signed_boolean(np.vstack([sub.C.toarray()] * 2)))
        for sub in sys0.subdomains
    ]
    d0, v0 = ([getattr(st, name) for st in sys0.states] for name in "dv")
    sys = zero_multiplier_system(subs, sys0.dt_system, d0, v0)
    with pytest.raises(SingularSaddleSystem):
        backward_euler_step(sys)


def test_backward_euler_satisfies_its_equations():
    sc = build_sdof3()
    sys = sc.system
    dt = sys.dt_system
    for _ in range(5):
        result = backward_euler_step(sys)
        lam = result.lambda_next
        v_residual = np.zeros(sys.n_constraints)
        for sub, st, hist in zip(sys.subdomains, sys.states, sublevel_states(result)):
            assert len(hist) == 1
            new = hist[-1]
            # d' = d + dt v'  and  a' = (v' - v)/dt
            np.testing.assert_allclose(new.d, st.d + dt * new.v, atol=1e-13)
            np.testing.assert_allclose(new.a, (new.v - st.v) / dt, atol=1e-10)
            # momentum balance at the new level
            f = sub.loads(sys.t_current + dt)[0]
            residual = sub.M @ new.a + sub.K @ new.d - f - sub.C.toarray().T @ lam
            np.testing.assert_allclose(residual, 0.0, atol=1e-11)
            v_residual += sub.C.toarray() @ new.v
        np.testing.assert_allclose(v_residual, 0.0, atol=1e-13)
        sys = sys.apply(result)


KKT_CASES = [
    pytest.param(build_sdof3, False, id="sdof3"),
    *(
        pytest.param(build, csr, id=f"{name}-{'csr' if csr else 'dense'}")
        for name, build in (
            ("bar1d", build_bar_1d),
            ("plate2d", build_plate_2d),
            ("wave10x5", lambda: build_wave_2d(nx=10, ny=5)),
        )
        for csr in (False, True)
    ),
]


@pytest.mark.parametrize("build, csr", KKT_CASES)
def test_backward_euler_matches_the_assembled_kkt_system(build, csr, monkeypatch):
    # The dual Schur elimination gives the solution of the assembled
    # saddle system, with the blocks stored dense or (by lowering the
    # size threshold before the build) as CSR.
    if csr:
        monkeypatch.setattr(linalg, "SPARSE_MIN_DOFS", 1)
    sys = build().system
    assert all(scipy.sparse.issparse(sub.M) == csr for sub in sys.subdomains)

    def assert_close(got, want):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale

    for _ in range(5):
        result = backward_euler_step(sys)
        reference = backward_euler_kkt_step(sys)
        for got, want in zip(result.histories, reference.histories):
            for x, x_ref in zip(got.rows, want.rows):  # a, v and d
                assert_close(x, x_ref)
        assert_close(result.lambda_next, reference.lambda_next)
        sys = sys.apply(result)
    assert np.abs(sys.lambda_current).max() > 0.0


def test_backward_euler_factored_once_in_either_storage(monkeypatch):
    # One Cholesky factor per subdomain block and one LU of the N_C x N_C
    # complement, made at the first step of a run and reused after it,
    # with the blocks dense and (by lowering the size threshold before
    # the build) as CSR.
    calls = []
    for name in ("cholesky_factor", "lu_factor"):
        factor = getattr(linalg, name)

        def counted(A, name=name, factor=factor):
            calls.append((name, A.shape, scipy.sparse.issparse(A)))
            return factor(A)

        monkeypatch.setattr(linalg, name, counted)
    params = (AVERAGE_ACCELERATION, AVERAGE_ACCELERATION)
    for csr in (False, True):
        if csr:
            monkeypatch.setattr(linalg, "SPARSE_MIN_DOFS", 1)
        sys = build_wave_2d(nx=10, ny=5, dt_system=2e-3, etas=(1, 1), params=params).system
        calls.clear()
        for _ in range(40):
            sys = sys.apply(backward_euler_step(sys))
        n_c = sys.n_constraints
        assert calls == [
            *(("cholesky_factor", (sub.n_dofs,) * 2, csr) for sub in sys.subdomains),
            ("lu_factor", (n_c, n_c), False),
        ]


def test_backward_euler_decay_identity():
    # Per step with f = 0: E' - E = -sum_i (T_i(v'-v) + V_i(d'-d)), exactly.
    sc = build_sdof2(dt_system=0.1, etas=(1, 1))
    sys = sc.system
    for _ in range(20):
        e_before = diagnostics.total_energy(sys).total
        result = backward_euler_step(sys)
        decay = 0.0
        for sub, st, hist in zip(sys.subdomains, sys.states, sublevel_states(result)):
            dv = hist[-1].v - st.v
            dd = hist[-1].d - st.d
            decay += 0.5 * float(dv @ (sub.M @ dv)) + 0.5 * float(dd @ (sub.K @ dd))
        assert backward_euler_decay(result, sys) == -decay
        sys = sys.apply(result)
        e_after = diagnostics.total_energy(sys).total
        assert e_after < e_before
        assert abs((e_after - e_before) + decay) <= 1e-12 * max(e_before, 1.0)


def test_backward_euler_first_order_accuracy():
    def final_error(dt):
        sc = build_sdof2(dt_system=dt, etas=(1, 1))
        sys = sc.system
        n = round(0.1 / dt)
        for _ in range(n):
            sys = sys.apply(backward_euler_step(sys))
        return abs(sys.states[0].d[0] - sc.oracle(sys.t_current))

    e1, e2 = final_error(0.002), final_error(0.001)
    assert 1.7 <= e1 / e2 <= 2.3


def test_merge_dof_map_sdof():
    sc = build_sdof2()
    maps, size = merge_dof_map([sub.C for sub in sc.system.subdomains])
    assert size == 1
    assert all(mp.tolist() == [0] for mp in maps)

    sc3 = build_sdof3()
    _, size3 = merge_dof_map([sub.C for sub in sc3.system.subdomains])
    assert size3 == 1


def test_merge_system_matrices_bar():
    # 15 elements, fixed left node: 15 unknowns after merging the two
    # duplicated interface nodes away.
    sc = build_bar_1d()
    M, K, force, maps = merge_system_matrices(sc.system)
    assert M.shape == (15, 15)
    # Total mass rho A L = 0.1 minus the eliminated fixed-node row and
    # column of the consistent element matrix: (2 + 1 + 1)/6 rho A h.
    np.testing.assert_allclose(M.sum(), 0.1 - (2.0 / 3.0) * 0.1 / 15, rtol=1e-12)
    f = force(0.0)
    assert f[-1] == pytest.approx(10.0)
    assert np.count_nonzero(f) == 1


def test_merged_newmark_requires_uniform_scheme():
    # The bar's middle subdomain is explicit, the outer ones implicit.
    with pytest.raises(ValueError, match="uniform Newmark parameters"):
        merged_newmark_reference(build_bar_1d().system, 5)


def test_merged_newmark_refuses_disagreeing_interface_copies():
    # sdof2 glues its two one-DOF subdomains, both starting at d = 0.1.
    # The merged start takes the last owner's copy, and refuses copies of
    # d that differ by more than IC_COMPAT_RTOL times max |d| (at least 1)
    # rather than drop one.
    sys = build_sdof2().system
    tolerance = IC_COMPAT_RTOL * 1.0

    def start(shift):
        last = replace(sys.states[1], d=sys.states[1].d + shift)
        return next(merged_newmark_reference(replace(sys, states=(sys.states[0], last)), 0)[0])

    np.testing.assert_array_equal(start(0.0).d, [0.1])
    np.testing.assert_array_equal(start(0.5 * tolerance).d, [0.1 + 0.5 * tolerance])
    with pytest.raises(ValueError, match="interface copies of d disagree"):
        start(2.0 * tolerance)


def test_merged_newmark_states_are_computed_as_taken():
    # The middle subdomain's load turns NaN at the third step (index 2):
    # the initial state and two steps come out, the third raises.
    sys = build_sdof3().system
    t_nan = 2.25 * sys.dt_system
    subs = list(sys.subdomains)
    subs[1] = replace(subs[1], g=lambda t: math.nan if t > t_nan else 1.0)
    states = merged_newmark_reference(replace(sys, plan=CouplingPlan(subs, sys.dt_system)), 10)[0]
    taken = list(itertools.islice(states, 3))
    assert len(taken) == 3
    assert all(np.isfinite(st.d).all() for st in taken)
    with pytest.raises(NonFiniteState, match="step 2"):
        next(states)


def test_merged_newmark_matches_coupled_without_subcycling():
    # eta = 1 and a uniform scheme: the coupled solve and the undecomposed
    # Newmark run are the same algorithm.
    sc = build_sdof2(etas=(1, 1))
    sys = sc.system
    reference = list(merged_newmark_reference(sys, 25)[0])
    for k in range(25):
        sys = sys.apply(advance_system_step(sys))
        np.testing.assert_allclose(
            sys.states[0].d[0], reference[k + 1].d[0], atol=1e-12
        )
        np.testing.assert_allclose(
            sys.states[1].v[0], reference[k + 1].v[0], atol=1e-12
        )
