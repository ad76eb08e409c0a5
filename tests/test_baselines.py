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
from mtstep.coupling import advance_system_step, initialize_coupled_system
from mtstep.newmark import AVERAGE_ACCELERATION
from mtstep.problems import build_bar_1d, build_sdof2, build_sdof3, build_wave_2d
from step_reference import sublevel_states


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
            residual = sub.M @ new.a + sub.K @ new.d - f - sub.C.data.T @ lam
            np.testing.assert_allclose(residual, 0.0, atol=1e-11)
            v_residual += sub.C.data @ new.v
        np.testing.assert_allclose(v_residual, 0.0, atol=1e-13)
        sys = sys.apply(result)


def test_backward_euler_factored_once_in_either_storage(monkeypatch):
    # The constant system matrix is factored at the first step only, and
    # the sparse factor (forced here by lowering the size threshold) gives
    # the dense trajectory.
    calls = []
    lu_factor = linalg.lu_factor

    def counted(A):
        calls.append((A.shape, scipy.sparse.issparse(A)))
        return lu_factor(A)

    monkeypatch.setattr(linalg, "lu_factor", counted)
    params = (AVERAGE_ACCELERATION, AVERAGE_ACCELERATION)
    sc = build_wave_2d(nx=10, ny=5, dt_system=2e-3, etas=(1, 1), params=params)
    size = sum(sub.n_dofs for sub in sc.system.subdomains) + sc.system.n_constraints

    def run():
        sys, out = sc.system, []
        for _ in range(40):
            sys = sys.apply(backward_euler_step(sys))
            out.append(np.concatenate([st.d for st in sys.states]))
        return np.array(out)

    calls.clear()
    dense_run = run()
    monkeypatch.setattr(linalg, "SPARSE_MIN_DOFS", 1)
    sc = replace(sc, system=replace(sc.system, plan=None))  # a new run: a new plan
    sparse_run = run()
    assert calls == [((size, size), False), ((size, size), True)]
    scale = np.abs(dense_run).max()
    assert scale > 0.0
    np.testing.assert_allclose(sparse_run, dense_run, rtol=0, atol=1e-10 * scale)


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


def test_merged_newmark_matches_coupled_without_subcycling():
    # eta = 1 and a uniform scheme: the coupled solve and the undecomposed
    # Newmark run are the same algorithm.
    sc = build_sdof2(etas=(1, 1))
    sys = sc.system
    reference = merged_newmark_reference(sys, AVERAGE_ACCELERATION, 25)[0]
    for k in range(25):
        sys = sys.apply(advance_system_step(sys))
        np.testing.assert_allclose(
            sys.states[0].d[0], reference[k + 1].d[0], atol=1e-12
        )
        np.testing.assert_allclose(
            sys.states[1].v[0], reference[k + 1].v[0], atol=1e-12
        )
