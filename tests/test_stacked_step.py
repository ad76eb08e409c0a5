"""The stacked system step against the per-sub-level reference.

``advance_system_step`` keeps every subdomain's sub-levels as stacked
(eta, n) arrays and the diagnostics work on whole histories at once.
These tests hold both to the straightforward per-sub-level form kept in
``tests/step_reference.py``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mtstep import coupling, diagnostics, problems
from mtstep.coupling import advance_system_step
from mtstep.newmark import AVERAGE_ACCELERATION, NewmarkParams
from saddle_oracle import apply_R
import step_reference


def _bar():
    return problems.build_bar_1d(etas=(1, 1000, 1)).system


def _plate():
    return problems.build_plate_2d().system


def _sdof3():
    return problems.build_sdof3().system


def _close(x, ref, rtol):
    """|x - ref| <= rtol times the largest magnitude of ref."""
    scale = max(np.abs(ref).max(initial=0.0), np.finfo(float).tiny)
    assert np.abs(np.asarray(x) - ref).max(initial=0.0) <= rtol * scale


def _check_against_reference(sys, n_steps):
    # From the same system value each step: sub-level states and dlam to
    # 1e-13 of their scale, and the energy split to 1e-12 of the energy.
    for _ in range(n_steps):
        result = advance_system_step(sys)
        ref = step_reference.reference_step(sys)
        for hist, ref_hist in zip(result.histories, ref.new_states):
            assert hist.d.shape == (len(ref_hist), ref_hist[0].size)
            for name in ("a", "v", "d"):
                _close(
                    getattr(hist, name),
                    np.array([getattr(st, name) for st in ref_hist]),
                    1e-13,
                )
        lam_n = sys.lambda_current
        _close(result.lambda_next - lam_n, ref.lambda_next - lam_n, 1e-13)

        e_before = diagnostics.total_energy(sys).total
        sys_next = sys.apply(result)
        scale = max(e_before, diagnostics.total_energy(sys_next).total)
        assert scale > 0.0
        for stacked, reference in (
            (diagnostics.energy_algorithm, step_reference.energy_algorithm),
            (diagnostics.energy_interface, step_reference.energy_interface),
            (diagnostics.external_work, step_reference.external_work),
        ):
            assert abs(stacked(result, sys) - reference(ref, sys)) <= 1e-12 * scale
        sys = sys_next


@pytest.mark.parametrize(
    "build, n_steps",
    [(_bar, 5), (_plate, 5), (_sdof3, 20)],
    ids=["bar_eta1000", "plate", "forced_sdof3"],
)
def test_stacked_step_matches_per_level_reference(build, n_steps):
    _check_against_reference(build(), n_steps)


def _bar_dissipative():
    # gamma = 0.6 on an explicit and an implicit block.
    params = (NewmarkParams(0.3025, 0.6), NewmarkParams(0.0, 0.6), AVERAGE_ACCELERATION)
    return problems.build_bar_1d(etas=(1, 100, 1), params=params).system


@pytest.mark.parametrize(
    "build, n_steps",
    [(_bar, 5), (_plate, 5), (_bar_dissipative, 5)],
    ids=["bar_eta1000", "plate", "bar_gamma_0.6"],
)
def test_acceleration_form_matches_per_level_reference(build, n_steps, monkeypatch):
    # Every block forced onto the acceleration-only propagators: the
    # Newmark recurrences rebuild v and d within the same bounds.
    monkeypatch.setattr(coupling, "FULL_PROPAGATOR_MAX_BYTES", 0)
    sys = build()
    for sub, eta in zip(sys.subdomains, sys.eta):
        assert not sub.multiplier_propagators(eta).full
    _check_against_reference(sys, n_steps)


def test_forced_energy_balance_bar_eta1000():
    # dE = e_algorithm + e_interface + W_ext over 20 steps of the loaded
    # bar with its explicit subdomain sub-stepped 1000 times.
    sys = _bar()
    energy = diagnostics.total_energy(sys).total
    max_energy, worst = energy, 0.0
    for _ in range(20):
        result = advance_system_step(sys)
        report = diagnostics.step_energy_report(result, sys)
        work = diagnostics.external_work(result, sys)
        worst = max(
            worst,
            abs(report.total - energy - report.e_algorithm - report.e_interface - work),
        )
        sys = sys.apply(result)
        energy = report.total
        max_energy = max(max_energy, energy)
    assert work != 0.0 and max_energy > 0.0
    assert worst <= 1e-9 * max_energy


def _plate_dissipative():
    # gamma = 0.6 on every block (beta = 0.3025 keeps them unconditionally stable).
    return problems.build_plate_2d(params=(NewmarkParams(0.3025, 0.6),) * 4).system


def _wave_dissipative():
    # Block 1 of the small mesh is a 336-DOF CSR block with gamma = 0.6 and beta != 0.
    return problems.build_wave_2d(nx=30, ny=15, params=(NewmarkParams(0.3025, 0.6),) * 2).system


@pytest.mark.parametrize(
    "build, index, rows",
    [
        (_plate, 0, "full"),
        (_bar, 1, "full"),
        (_sdof3, 0, "full"),
        (lambda: problems.build_wave_2d(nx=30, ny=15).system, 1, "full"),
        (lambda: problems.build_wave_2d().system, 0, "full"),
        (_plate, 3, "full"),
        (_plate_dissipative, 0, "full"),
        (_bar, 1, "alternating"),
        (_wave_dissipative, 1, "full"),
        (_wave_dissipative, 1, "alternating"),
        (lambda: problems.build_wave_2d().system, 0, "alternating"),
    ],
    ids=[
        "plate", "bar_eta1000", "sdof3", "wave2d_sparse",
        "wave2d_explicit_sparse", "plate_implicit", "plate_gamma_0.6",
        "bar_eta1000_alternating_rows", "wave2d_gamma_0.6",
        "wave2d_gamma_0.6_alternating_rows", "wave2d_explicit_sparse_alternating_rows",
    ],
)
def test_sweep_reproduces_substeps_exactly(build, index, rows, monkeypatch):
    # One sweep over stacked arrays gives the bits of apply-R-then-solve
    # taken one sub-step at a time, for vector and stacked-column states,
    # and only reads its initial state.  The cases cover the sweep's one
    # loop on explicit (beta = 0) and implicit blocks, each dense and CSR
    # (plate and bar explicit dense, wave2d_explicit_sparse (836 DOFs)
    # explicit CSR, sdof3 and plate_implicit implicit dense, wave2d_sparse
    # implicit CSR), and gamma != 1/2 blocks, dense and CSR, which the
    # loop takes without reusing gamma dt a as the next (1 - gamma) dt a.
    # With alternating rows, V and D are the two rows each that the
    # acceleration-form propagators write (only the last two levels
    # survive), and the propagators built that way keep the reference's
    # bits too.
    sub = build().subdomains[index]
    solver = sub.solver()
    rng = np.random.default_rng(7)
    for shape in ((sub.n_dofs,), (sub.n_dofs, 3)):
        loads = rng.standard_normal((6, *shape))
        a0, v0, d0 = (rng.standard_normal(shape) for _ in range(3))
        initial = (a0.copy(), v0.copy(), d0.copy())
        A, V, D = loads.copy(), np.empty_like(loads), np.empty_like(loads)
        if rows == "alternating":
            V_rows, D_rows = np.empty((2, 2, *shape))
            V = [V_rows[j % 2] for j in range(len(loads))]
            D = [D_rows[j % 2] for j in range(len(loads))]
        solver.sweep(a0, v0, d0, A, V, D)
        for x, x_copy in zip((a0, v0, d0), initial):
            np.testing.assert_array_equal(x, x_copy)
        a, v, d = a0, v0, d0
        for j in range(len(loads)):
            ra, rv, rd = apply_R(sub, a, v, d)
            a, v, d = solver.solve_rows(ra + loads[j], rv, rd)
            np.testing.assert_array_equal(A[j], a)
            if rows == "full" or j >= len(loads) - 2:
                np.testing.assert_array_equal(V[j], v)
                np.testing.assert_array_equal(D[j], d)
    if rows == "alternating":
        monkeypatch.setattr(coupling, "FULL_PROPAGATOR_MAX_BYTES", 0)
        props = sub.multiplier_propagators(6)
        assert not props.full
        reference = step_reference.propagators(sub, 6)
        np.testing.assert_array_equal(props.Y, np.array([level[0] for level in reference]))
        np.testing.assert_array_equal(props.v_end, reference[-1][1])


def test_propagators_stored_once_as_stacked_arrays():
    sys = _plate()
    for sub, eta in zip(sys.subdomains, sys.eta):
        stacked = sub.multiplier_propagators(eta)
        assert stacked.Y.shape == (3, eta, sub.n_dofs, sub.n_constraints)
        assert sub.multiplier_propagators(eta) is stacked
        reference = step_reference.propagators(sub, eta)
        for k, Y in enumerate(stacked.Y):
            np.testing.assert_array_equal(Y, np.array([level[k] for level in reference]))
        np.testing.assert_array_equal(stacked.v_end, reference[-1][1])


def test_acceleration_form_keeps_the_bits_of_the_full_form(monkeypatch):
    # The alternating velocity and displacement rows change no bit of the
    # stored accelerations or of the end velocity the complement reads.
    sys = _plate()
    full = [sub.multiplier_propagators(eta) for sub, eta in zip(sys.subdomains, sys.eta)]
    monkeypatch.setattr(coupling, "FULL_PROPAGATOR_MAX_BYTES", 0)
    sys = _plate()
    for sub, eta, ref in zip(sys.subdomains, sys.eta, full):
        props = sub.multiplier_propagators(eta)
        assert props.Y.shape == (eta, sub.n_dofs, sub.n_constraints)
        np.testing.assert_array_equal(props.Y, ref.Y[0])
        np.testing.assert_array_equal(props.v_end, ref.Y[1, -1])


def test_propagator_form_follows_the_size_rule():
    # Only blocks whose full propagators exceed the size bound store the
    # accelerations alone: both default wave2d blocks (8.8 and 3.3 MB),
    # none of bar eta = 1000, the plate or the sdof chains.
    for name, build in (
        ("bar", _bar),
        ("plate", _plate),
        ("sdof2", lambda: problems.build_sdof2().system),
        ("sdof3", _sdof3),
    ):
        sys = build()
        for sub, eta in zip(sys.subdomains, sys.eta):
            props = sub.multiplier_propagators(eta)
            assert props.Y.shape == (3, eta, sub.n_dofs, sub.n_constraints), name
    sys = problems.build_wave_2d().system
    for sub, eta in zip(sys.subdomains, sys.eta):
        props = sub.multiplier_propagators(eta)
        assert 3 * props.Y.size * 8 > coupling.FULL_PROPAGATOR_MAX_BYTES
        assert props.Y.shape == (eta, sub.n_dofs, sub.n_constraints)
        assert props.v_end.shape == (sub.n_dofs, sub.n_constraints)


def test_acceleration_form_on_wave2d_keeps_the_invariants():
    # The default wave2d (both blocks in the acceleration form) under its
    # load burst: |sum C v| <= 1e-8 and dE = e_alg + e_int + W_ext to
    # 1e-9 of the largest energy over a few steps.
    sys = problems.build_wave_2d().system
    energy = max_energy = diagnostics.total_energy(sys).total
    worst = 0.0
    for _ in range(5):
        result = advance_system_step(sys)
        report = diagnostics.step_energy_report(result, sys)
        work = diagnostics.external_work(result, sys)
        worst = max(
            worst,
            abs(report.total - energy - report.e_algorithm - report.e_interface - work),
        )
        sys = sys.apply(result)
        assert np.abs(sys.velocity_residual()).max() <= 1e-8
        energy = report.total
        max_energy = max(max_energy, energy)
    assert max_energy > 0.0
    assert worst <= 1e-9 * max_energy


def test_step_carries_its_loads():
    # A constant load (sdof3) is f0 broadcast over the eta + 1 sub-levels,
    # read-only and with no load function to call.  A time-varying one
    # calls g once per sub-level, and hist.f holds g(t_j) f0 at
    # t_j = t_n + j dt_sub; external_work reads hist.f and calls nothing.
    sys = _sdof3().apply(advance_system_step(_sdof3()))
    result = advance_system_step(sys)
    for sub, eta, hist in zip(sys.subdomains, sys.eta, result.histories):
        assert sub.g is None
        assert hist.f.shape == (eta + 1, sub.n_dofs)
        assert np.shares_memory(hist.f, sub.f0) and not hist.f.flags.writeable
        np.testing.assert_array_equal(hist.f, np.broadcast_to(sub.f0, hist.f.shape))

    calls = []

    def g(t):
        calls.append(t)
        return math.cos(7.0 * t) - 0.5

    subs = tuple(replace(sub, g=g) for sub in sys.subdomains)
    sys = replace(sys, subdomains=subs, plan=None)
    result = advance_system_step(sys)
    assert len(calls) == sum(eta + 1 for eta in sys.eta)
    for sub, eta, hist in zip(sys.subdomains, sys.eta, result.histories):
        times = [sys.t_current + j * sub.dt_sub for j in range(eta + 1)]
        assert hist.f.shape == (eta + 1, sub.n_dofs)
        want = np.array([g(t) * sub.f0 for t in times])
        np.testing.assert_array_equal(hist.f.view(np.int64), want.view(np.int64))
    calls.clear()
    diagnostics.external_work(result, sys)
    assert calls == []


def _with_negative_zeros(sys):
    # sdof3 with every zero of every C stored as -0.0, which the ramp
    # loads must turn into +0.0 as the reference's 0.0 + (j/eta) C^T does.
    subs = tuple(
        replace(sub, C=coupling.SignedBooleanMatrix(np.where(sub.C.data == 0.0, -0.0, sub.C.data)))
        for sub in sys.subdomains
    )
    return replace(sys, subdomains=subs, plan=None)


@pytest.mark.parametrize(
    "build, acceleration_form",
    [
        (_bar, False),
        (_plate, False),
        (_sdof3, False),
        (lambda: _with_negative_zeros(_sdof3()), False),
        (lambda: problems.build_wave_2d(nx=20, ny=10).system, True),
    ],
    ids=["bar_eta1000", "plate", "sdof3", "sdof3_negative_zeros", "wave2d_20x10_acceleration"],
)
def test_propagators_keep_the_bits_of_the_reference(build, acceleration_form, monkeypatch):
    # Every stored response (Y in the full form, the a responses in the
    # acceleration form) and v_end carry the bits, signs of zeros
    # included, of the per-level reference propagators.
    if acceleration_form:
        monkeypatch.setattr(coupling, "FULL_PROPAGATOR_MAX_BYTES", 0)
    sys = build()
    for sub, eta in zip(sys.subdomains, sys.eta):
        props = sub.multiplier_propagators(eta)
        assert props.full is not acceleration_form
        reference = step_reference.propagators(sub, eta)
        want = np.array(reference).transpose(1, 0, 2, 3)  # (3, eta, n, N_C)
        got = props.Y if props.full else props.Y[None]
        assert got.shape == want[: len(got)].shape
        assert got.tobytes() == want[: len(got)].tobytes()
        assert props.v_end.tobytes() == reference[-1][1].tobytes()
