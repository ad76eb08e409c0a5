import numpy as np
import pytest

from mtstep import diagnostics
from mtstep.coupling import advance_system_step
from mtstep.newmark import AVERAGE_ACCELERATION, NewmarkParams
from mtstep.problems import build_bar_1d, build_sdof2, build_sdof3
from step_reference import energy_norm, free_vibration_variant, zero_multiplier_start


def run_steps(sys, n, collect=None):
    out = []
    for _ in range(n):
        result = advance_system_step(sys)
        if collect is not None:
            out.append(collect(result, sys))
        sys = sys.apply(result)
    return sys, out


def test_total_energy_manual():
    sc = build_sdof2()
    e = diagnostics.total_energy(sc.system)
    # Both copies start at d = 0.1, v = 1.
    kin = (0.5 * 0.1 * 1.0, 0.5 * 0.005 * 1.0)
    pot = (0.5 * 2.5 * 0.01, 0.5 * 50.0 * 0.01)
    assert e.kinetic == pytest.approx(kin[0] + kin[1])
    assert e.potential == pytest.approx(pot[0] + pot[1])
    assert e.total == pytest.approx(0.315)


def test_add_in_order_does_not_compensate():
    # One addition at a time from the left, as Python 3.11's sum() does;
    # from 3.12 sum() compensates and gives 2.0 here.
    terms = [0.1] * 10 + [1e16, 1.0, -1e16]
    assert diagnostics._add_in_order(terms) == 0.0
    assert diagnostics._add_in_order(terms[10:], 0.5) == 0.0


def test_average_acceleration_no_subcycling_conserves():
    sc = build_sdof2(etas=(1, 1))
    sys = sc.system
    e0 = diagnostics.total_energy(sys).total
    for _ in range(25):
        result = advance_system_step(sys)
        report = diagnostics.step_energy_report(result, sys)
        assert abs(report.e_algorithm) <= 1e-14
        assert abs(report.e_interface) <= 1e-14
        sys = sys.apply(result)
        assert abs(diagnostics.total_energy(sys).total - e0) <= 1e-12 * e0


@pytest.mark.parametrize(
    "build, forms_per_step",
    [
        (build_sdof2, 0),
        (lambda: build_bar_1d(etas=(1, 10, 1)), 0),
        (
            lambda: build_sdof2(
                params=(AVERAGE_ACCELERATION, NewmarkParams(beta=0.25, gamma=0.6))
            ),
            2,
        ),
    ],
    ids=["sdof2", "bar1d", "sdof2_gamma_0.6"],
)
def test_zero_coefficient_energy_terms_are_skipped(build, forms_per_step, monkeypatch):
    # With gamma = 1/2 the V- and T-jump sums have a zero coefficient, and
    # so do the kinetic terms with beta = gamma/2: none of their quadratic
    # forms is computed.  The gamma = 0.6 block (beta = 1/4) needs both.
    calls = []
    half_forms = diagnostics._half_forms

    def counting(A, X):
        calls.append(A)
        return half_forms(A, X)

    monkeypatch.setattr(diagnostics, "_half_forms", counting)
    sys = build().system
    for _ in range(3):
        result = advance_system_step(sys)
        diagnostics.energy_algorithm(result, sys)
        sys = sys.apply(result)
    assert len(calls) == 3 * forms_per_step


def test_energy_balance_free_vibration():
    # f = 0: the step jump in E must equal e_algorithm + e_interface
    # exactly, including subcycling and mixed gamma.
    params = (
        NewmarkParams(beta=0.3025, gamma=0.6),
        AVERAGE_ACCELERATION,
    )
    sc = free_vibration_variant(build_sdof2(etas=(1, 4), params=params))
    sys = sc.system
    for _ in range(25):
        e_before = diagnostics.total_energy(sys).total
        result = advance_system_step(sys)
        report = diagnostics.step_energy_report(result, sys)
        jump = report.total - e_before
        assert abs(jump - report.e_algorithm - report.e_interface) <= 1e-12
        sys = sys.apply(result)


def test_energy_balance_with_external_work():
    # Loaded case: the balance extends by the gamma-weighted work term.
    sc = build_sdof3(etas=(1, 2, 4))
    sys = sc.system
    for _ in range(50):
        e_before = diagnostics.total_energy(sys).total
        result = advance_system_step(sys)
        report = diagnostics.step_energy_report(result, sys)
        work = diagnostics.external_work(result, sys)
        jump = report.total - e_before
        assert abs(jump - report.e_algorithm - report.e_interface - work) <= 1e-12
        sys = sys.apply(result)


def test_dissipative_gamma_strictly_loses_energy():
    params = (
        NewmarkParams(beta=0.3025, gamma=0.6),
        NewmarkParams(beta=0.3025, gamma=0.6),
    )
    sc = build_sdof2(etas=(1, 1), params=params)
    sys = sc.system
    e_prev = diagnostics.total_energy(sys).total
    for _ in range(25):
        result = advance_system_step(sys)
        report = diagnostics.step_energy_report(result, sys)
        assert report.e_algorithm < 0.0
        sys = sys.apply(result)
        e = diagnostics.total_energy(sys).total
        assert e < e_prev
        e_prev = e


def test_drift_recurrences_without_subcycling():
    # Uniform scheme, eta = 1, lambda started at zero so the acceleration
    # drift is non-trivial; the two recurrences must hold exactly.
    params = NewmarkParams(beta=0.3025, gamma=0.6)
    sys = zero_multiplier_start(build_sdof2(etas=(1, 1), params=(params, params)).system)
    dt = sys.dt_system
    beta, gamma = params.beta, params.gamma
    rec = diagnostics.drift_record(sys)
    assert np.abs(rec.a_drift).max() > 1.0
    for _ in range(25):
        sys = sys.apply(advance_system_step(sys))
        nxt = diagnostics.drift_record(sys)
        np.testing.assert_allclose(
            nxt.a_drift, (1.0 - 1.0 / gamma) * rec.a_drift, atol=1e-12
        )
        np.testing.assert_allclose(
            nxt.d_drift,
            rec.d_drift + (0.5 - beta / gamma) * dt * dt * rec.a_drift,
            atol=1e-14,
        )
        np.testing.assert_allclose(nxt.v_residual, 0.0, atol=1e-12)
        rec = nxt


def test_energy_norm_non_increasing_when_force_free():
    sc = free_vibration_variant(build_sdof3(etas=(1, 2, 4)))
    sys = sc.system
    prev = energy_norm(sys)
    assert prev > 0.0
    for _ in range(100):
        sys = sys.apply(advance_system_step(sys))
        cur = energy_norm(sys)
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur
