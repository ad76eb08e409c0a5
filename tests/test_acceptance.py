"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with the
measured quantities before asserting, so the full scoreboard is visible
in the pytest report (``-rA`` is set in pyproject.toml).

Expensive runs (the 2-D wave problem, the bar and plate sweeps) are
executed once and shared across criteria through cached helpers.
"""

import functools
import math

import numpy as np
import pytest

from mtstep import diagnostics, problems
from mtstep.baselines import backward_euler_step, merged_newmark_reference
from mtstep.coupling import (
    SignedBooleanMatrix,
    Subdomain,
    advance_system_step,
    initialize_coupled_system,
)
from mtstep.newmark import AVERAGE_ACCELERATION, CENTRAL_DIFFERENCE, NewmarkParams
from step_reference import energy_norm, free_vibration_variant, zero_multiplier_start


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


class RunRecord:
    """Per-step bookkeeping shared by several criteria."""

    def __init__(self):
        self.max_balance_rel = 0.0     # |dE - e_alg - e_int - W| / max energy
        self.max_v_residual_rel = 0.0  # |sum C v| / velocity scale
        self.e_interface = []
        self.energies = []
        self.final = None


def run_coupled(sys, n_steps, probe=None):
    rec = RunRecord()
    probe_vals = []
    max_energy = max(diagnostics.total_energy(sys).total, 1e-30)
    max_balance = 0.0
    max_v = 1e-30
    max_res = 0.0
    rec.energies.append(diagnostics.total_energy(sys).total)
    for _ in range(n_steps):
        e_before = diagnostics.total_energy(sys).total
        result = advance_system_step(sys)
        rep = diagnostics.step_energy_report(result, sys)
        work = diagnostics.external_work(result, sys)
        max_balance = max(
            max_balance,
            abs(rep.total - e_before - rep.e_algorithm - rep.e_interface - work),
        )
        rec.e_interface.append(rep.e_interface)
        sys = sys.apply(result)
        rec.energies.append(rep.total)
        max_energy = max(max_energy, rep.total)
        max_v = max(max_v, *(np.abs(st.v).max(initial=0.0) for st in sys.states))
        max_res = max(max_res, np.abs(sys.velocity_residual()).max(initial=0.0))
        if probe is not None:
            i, dof = probe
            probe_vals.append((sys.t_current, float(sys.states[i].d[dof])))
    rec.max_balance_rel = max_balance / max_energy
    rec.max_v_residual_rel = max_res / max_v
    rec.final = sys
    return rec, probe_vals


@functools.lru_cache(maxsize=None)
def sdof2_run():
    sc = problems.build_sdof2(etas=(1, 1))
    return run_coupled(sc.system, 25)[0]


@functools.lru_cache(maxsize=None)
def sdof3_run():
    sc = problems.build_sdof3()
    return run_coupled(sc.system, 500)[0]


@functools.lru_cache(maxsize=None)
def bar_run(eta_b):
    sc = problems.build_bar_1d(etas=(1, eta_b, 1))
    rec, probe = run_coupled(sc.system, 25, probe=sc.probes[0])
    return rec, probe, sc


@functools.lru_cache(maxsize=None)
def plate_run(etas, dt_system=0.1, params=None):
    kwargs = {} if params is None else {"params": params}
    sc = problems.build_plate_2d(dt_system=dt_system, etas=etas, **kwargs)
    return run_coupled(sc.system, round(sc.duration / dt_system))[0]


@functools.lru_cache(maxsize=None)
def wave_run():
    sc = problems.build_wave_2d()
    n_steps = round(sc.duration / sc.system.dt_system)
    rec, _ = run_coupled(sc.system, n_steps)
    return rec


def test_criterion_01_exact_energy_conservation():
    rec = sdof2_run()
    worst = max(abs(e - 0.315) / 0.315 for e in rec.energies)
    report(1, worst <= 1e-9, f"max |E - 0.315|/0.315 = {worst:.3e} (<= 1e-9)")


def test_criterion_02_merged_oracle_match():
    # With eta = (1, 1) and one scheme everywhere, velocity gluing is
    # primal gluing: the coupled run is the merged (undecomposed) Newmark
    # run, up to round-off.  Both carry the same second-order error
    # against the closed form, so accuracy is checked by its order only.
    def run(dt):
        sc = problems.build_sdof2(dt_system=dt, etas=(1, 1))
        sys = sc.system
        n_steps = round(0.5 / dt)
        merged = list(merged_newmark_reference(sys, n_steps)[0])
        deviation = error = 0.0
        for ref in merged[1:]:
            sys = sys.apply(advance_system_step(sys))
            d = sys.states[0].d[0]
            deviation = max(deviation, abs(d - ref.d[0]))
            error = max(error, abs(d - sc.oracle(sys.t_current)))
        return deviation, error

    dev_coarse, e_coarse = run(0.02)
    dev_fine, e_fine = run(0.01)
    ratio = e_coarse / e_fine
    ok = dev_coarse <= 1e-12 and dev_fine <= 1e-12 and 3.5 <= ratio <= 4.5
    report(
        2, ok,
        f"max |d_coupled - d_merged| at dt=0.02/0.01: {dev_coarse:.2e}, "
        f"{dev_fine:.2e} (<= 1e-12); closed-form error ratio dt=0.02 vs 0.01: "
        f"{ratio:.2f} (in [3.5, 4.5])",
    )


def test_criterion_03_backward_euler_dissipation_contrast():
    sc = problems.build_sdof2(dt_system=0.1, etas=(1, 1), duration=5.0)
    sys_be = sc.system
    e0 = diagnostics.total_energy(sys_be).total
    for _ in range(50):
        sys_be = sys_be.apply(backward_euler_step(sys_be))
    e_be = diagnostics.total_energy(sys_be).total

    sys_cp = problems.build_sdof2(dt_system=0.1, etas=(1, 1)).system
    worst = 0.0
    for _ in range(50):
        sys_cp = sys_cp.apply(advance_system_step(sys_cp))
        worst = max(worst, abs(diagnostics.total_energy(sys_cp).total - e0) / e0)

    ok = e_be < 0.5 * e0 and worst <= 1e-9
    report(
        3, ok,
        f"backward Euler keeps {e_be / e0:.2e} of E0 by t=5 (< 0.5); "
        f"coupled max |dE|/E0 = {worst:.2e} (<= 1e-9)",
    )


def test_criterion_04_bar_critical_time_steps():
    crit_5 = problems.build_bar_1d().system.subdomains[1].critical_dt()
    crit_10 = problems.build_bar_1d(
        elements_per_subdomain=(5, 10, 5), etas=(1, 100, 1)
    ).system.subdomains[1].critical_dt()
    ok_5 = abs(crit_5 - 1.217e-4) <= 0.01 * 1.217e-4
    ok_10 = abs(crit_10 - 6.085e-5) <= 0.01 * 6.085e-5
    report(
        4, ok_5 and ok_10,
        f"(5,5,5): {crit_5:.4e} vs 1.217e-4; (5,10,5): {crit_10:.4e} vs 6.085e-5 "
        "(both within 1%, consistent mass)",
    )


def test_criterion_05_energy_norm_monotone_force_free():
    # sdof2 is force-free already (with non-trivial initial conditions);
    # the loaded benchmarks are switched to their free-vibration variants,
    # started from the static deflection of the original load.
    cases = [
        ("sdof2", problems.build_sdof2().system, 25),
        ("sdof3", free_vibration_variant(problems.build_sdof3()).system, 500),
        ("bar1d", free_vibration_variant(problems.build_bar_1d()).system, 25),
        (
            "plate2d",
            free_vibration_variant(problems.build_plate_2d()).system,
            20,
        ),
    ]
    worst_name, worst_rel = "-", 0.0
    for name, sys, n_steps in cases:
        prev = energy_norm(sys)
        for _ in range(n_steps):
            sys = sys.apply(advance_system_step(sys))
            cur = energy_norm(sys)
            rel_increase = (cur - prev) / max(prev, 1e-30)
            if rel_increase > worst_rel:
                worst_name, worst_rel = name, rel_increase
            prev = cur
    report(
        5, worst_rel <= 1e-10,
        f"max relative energy-norm increase {worst_rel:.2e} "
        f"(worst on {worst_name}; slack 1e-10)",
    )


def test_criterion_06_drift_recurrences():
    params = (CENTRAL_DIFFERENCE,) * 4
    sc = problems.build_plate_2d(dt_system=0.01, etas=(1, 1, 1, 1), params=params)
    sys = zero_multiplier_start(sc.system)
    dt = sys.dt_system
    beta, gamma = 0.0, 0.5
    rec = diagnostics.drift_record(sys)
    worst = 0.0
    for _ in range(100):
        sys = sys.apply(advance_system_step(sys))
        nxt = diagnostics.drift_record(sys)
        res_a = np.abs(nxt.a_drift - (1.0 - 1.0 / gamma) * rec.a_drift).max()
        res_d = np.abs(
            nxt.d_drift - rec.d_drift - (0.5 - beta / gamma) * dt * dt * rec.a_drift
        ).max()
        worst = max(worst, res_a, res_d)
        rec = nxt
    report(6, worst <= 1e-9, f"max recurrence residual {worst:.2e} (<= 1e-9)")


def test_criterion_07_velocity_residual_everywhere():
    runs = {
        "sdof2": sdof2_run(),
        "sdof3": sdof3_run(),
        "bar1d": bar_run(10)[0],
        "plate2d": plate_run((5, 5, 5, 1)),
        "wave2d": wave_run(),
    }
    worst = max(rec.max_v_residual_rel for rec in runs.values())
    report(
        7, worst <= 1e-8,
        f"max |sum C v| / velocity scale = {worst:.2e} over all benchmarks (<= 1e-8)",
    )


def test_criterion_08_energy_balance_identity():
    runs = {
        "sdof2": sdof2_run(),
        "sdof3": sdof3_run(),
        "bar1d": bar_run(10)[0],
        "plate2d": plate_run((5, 5, 5, 1)),
        "wave2d": wave_run(),
    }
    worst = max(rec.max_balance_rel for rec in runs.values())
    report(
        8, worst <= 1e-9,
        f"max |dE - e_alg - e_int - W_ext| / E = {worst:.2e} "
        "over all benchmarks (<= 1e-9)",
    )


def test_criterion_09_subcycling_indicator_ordering():
    # e_interface is the coupling's energy error: (i) zero without
    # sub-stepping when every scheme conserves energy, (ii) switched on by
    # sub-stepping, (iii) shrinking as dt_system is refined at a fixed
    # eta-set.  (i) and (ii) are judged against each run's maximum energy.
    def indicator(rec):
        return max(abs(e) for e in rec.e_interface), max(rec.energies)

    no_substep, e_max = indicator(
        plate_run((1, 1, 1, 1), params=(AVERAGE_ACCELERATION,) * 4)
    )
    ok_zero = no_substep <= 1e-12 * e_max
    eta_sets = ((5, 5, 5, 1), (10, 10, 10, 2), (20, 20, 20, 4))
    ok_on = ok_refine = True
    details = []
    for etas in eta_sets:
        runs = [indicator(plate_run(etas, dt)) for dt in (0.1, 0.05, 0.025)]
        (coarse, e_max_coarse), (mid, _), (fine, _) = runs
        ok_on &= coarse >= 1e-6 * e_max_coarse
        ok_refine &= coarse > mid > fine
        details.append(f"{etas}: {coarse:.2e}, {mid:.2e}, {fine:.2e}")
    report(
        9, ok_zero and ok_on and ok_refine,
        f"max |e_interface| without sub-stepping: {no_substep:.1e} (<= 1e-12 max E); "
        "with sub-stepping at dt_system = 0.1/0.05/0.025: "
        + "; ".join(details)
        + " (>= 1e-6 max E at 0.1, strictly decreasing)",
    )


def test_criterion_10_bar_subcycling_accuracy():
    # Sub-stepping the explicit middle subdomain removes its share of the
    # error, and the tip value converges in eta_B.  What remains past
    # eta_B ~ 50 is the error of the coarse implicit subdomains and the
    # mesh, around which |error| wobbles, so no ordering is asserted
    # between eta_B = 100 and 1000 beyond convergence of the tip value.
    tips, errors = [], []
    for eta_b in (10, 100, 1000):
        rec, probe, sc = bar_run(eta_b)
        t_final, d_final = probe[-1]
        tips.append(d_final)
        errors.append(abs(d_final - sc.oracle(t_final)))
    contraction = abs(tips[2] - tips[1]) / abs(tips[1] - tips[0])
    ok = errors[1] <= errors[0] and errors[2] <= errors[0] and contraction <= 0.1
    report(
        10, ok,
        "final tip errors for eta_B = 10/100/1000: "
        + ", ".join(f"{e:.4e}" for e in errors)
        + " (100 and 1000 <= 10); |d(1000) - d(100)| / |d(100) - d(10)| = "
        + f"{contraction:.1e} (<= 0.1)",
    )


def test_criterion_11_wave_extrema():
    rec = wave_run()
    sys = rec.final
    values = np.concatenate([st.d for st in sys.states])
    u_min, u_max = values.min(), values.max()
    ok_min = abs(u_min - (-0.053)) <= 0.15 * 0.053
    ok_max = abs(u_max - 0.133) <= 0.15 * 0.133
    report(
        11, ok_min and ok_max,
        f"t=0.25 extrema: u_min={u_min:.4f} vs -0.053, u_max={u_max:.4f} vs 0.133 "
        "(within 15%)",
    )


def test_criterion_12_brute_force_oracle_equivalence():
    rng = np.random.default_rng(20240823)

    def random_spd(n):
        A = rng.standard_normal((n, n))
        return A @ A.T + n * np.eye(n)

    worst = 0.0
    for _ in range(50):
        n1, n2 = (int(x) for x in rng.integers(2, 7, size=2))
        M1, M2 = random_spd(n1), random_spd(n2)
        K1, K2 = random_spd(n1), random_spd(n2)
        gamma = 0.5 + 0.5 * rng.random()
        beta = gamma / 2 + 0.5 * rng.random()  # unconditionally stable
        params = NewmarkParams(beta=beta, gamma=gamma)
        nc = int(rng.integers(1, min(n1, n2) + 1))
        C1 = np.zeros((nc, n1))
        C2 = np.zeros((nc, n2))
        for k, (r1, r2) in enumerate(
            zip(rng.choice(n1, nc, replace=False), rng.choice(n2, nc, replace=False))
        ):
            C1[k, r1] = 1.0
            C2[k, r2] = -1.0
        f1, f2 = rng.standard_normal(n1), rng.standard_normal(n2)
        g1, g2 = (lambda t: math.cos(3 * t)), (lambda t: math.sin(2 * t))
        forces = [lambda t: g1(t) * f1, lambda t: g2(t) * f2]  # for the reference
        dt = 0.05
        subs = [
            Subdomain(M=M1, K=K1, params=params, dt_sub=dt, f0=f1,
                      C=SignedBooleanMatrix(C1), g=g1),
            Subdomain(M=M2, K=K2, params=params, dt_sub=dt, f0=f2,
                      C=SignedBooleanMatrix(C2), g=g2),
        ]
        sys = initialize_coupled_system(
            subs, dt,
            d0=[rng.standard_normal(n1), rng.standard_normal(n2)],
            v0=[np.zeros(n1), np.zeros(n2)],
        )

        # Brute-force reference: one dense KKT solve per step for the
        # undecomposed unknowns (a_i, v_i, d_i, lambda), imposing the
        # equations of motion, both Newmark updates and the velocity
        # constraint directly.
        st = [(s.d.copy(), s.v.copy(), s.a.copy()) for s in sys.states]
        N = n1 + n2
        for step in range(100):
            t1 = (step + 1) * dt
            A = np.zeros((3 * N + nc, 3 * N + nc))
            b = np.zeros(3 * N + nc)
            off = row = 0
            for Mi, Ki, Ci, Fi, ni, (d, v, a) in (
                (M1, K1, C1, forces[0], n1, st[0]),
                (M2, K2, C2, forces[1], n2, st[1]),
            ):
                ia, iv, id_ = off, off + ni, off + 2 * ni
                A[row:row + ni, ia:ia + ni] = Mi
                A[row:row + ni, id_:id_ + ni] = Ki
                A[row:row + ni, 3 * N:] = -Ci.T
                b[row:row + ni] = Fi(t1)
                row += ni
                A[row:row + ni, id_:id_ + ni] = np.eye(ni)
                A[row:row + ni, ia:ia + ni] = -beta * dt * dt * np.eye(ni)
                b[row:row + ni] = d + dt * v + dt * dt / 2 * (1 - 2 * beta) * a
                row += ni
                A[row:row + ni, iv:iv + ni] = np.eye(ni)
                A[row:row + ni, ia:ia + ni] = -gamma * dt * np.eye(ni)
                b[row:row + ni] = v + dt * (1 - gamma) * a
                row += ni
                off += 3 * ni
            A[row:row + nc, n1:2 * n1] = C1
            A[row:row + nc, 3 * n1 + n2:3 * n1 + 2 * n2] = C2
            x = np.linalg.solve(A, b)
            st = [
                (x[2 * n1:3 * n1], x[n1:2 * n1], x[:n1]),
                (x[3 * n1 + 2 * n2:3 * N], x[3 * n1 + n2:3 * n1 + 2 * n2],
                 x[3 * n1:3 * n1 + n2]),
            ]
            lam = x[3 * N:]
            sys = sys.apply(advance_system_step(sys))
            for i, (dd, vv, aa) in enumerate(st):
                s = sys.states[i]
                worst = max(
                    worst,
                    np.abs(s.d - dd).max(),
                    np.abs(s.v - vv).max(),
                    np.abs(s.a - aa).max(),
                )
            worst = max(worst, np.abs(sys.lambda_current - lam).max())
    report(
        12, worst <= 1e-8,
        f"max deviation from brute-force KKT solve: {worst:.2e} "
        "(50 trials x 100 steps, <= 1e-8)",
    )
