"""The coupled step's invariants on random chains of small subdomains.

Each draw glues a chain of 1-4 subdomains of 1-8 DOFs at coincident
points of a line (``problems._chain_constraints``): every subdomain
shares at least one point with the one before it.  Every subdomain gets random SPD
M and K, stored dense or as CSR, its own (beta, gamma) and sub-step
ratio eta in 1..20; the system step puts every sub-step at or below 0.9
of the subdomain's exact critical step.  The load is zero, constant or
a smooth function of time, and the multiplier propagators take either
form.  On every draw:

* dE = e_algorithm + e_interface + W_ext, step by step, to 1e-9 of the
  largest energy;
* |sum_i C_i v_i| <= 1e-8 at every system level;
* the Schur-complement step equals the assembled saddle solve
  (``tests/saddle_oracle.py``) to 1e-8 of each quantity's scale;
* when force-free, the energy method's certificate holds
  (``test_energy_certificate.py``): no committed level's functional
  grows over a step;
* a sub-step (1 + 1e-8) times the exact critical step is rejected, and
  one (1 - 1e-8) times it is accepted.

The examples are derandomised: every run draws the same ones.  On copies
of the solver with one of these faults the module fails: propagators
lagged one sub-level, a 1e-6 velocity amplification in
``EffectiveSolver.sweep``, the critical-step guard relaxed by 1e-6, a
dropped term of the external work, and (1 - gamma) in place of gamma in
``coupling._add_newmark_response``.
"""

import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstep import coupling, diagnostics, linalg
from mtstep.coupling import CouplingPlan, Subdomain, advance_system_step, initialize_coupled_system
from mtstep.newmark import NewmarkParams
from mtstep.problems import _chain_constraints
from saddle_oracle import advance_monolithic
from step_reference import plan_propagators
from test_energy_certificate import certificate, check_certificate

#: System steps taken on every draw.
STEPS = 3

#: Points of the line a subdomain's DOFs sit on; equal points are glued.
POINTS = 8


def exact_critical_step(M, K, params: NewmarkParams) -> float:
    """1 / (omega_max sqrt(gamma/2 - beta)) from a dense eigensolve; inf if 2 beta >= gamma."""
    if 2.0 * params.beta >= params.gamma:
        return math.inf
    omega_sq = scipy.linalg.eigh(linalg.dense(K), linalg.dense(M), eigvals_only=True)[-1]
    return 1.0 / math.sqrt(omega_sq * (0.5 * params.gamma - params.beta))


def _spd(rng, n: int, low: float) -> np.ndarray:
    """A random symmetric matrix with eigenvalues at least ``low``."""
    B = rng.standard_normal((n, n))
    A = B @ B.T / n + low * np.eye(n)
    return 0.5 * (A + A.T)


@dataclass
class Case:
    system: coupling.CoupledSystem
    acceleration_form: bool
    force_free: bool


@st.composite
def cases(draw):
    """A consistent coupled system drawn as the module docstring says."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    load = draw(st.sampled_from(["zero", "constant", "smooth"]))
    parts = []
    points = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 8))
        # A link of the chain: one point shared with the previous subdomain.
        shared = [draw(st.sampled_from(points))] if points else []
        others = st.integers(0, POINTS - 1).filter(lambda x: x not in shared)
        size = n - len(shared)
        points = shared + draw(st.lists(others, min_size=size, max_size=size, unique=True))
        M, K = _spd(rng, n, 0.5), draw(st.floats(0.1, 10.0)) * _spd(rng, n, 0.1)
        if draw(st.booleans()):
            M, K = scipy.sparse.csr_array(M), scipy.sparse.csr_array(K)
        gamma = draw(st.floats(0.5, 1.0))
        beta = 0.0 if draw(st.booleans()) else draw(st.floats(0.0, 0.6))
        params = NewmarkParams(beta, gamma)
        f0 = np.zeros(n) if load == "zero" else rng.standard_normal(n)
        g = None
        if load == "smooth":
            omega, phase = draw(st.floats(0.5, 5.0)), draw(st.floats(0.0, 3.0))
            g = lambda t, omega=omega, phase=phase: math.sin(omega * t + phase)  # noqa: E731
        eta = draw(st.integers(1, 20))
        locations = np.array(points, dtype=float)[:, None]
        parts.append((M, K, params, f0, g, eta, locations))

    # Every sub-step at most 0.9 of its exact critical step.
    limit = min(
        [0.5] + [0.9 * eta * exact_critical_step(M, K, p) for M, K, p, _, _, eta, _ in parts]
    )
    dt_system = draw(st.floats(0.1, 1.0)) * limit
    Cs = _chain_constraints([loc for *_, loc in parts])
    subs = [
        Subdomain(M=M, K=K, params=p, dt_sub=dt_system / eta, f0=f0, C=C, g=g)
        for (M, K, p, f0, g, eta, _), C in zip(parts, Cs)
    ]
    d0 = [rng.standard_normal(sub.n_dofs) for sub in subs]
    v_all = rng.standard_normal(sum(sub.n_dofs for sub in subs))
    C_all = np.hstack([sub.C.toarray() for sub in subs])
    if len(C_all):  # admissible velocities: the part in null(C)
        V = scipy.linalg.null_space(C_all)
        v_all = V @ (V.T @ v_all)
    v0 = np.split(v_all, np.cumsum([sub.n_dofs for sub in subs])[:-1])
    system = initialize_coupled_system(subs, dt_system, d0=d0, v0=v0)
    return Case(system, acceleration_form=draw(st.booleans()), force_free=load == "zero")


def _close(x, ref, rtol):
    """|x - ref| <= rtol times the largest magnitude of ref (at least 1e-300)."""
    scale = max(np.abs(ref).max(initial=0.0), 1e-300)
    assert np.abs(np.asarray(x) - ref).max(initial=0.0) <= rtol * scale


def _check_critical_step_guard(sub: Subdomain, params: NewmarkParams):
    crit = exact_critical_step(sub.M, sub.K, params)
    if math.isinf(crit):
        return
    with pytest.raises(ValueError, match="critical"):
        dt = (1.0 + 1e-8) * crit
        CouplingPlan((replace(sub, params=params, dt_sub=dt),), dt)
    dt = (1.0 - 1e-8) * crit
    assert CouplingPlan((replace(sub, params=params, dt_sub=dt),), dt).eta == (1,)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cases())
def test_coupled_step_keeps_its_invariants(case):
    sys = case.system
    for sub in sys.subdomains:
        # The subdomain's own scheme and its explicit (beta = 0) member.
        for params in (sub.params, NewmarkParams(0.0, sub.params.gamma)):
            _check_critical_step_guard(sub, params)

    bound = 0 if case.acceleration_form else coupling.FULL_PROPAGATOR_MAX_BYTES
    with mock.patch.object(coupling, "FULL_PROPAGATOR_MAX_BYTES", bound):
        energy = max_energy = diagnostics.total_energy(sys).total
        worst = 0.0
        for _ in range(STEPS):
            result = advance_system_step(sys)
            ref = advance_monolithic(sys)
            # a, v and d, each over every sub-level of every swept block and
            # the end rows of every mapped one, and every block's rows C d_j.
            for k in range(3):
                _close(*(
                    np.concatenate([
                        (x.end[k] if h.rows is None else x.rows[k]).ravel()
                        for h, x in zip(result.histories, step.histories)
                    ]) for step in (result, ref)
                ), 1e-8)
            _close(*(
                np.concatenate([h.constraint_rows.ravel() for h in step.histories])
                for step in (result, ref)
            ), 1e-8)
            _close(result.lambda_next, ref.lambda_next, 1e-8)

            report = diagnostics.step_energy_report(result, sys)
            work = diagnostics.external_work(result, sys)
            worst = max(
                worst,
                abs(report.total - energy - report.e_algorithm - report.e_interface - work),
            )
            sys = sys.apply(result)
            assert np.abs(sys.velocity_residual()).max(initial=0.0) <= 1e-8
            energy = report.total
            max_energy = max(max_energy, energy)
        assert max_energy > 0.0
        assert worst <= 1e-9 * max_energy

        for k in range(len(sys.subdomains)):
            if sys.n_constraints:
                props = plan_propagators(sys.plan, k)
                assert (props.Y.ndim == 4) is not case.acceleration_form
        if case.force_free:
            Q0, Q1 = certificate(sys)
            check_certificate("draw", Q0, Q1, sys.n_constraints)
