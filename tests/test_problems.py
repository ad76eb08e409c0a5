import math

import glue_reference
import numpy as np
import pytest

from mtstep import linalg, problems
from mtstep.baselines import merge_system_matrices
from mtstep.coupling import advance_system_step
from mtstep.newmark import AVERAGE_ACCELERATION, CENTRAL_DIFFERENCE
from step_reference import free_vibration_variant


def second_derivative(f, t, h=1e-5):
    return (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)


def glued(name, **kwargs):
    """A scenario from its builder, with the location rows it glued."""
    seen = []
    chain = problems._chain_constraints

    def spy(locations):
        seen.append(locations)
        return chain(locations)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "_chain_constraints", spy)
        scenario = problems.SCENARIOS[name](**kwargs)
    (locations,) = seen
    return scenario, locations


def reference_constraints(locations):
    maps = glue_reference.location_maps(locations)
    return glue_reference.chain_constraints(maps, [len(loc) for loc in locations])


# ---------------------------------------------------------------------------
# Split oscillators
# ---------------------------------------------------------------------------

def test_sdof2_oracle_satisfies_merged_ode():
    sc = problems.build_sdof2()
    assert sc.oracle(0.0) == pytest.approx(0.1)
    # d'(0) = v0 = 1
    h = 1e-6
    assert (sc.oracle(h) - sc.oracle(-h)) / (2 * h) == pytest.approx(1.0, rel=1e-6)
    # m d'' + k d = 0 with m = 0.105, k = 52.5
    for t in (0.1, 0.27, 0.45):
        residual = 0.105 * second_derivative(sc.oracle, t) + 52.5 * sc.oracle(t)
        assert abs(residual) <= 1e-4


def test_sdof3_oracle_and_load():
    sc = problems.build_sdof3()
    assert sc.oracle(0.0) == pytest.approx(1.0)
    # m d'' + k d = f with m = 5.11, k = 11.5, f = 1
    for t in (0.5, 2.0):
        residual = 5.11 * second_derivative(sc.oracle, t) + 11.5 * sc.oracle(t) - 1.0
        assert abs(residual) <= 1e-5
    loads = [sub.loads(0.0)[0] for sub in sc.system.subdomains]
    np.testing.assert_allclose(np.concatenate(loads), [0.0, 1.0, 0.0])


def test_sdof3_coupled_run_tracks_oracle():
    sc = problems.build_sdof3()
    sys = sc.system
    for _ in range(100):  # to t = 1
        sys = sys.apply(advance_system_step(sys))
    assert sys.states[0].d[0] == pytest.approx(sc.oracle(sys.t_current), abs=1e-4)


# ---------------------------------------------------------------------------
# Bar
# ---------------------------------------------------------------------------

def test_series_bar_solution_boundary_and_initial_conditions():
    # Starts at rest ...
    for x in (0.2, 0.5, 1.0):
        assert problems.series_bar_solution(x, 0.0) == pytest.approx(0.0, abs=1e-6)
    # ... is pinned at the left end ...
    for t in (0.0, 0.003, 0.011):
        assert problems.series_bar_solution(0.0, t) == 0.0
    # ... and is periodic with period 4 L / c.
    period = 4.0 * problems.BAR_LENGTH / math.sqrt(problems.BAR_E / problems.BAR_RHO)
    for x, t in ((1.0, 0.004), (0.4, 0.009)):
        assert problems.series_bar_solution(x, t + period) == pytest.approx(
            problems.series_bar_solution(x, t), abs=1e-12
        )


def test_series_bar_time_average_is_static_solution():
    # Averaging the cosines over one period leaves the static deflection.
    period = 4.0 * problems.BAR_LENGTH / math.sqrt(problems.BAR_E / problems.BAR_RHO)
    ts = np.linspace(0.0, period, 400, endpoint=False)
    for x in (0.3, 1.0):
        avg = np.mean([problems.series_bar_solution(x, t) for t in ts])
        static = problems.BAR_TIP_LOAD * x / (problems.BAR_E * problems.BAR_AREA)
        assert avg == pytest.approx(static, rel=1e-3)


def test_bar_scenario_structure():
    sc = problems.build_bar_1d()
    sys = sc.system
    assert [sub.n_dofs for sub in sys.subdomains] == [5, 6, 6]
    assert sys.n_constraints == 2
    assert sys.eta == (1, 10, 1)
    # Tip load on the last DOF of subdomain C only.
    f_c = sys.subdomains[2].loads(0.0)[0]
    assert f_c[-1] == pytest.approx(problems.BAR_TIP_LOAD)
    assert np.count_nonzero(f_c) == 1
    assert not np.any(sys.subdomains[0].loads(0.0)[0])
    assert sc.probes == ((2, 5),)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"etas": (1, 10)},
        {"etas": (1, 10, 1, 1)},
        {"params": (AVERAGE_ACCELERATION, AVERAGE_ACCELERATION)},
    ],
)
def test_bar_rejects_etas_or_params_of_wrong_length(kwargs):
    # One eta and one scheme per subdomain: a short tuple must not fail
    # with an IndexError, nor a long one be silently cut.
    with pytest.raises(ValueError):
        problems.build_bar_1d(**kwargs)


def test_bar_rejects_a_subdomain_without_elements():
    with pytest.raises(ValueError, match="need at least one element"):
        problems.build_bar_1d(elements_per_subdomain=(5, 0, 5))


def test_bar_scenario_approaches_series_solution():
    sc = problems.build_bar_1d()
    sys = sc.system
    for _ in range(25):
        sys = sys.apply(advance_system_step(sys))
    i, dof = sc.probes[0]
    assert sys.states[i].d[dof] == pytest.approx(sc.oracle(sys.t_current), abs=1e-3)


# ---------------------------------------------------------------------------
# Plate
# ---------------------------------------------------------------------------

def test_plate_scenario_structure():
    sc = problems.build_plate_2d()
    sys = sc.system
    # 6x6 nodes x 2 components, minus the 6 fixed nodes on x = 0 for the
    # two left subdomains.
    assert [sub.n_dofs for sub in sys.subdomains] == [60, 72, 60, 72]
    params = [sub.params for sub in sys.subdomains]
    assert params == [
        CENTRAL_DIFFERENCE, CENTRAL_DIFFERENCE, CENTRAL_DIFFERENCE,
        AVERAGE_ACCELERATION,
    ]
    assert sys.eta == (5, 5, 5, 1)
    # The corner force acts on the two components of one node of the
    # bottom-right subdomain, which is also the default probe.
    f = sys.subdomains[1].loads(0.0)[0]
    assert np.count_nonzero(f) == 2
    assert sorted(sc.probes) == sorted((1, dof) for dof in np.nonzero(f)[0])


def test_plate_constraint_rows_glue_coincident_dofs():
    sc = problems.build_plate_2d()
    sys = sc.system
    # Interface node count: 5 shared nodes per internal edge x 4 edges
    # plus the center node shared by all four subdomains; per component,
    # chained rows give (copies - 1) rows per coincident group.
    # 8 two-copy groups per edge pair... validated structurally instead:
    total = np.zeros(sys.n_constraints)
    for sub in sys.subdomains:
        nz = np.count_nonzero(sub.C.data, axis=1)
        assert nz.max() <= 1
        total += nz
    # Every constraint row involves exactly two DOFs overall.
    assert np.all(total == 2)


def test_plate_center_cross_point_has_three_rows_per_component():
    # The center node has one copy in each of the four subdomains; the
    # chain glues them with three rows per component, not six pairs.
    sc, locations = glued("plate2d")
    for comp in (0, 1):
        rows = set()
        for sub, loc in zip(sc.system.subdomains, locations, strict=True):
            at_center = np.abs(loc - (0.5, 0.5, comp)) <= 1e-12
            (dof,) = np.flatnonzero(at_center.all(axis=1))
            rows.update(np.flatnonzero(sub.C.data[:, dof]))
        assert len(rows) == 3


def test_plate_static_limit_is_symmetric_about_midline():
    # Sanity: merged static solution under the (1, 1) corner force has the
    # expected mirror relation for this symmetric-material square? Not
    # true in general (the load itself is not symmetric), so check instead
    # that the merged stiffness is SPD on the constrained space.
    sc = problems.build_plate_2d()
    _, K, load, _ = merge_system_matrices(sc.system)
    K = linalg.dense(K)  # 220 merged DOFs: stored sparse
    w = np.linalg.eigvalsh(K)
    assert w.min() > 0.0
    d = np.linalg.solve(K, load(0.0))
    assert np.abs(d).max() > 0.0


# ---------------------------------------------------------------------------
# Wave
# ---------------------------------------------------------------------------

def test_wave_scenario_structure_small_mesh():
    sc = problems.build_wave_2d(nx=10, ny=5, dt_system=2e-3, etas=(2, 1))
    sys = sc.system
    # Interface at x = 0.4 carries ny + 1 = 6 nodes, minus the two fixed
    # ones at y = 0 and y = 1.
    assert sys.n_constraints == 4
    assert sys.eta == (2, 1)
    # The load lives on subdomain 1 only, switches off after tau.
    f_on = sys.subdomains[0].loads(0.025)[0]
    assert np.abs(f_on).max() > 0.0
    assert not np.any(sys.subdomains[0].loads(0.15)[0])
    assert not np.any(sys.subdomains[1].loads(0.025)[0])
    # Load vanishes exactly at t = 0 and t = tau (full sine periods).
    np.testing.assert_allclose(sys.subdomains[0].loads(0.0)[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(
        sys.subdomains[0].loads(problems.WAVE_TAU_LOAD)[0], 0.0, atol=1e-12
    )


def test_wave_burst_keeps_the_bits_of_the_load_closure():
    # The load g(t) f0 gives, bit for bit, what the builder's closure
    # ``base * sin(2 pi t / tau)`` on [0, tau] and zeros elsewhere gave,
    # with +0.0 (not -0.0) off the window.
    sub = problems.build_wave_2d(nx=30, ny=15).system.subdomains[0]
    base = sub.f0
    assert base.min() >= 0.0 and base.max() > 0.0

    def closure(t):
        if 0.0 <= t <= problems.WAVE_TAU_LOAD:
            return base * math.sin(2.0 * math.pi * t / problems.WAVE_TAU_LOAD)
        return np.zeros_like(base)

    for t in (0.0, 0.025, 0.05, 0.1, problems.WAVE_TAU_LOAD, 0.15):
        got = sub.loads(t)[0]
        np.testing.assert_array_equal(got.view(np.int64), closure(t).view(np.int64))
    assert not np.signbit(sub.loads(0.15)).any()


def test_wave_rejects_misaligned_interface():
    with pytest.raises(ValueError, match="mesh line"):
        problems.build_wave_2d(nx=7, ny=5)


def test_wave_rejects_load_segment_off_the_mesh():
    # ny = 44 puts no node on y = 2Ly/5 or 3Ly/5 and would apply only
    # 0.909 of the load; ny = 16 would apply 0.625 of it.
    for ny in (44, 16):
        with pytest.raises(ValueError, match="load-segment"):
            problems.build_wave_2d(ny=ny)
    sc = problems.build_wave_2d(nx=10, ny=15, dt_system=2e-3, etas=(2, 1))
    # The whole traction f0 over the segment of length Ly/5, at its peak.
    peak = sc.system.subdomains[0].loads(problems.WAVE_TAU_LOAD / 4.0)[0]
    assert peak.sum() == pytest.approx(problems.WAVE_F0 * problems.WAVE_LY / 5.0)


# ---------------------------------------------------------------------------
# Variants and registry
# ---------------------------------------------------------------------------

def test_free_vibration_variant():
    sc = free_vibration_variant(problems.build_sdof3())
    sys = sc.system
    for sub in sys.subdomains:
        assert not np.any(sub.loads(0.0)[0])
    for st in sys.states:
        np.testing.assert_allclose(st.v, 0.0)
    # Initial displacement solves the merged static problem f / k = 1/11.5.
    assert sys.states[0].d[0] == pytest.approx(1.0 / 11.5)
    assert sc.oracle is None


# ---------------------------------------------------------------------------
# Glue
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(problems.SCENARIOS))
def test_chain_constraints_match_dict_reference(name):
    sc, locations = glued(name)
    expected = reference_constraints(locations)
    for sub, ref in zip(sc.system.subdomains, expected, strict=True):
        assert sub.C.shape == ref.shape
        assert sub.C.data.tobytes() == ref.data.tobytes()


def test_chain_constraints_order_rows_by_location_first():
    # Subdomain 0 lists x = 1 before x = 0, and x = 1 has three copies
    # (one off by less than the 12-decimal rounding).  Rows go by
    # location first, so the x = 0 pair comes first; ordering by
    # subdomain and DOF first would put the x = 1 rows ahead of it.
    locations = [
        np.array([[1.0 + 1e-14], [0.0]]),
        np.array([[0.0], [1.0]]),
        np.array([[1.0]]),
    ]
    expected = [
        [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]],
        [[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]],
        [[0.0], [0.0], [-1.0]],
    ]
    got = problems._chain_constraints(locations)
    ref = reference_constraints(locations)
    for C, C_ref, rows in zip(got, ref, expected, strict=True):
        np.testing.assert_array_equal(C.data, rows)
        assert C.data.tobytes() == C_ref.data.tobytes()


def test_scenarios_registry():
    assert sorted(problems.SCENARIOS) == [
        "bar1d", "plate2d", "sdof2", "sdof3", "wave2d",
    ]
    assert problems.SCENARIOS["sdof2"] is problems.build_sdof2
