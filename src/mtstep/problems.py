"""The four benchmark systems and their analytic oracles.

Each builder returns a :class:`Scenario`: a ready-to-run
:class:`~mtstep.coupling.CoupledSystem` plus a duration, default probe
DOFs (the quantities worth plotting) and, where available, a closed-form
oracle for the probed displacement.

Benchmarks
----------
``sdof2``   A single DOF split into two mass/spring subdomains glued by a
            velocity constraint; under exact v-continuity the pair is
            algebraically one oscillator with m = 0.105, k = 52.5.
``sdof3``   The same idea with three subdomains and a constant load on
            the middle one.
``bar1d``   Homogeneous axial bar, fixed left end, step tip load; three
            equal subdomains (implicit / explicit / implicit), series
            solution available.
``plate2d`` Square plane-strain plate fixed on the left edge with a
            constant corner force, four square subdomains.
``wave2d``  Scalar wave on a 2 x 1 rectangle, fixed on three sides,
            burst of sinusoidal line load on part of the free edge;
            fine explicit subdomain near the load, coarse implicit
            subdomain elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import fem, linalg
from .coupling import (
    CoupledSystem,
    SignedBooleanMatrix,
    Subdomain,
    initialize_coupled_system,
)
from .newmark import AVERAGE_ACCELERATION, CENTRAL_DIFFERENCE, NewmarkParams


@dataclass(frozen=True)
class Scenario:
    """A runnable benchmark: coupled system + horizon + reference data."""

    name: str
    system: CoupledSystem
    duration: float
    probes: tuple[tuple[int, int], ...]
    oracle: Optional[Callable[[float], float]] = None
    oracle_lambda: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")


def _constant_force(vec: np.ndarray) -> Callable[[float], np.ndarray]:
    vec = np.asarray(vec, dtype=float)
    return lambda t: vec


def _zero_force(n: int) -> Callable[[float], np.ndarray]:
    zero = np.zeros(n)
    return lambda t: zero


def _chain_constraints(
    location_maps: Sequence[dict], n_dofs: Sequence[int]
) -> list[SignedBooleanMatrix]:
    """Glue coincident DOFs across subdomains with chained +1/-1 rows.

    ``location_maps[i]`` maps a hashable location key (shared across
    subdomains for physically coincident DOFs) to the local DOF index in
    subdomain i.  Each group of k >= 2 coincident DOFs contributes k - 1
    constraint rows chaining consecutive copies, which avoids the rank
    deficiency a full pairwise gluing would cause at cross points.
    """
    groups: dict = {}
    for i, mapping in enumerate(location_maps):
        for key, dof in mapping.items():
            groups.setdefault(key, []).append((i, dof))

    rows = []  # list of [(subdomain, dof, sign), ...]
    for key in sorted(groups):
        members = groups[key]
        for (i_a, dof_a), (i_b, dof_b) in zip(members, members[1:]):
            rows.append(((i_a, dof_a, +1), (i_b, dof_b, -1)))

    n_c = len(rows)
    mats = []
    for i, n in enumerate(n_dofs):
        data = np.zeros((n_c, n))
        for r, entries in enumerate(rows):
            for i_sub, dof, sign in entries:
                if i_sub == i:
                    data[r, dof] = sign
        mats.append(SignedBooleanMatrix(data))
    return mats


# ---------------------------------------------------------------------------
# Split single DOF, two and three subdomains
# ---------------------------------------------------------------------------

def build_sdof2(
    dt_system: float = 0.02,
    etas: Sequence[int] = (1, 4),
    params: Sequence[NewmarkParams] = (AVERAGE_ACCELERATION, AVERAGE_ACCELERATION),
    duration: float = 0.5,
    lambda_init: str = "consistent",
) -> Scenario:
    """Single DOF split into two subdomains (m, k) = (0.1, 2.5) / (0.005, 50).

    Initial conditions d0 = 0.1, v0 = 1 on both copies.  The merged
    oracle is the oscillator m = 0.105, k = 52.5 (omega = sqrt(500)):
    d(t) = 0.1 cos(omega t) + (1/omega) sin(omega t), with constant
    energy 0.315 and multiplier lambda(t) = (k_a - m_a omega^2) d(t).
    """
    m = (0.1, 0.005)
    k = (2.5, 50.0)
    d0, v0 = 0.1, 1.0
    C = [SignedBooleanMatrix(np.array([[1.0]])), SignedBooleanMatrix(np.array([[-1.0]]))]
    subs = [
        Subdomain(
            M=np.array([[m[i]]]),
            K=np.array([[k[i]]]),
            params=params[i],
            dt_sub=dt_system / etas[i],
            force=_zero_force(1),
            C=C[i],
        )
        for i in range(2)
    ]
    system = initialize_coupled_system(
        subs, dt_system, d0=[[d0], [d0]], v0=[[v0], [v0]], lambda_init=lambda_init
    )

    omega = math.sqrt(sum(k) / sum(m))

    def oracle(t: float) -> float:
        return d0 * math.cos(omega * t) + (v0 / omega) * math.sin(omega * t)

    def oracle_lambda(t: float) -> np.ndarray:
        # From subdomain A's equation of motion with the merged trajectory:
        # m_a (-omega^2 d) + k_a d = +lambda.
        return np.array([(k[0] - m[0] * omega * omega) * oracle(t)])

    return Scenario(
        name="sdof2",
        system=system,
        duration=duration,
        probes=((0, 0),),
        oracle=oracle,
        oracle_lambda=oracle_lambda,
    )


def build_sdof3(
    dt_system: float = 0.01,
    etas: Sequence[int] = (1, 2, 4),
    params: Sequence[NewmarkParams] = (
        AVERAGE_ACCELERATION,
        AVERAGE_ACCELERATION,
        AVERAGE_ACCELERATION,
    ),
    duration: float = 5.0,
    lambda_init: str = "consistent",
) -> Scenario:
    """Single DOF split into three subdomains with a load on the middle one.

    m = (5, 0.1, 0.01), k = (5, 2.5, 4), f_B = 1, d0 = 1, v0 = 0.  The
    merged oracle is m = 5.11, k = 11.5 under constant unit load:
    d(t) = f/k + (d0 - f/k) cos(omega t).
    """
    m = (5.0, 0.1, 0.01)
    k = (5.0, 2.5, 4.0)
    f = (0.0, 1.0, 0.0)
    d0, v0 = 1.0, 0.0
    # Constraint rows: v_A - v_B = 0 and v_B - v_C = 0.
    C = [
        SignedBooleanMatrix(np.array([[1.0], [0.0]])),
        SignedBooleanMatrix(np.array([[-1.0], [1.0]])),
        SignedBooleanMatrix(np.array([[0.0], [-1.0]])),
    ]
    subs = [
        Subdomain(
            M=np.array([[m[i]]]),
            K=np.array([[k[i]]]),
            params=params[i],
            dt_sub=dt_system / etas[i],
            force=_constant_force([f[i]]),
            C=C[i],
        )
        for i in range(3)
    ]
    system = initialize_coupled_system(
        subs, dt_system, d0=[[d0]] * 3, v0=[[v0]] * 3, lambda_init=lambda_init
    )

    m_tot, k_tot, f_tot = sum(m), sum(k), sum(f)
    omega = math.sqrt(k_tot / m_tot)
    d_static = f_tot / k_tot

    def oracle(t: float) -> float:
        return d_static + (d0 - d_static) * math.cos(omega * t)

    return Scenario(
        name="sdof3",
        system=system,
        duration=duration,
        probes=((0, 0),),
        oracle=oracle,
    )


# ---------------------------------------------------------------------------
# 1-D bar
# ---------------------------------------------------------------------------

BAR_E = 1.0e4
BAR_RHO = 0.1
BAR_AREA = 1.0
BAR_LENGTH = 1.0
BAR_TIP_LOAD = 10.0


def series_bar_solution(x: float, t: float, terms: int = 400) -> float:
    """Series solution of the fixed-free bar under a step tip load.

        u(x, t) = P x / EA
                  + (8 P L / pi^2 EA) sum_{n odd} (-1)^((n+1)/2) n^-2
                        sin(beta_n x) cos(omega_n t)

    with beta_n = n pi / 2L and omega_n = beta_n sqrt(E/rho).
    """
    if terms < 1:
        raise ValueError("need at least one series term")
    n = np.arange(1, 2 * terms, 2, dtype=float)  # odd n
    beta = n * math.pi / (2.0 * BAR_LENGTH)
    omega = beta * math.sqrt(BAR_E / BAR_RHO)
    signs = (-1.0) ** ((n + 1.0) / 2.0)
    series = np.sum(signs / n**2 * np.sin(beta * x) * np.cos(omega * t))
    ea = BAR_E * BAR_AREA
    return BAR_TIP_LOAD * x / ea + (
        8.0 * BAR_TIP_LOAD * BAR_LENGTH / (math.pi**2 * ea)
    ) * series


def build_bar_1d(
    elements_per_subdomain: Sequence[int] = (5, 5, 5),
    dt_system: float = 1.0e-3,
    etas: Sequence[int] = (1, 10, 1),
    params: Sequence[NewmarkParams] = (
        AVERAGE_ACCELERATION,
        CENTRAL_DIFFERENCE,
        AVERAGE_ACCELERATION,
    ),
    duration: float = 0.025,
    lumped: bool = False,
    lambda_init: str = "consistent",
) -> Scenario:
    """Axial bar in three equal subdomains: implicit / explicit / implicit.

    Subdomains A and C use average acceleration, B central difference.
    The left-end DOF is eliminated; a constant tip load P acts on the
    right end from t = 0.  Interface DOFs are duplicated and glued by
    two velocity constraints.
    """
    n_a, n_b, n_c = elements_per_subdomain
    if min(n_a, n_b, n_c) < 1:
        raise ValueError("each subdomain needs at least one element")
    seg = BAR_LENGTH / 3.0

    meshes = [
        fem.bar_mesh(n_a, seg, x0=0.0),
        fem.bar_mesh(n_b, seg, x0=seg),
        fem.bar_mesh(n_c, seg, x0=2.0 * seg),
    ]
    subs = []
    loc_maps = []
    n_dofs = []
    for i, coords in enumerate(meshes):
        M, K = fem.assemble_bar(coords, BAR_E, BAR_RHO, BAR_AREA, lumped=lumped)
        if i == 0:
            M, K, free = fem.eliminate_dofs(M, K, np.array([0]))
        else:
            free = np.arange(coords.size)
        n = M.shape[0]
        n_dofs.append(n)
        # Location keys for gluing: rounded x coordinate of each kept node.
        loc_maps.append({round(coords[g], 12): k for k, g in enumerate(free)})
        if i == 2:
            f = np.zeros(n)
            f[-1] = BAR_TIP_LOAD
            force = _constant_force(f)
        else:
            force = _zero_force(n)
        subs.append((M, K, params[i], dt_system / etas[i], force))

    C = _chain_constraints(loc_maps, n_dofs)
    subdomains = [
        Subdomain(M=M, K=K, params=p, dt_sub=dt, force=force, C=c)
        for (M, K, p, dt, force), c in zip(subs, C)
    ]
    system = initialize_coupled_system(
        subdomains,
        dt_system,
        d0=[np.zeros(n) for n in n_dofs],
        v0=[np.zeros(n) for n in n_dofs],
        lambda_init=lambda_init,
    )

    def oracle(t: float) -> float:
        return series_bar_solution(BAR_LENGTH, t)

    return Scenario(
        name="bar1d",
        system=system,
        duration=duration,
        probes=((2, n_dofs[2] - 1),),  # tip DOF
        oracle=oracle,
    )


# ---------------------------------------------------------------------------
# 2-D plane-strain plate with a corner force
# ---------------------------------------------------------------------------

PLATE_LAME_LAMBDA = 100.0
PLATE_MU = 100.0
PLATE_RHO = 100.0
PLATE_SIDE = 1.0
PLATE_CORNER_FORCE = (1.0, 1.0)


def build_plate_2d(
    dt_system: float = 0.1,
    etas: Sequence[int] = (5, 5, 5, 1),
    params: Sequence[NewmarkParams] = (
        CENTRAL_DIFFERENCE,
        CENTRAL_DIFFERENCE,
        CENTRAL_DIFFERENCE,
        AVERAGE_ACCELERATION,
    ),
    elements_per_side: int = 5,
    duration: float = 2.0,
    lambda_init: str = "consistent",
) -> Scenario:
    """Square plate, fixed left edge, constant corner force at bottom right.

    Four square subdomains (numbered bottom-left, bottom-right, top-left,
    top-right), each meshed with ``elements_per_side`` squared bilinear
    quads.  Subdomains 1-3 use central difference, subdomain 4 average
    acceleration.  Coincident interface nodes are glued per component
    with chained constraints (three rows per component at the center
    cross point).
    """
    half = PLATE_SIDE / 2.0
    origins = [(0.0, 0.0), (half, 0.0), (0.0, half), (half, half)]
    n_el = elements_per_side

    subdomain_data = []
    loc_maps = []
    n_dofs = []
    probe = None
    for i, (x0, y0) in enumerate(origins):
        grid = fem.quad_grid(n_el, n_el, half, half, x0=x0, y0=y0)
        M, K = fem.assemble_plane_strain(grid, PLATE_LAME_LAMBDA, PLATE_MU, PLATE_RHO)
        fixed_nodes = np.nonzero(np.abs(grid.coords[:, 0]) <= 1e-12)[0]
        fixed_dofs = np.concatenate([2 * fixed_nodes, 2 * fixed_nodes + 1])
        M, K, free = fem.eliminate_dofs(M, K, fixed_dofs)
        n = M.shape[0]
        n_dofs.append(n)

        mapping = {}
        force_vec = np.zeros(n)
        for k_red, g in enumerate(free):
            node, comp = divmod(int(g), 2)
            x, y = grid.coords[node]
            mapping[(round(x, 12), round(y, 12), comp)] = k_red
            if (
                abs(x - PLATE_SIDE) <= 1e-12
                and abs(y) <= 1e-12
            ):
                force_vec[k_red] = PLATE_CORNER_FORCE[comp]
                if probe is None:
                    probe = [(i, k_red)]
                elif probe[-1][0] == i:
                    probe.append((i, k_red))
        loc_maps.append(mapping)
        has_load = np.any(force_vec)
        subdomain_data.append(
            (M, K, params[i], dt_system / etas[i],
             _constant_force(force_vec) if has_load else _zero_force(n))
        )

    C = _chain_constraints(loc_maps, n_dofs)
    subdomains = [
        Subdomain(M=M, K=K, params=p, dt_sub=dt, force=force, C=c)
        for (M, K, p, dt, force), c in zip(subdomain_data, C)
    ]
    system = initialize_coupled_system(
        subdomains,
        dt_system,
        d0=[np.zeros(n) for n in n_dofs],
        v0=[np.zeros(n) for n in n_dofs],
        lambda_init=lambda_init,
    )
    return Scenario(
        name="plate2d",
        system=system,
        duration=duration,
        probes=tuple(probe),
    )


# ---------------------------------------------------------------------------
# 2-D scalar wave
# ---------------------------------------------------------------------------

WAVE_LX = 2.0
WAVE_LY = 1.0
WAVE_C0 = 1.0
WAVE_F0 = 5.0
WAVE_TAU_LOAD = 0.1
WAVE_INTERFACE_X = 0.4


def build_wave_2d(
    nx: int = 90,
    ny: int = 45,
    dt_system: float = 1.0e-4,
    etas: Sequence[int] = (10, 1),
    params: Sequence[NewmarkParams] = (CENTRAL_DIFFERENCE, AVERAGE_ACCELERATION),
    duration: float = 0.25,
    lambda_init: str = "consistent",
) -> Scenario:
    """Scalar wave on a 2 x 1 rectangle, burst load on part of the left edge.

    Fixed on the top, bottom and right sides.  The load
    f0 sin(2 pi t / tau) acts on x = 0, y in [2Ly/5, 3Ly/5] until
    t = tau and then switches off.  Split vertically at x = 0.4 into a
    fine explicit (central-difference) subdomain 1 containing the load
    and a coarse implicit (average-acceleration) subdomain 2.  ``nx``
    and ``ny`` must place nodes on the interface and on the load-segment
    endpoints (ny a multiple of 5 works with the default interface).
    """
    hx = WAVE_LX / nx
    split_cols = WAVE_INTERFACE_X / hx
    if abs(split_cols - round(split_cols)) > 1e-9:
        raise ValueError("interface x must fall on a mesh line; adjust nx")
    nx1 = round(split_cols)
    nx2 = nx - nx1

    grids = [
        fem.quad_grid(nx1, ny, WAVE_INTERFACE_X, WAVE_LY),
        fem.quad_grid(nx2, ny, WAVE_LX - WAVE_INTERFACE_X, WAVE_LY, x0=WAVE_INTERFACE_X),
    ]
    subdomain_data = []
    loc_maps = []
    n_dofs = []
    probe = None
    for i, grid in enumerate(grids):
        M, K = fem.assemble_scalar_wave(grid, WAVE_C0)
        x, y = grid.coords[:, 0], grid.coords[:, 1]
        fixed = np.abs(y) <= 1e-12
        fixed |= np.abs(y - WAVE_LY) <= 1e-12
        if i == 1:
            fixed |= np.abs(x - WAVE_LX) <= 1e-12
        fixed_nodes = np.nonzero(fixed)[0]
        if i == 0:
            load_full = WAVE_F0 * fem.edge_load_left(
                grid, 2.0 * WAVE_LY / 5.0, 3.0 * WAVE_LY / 5.0
            )
        M_red, K_red, free = fem.eliminate_dofs(M, K, fixed_nodes)
        n = M_red.shape[0]
        n_dofs.append(n)
        mapping = {
            (round(grid.coords[g, 0], 12), round(grid.coords[g, 1], 12)): k
            for k, g in enumerate(free)
        }
        loc_maps.append(mapping)
        if i == 0:
            load_red = load_full[free]

            def force(t: float, _base=load_red) -> np.ndarray:
                if 0.0 <= t <= WAVE_TAU_LOAD:
                    return _base * math.sin(2.0 * math.pi * t / WAVE_TAU_LOAD)
                return np.zeros_like(_base)

            # Probe: the free node closest to the load-segment midpoint.
            mid = np.array([0.0, WAVE_LY / 2.0])
            dist = np.linalg.norm(grid.coords[free] - mid, axis=1)
            probe = ((0, int(np.argmin(dist))),)
        else:
            force = _zero_force(n)
        subdomain_data.append((M_red, K_red, params[i], dt_system / etas[i], force))

    C = _chain_constraints(loc_maps, n_dofs)
    subdomains = [
        Subdomain(M=M, K=K, params=p, dt_sub=dt, force=force, C=c)
        for (M, K, p, dt, force), c in zip(subdomain_data, C)
    ]
    system = initialize_coupled_system(
        subdomains,
        dt_system,
        d0=[np.zeros(n) for n in n_dofs],
        v0=[np.zeros(n) for n in n_dofs],
        lambda_init=lambda_init,
    )
    return Scenario(
        name="wave2d",
        system=system,
        duration=duration,
        probes=probe,
    )


# ---------------------------------------------------------------------------
# Variants and registry
# ---------------------------------------------------------------------------

def free_vibration_variant(scenario: Scenario) -> Scenario:
    """Same model, zero forces, started from the static deflection.

    Replaces every load with zero and sets the initial displacement to
    the static solution of the original load (solved on the merged,
    undecomposed system so the interface copies agree exactly), with zero
    initial velocity.  The result has genuinely force-free dynamics with
    non-trivial motion — the hypothesis of the stability and conservation
    statements.
    """
    from .baselines import merge_system_matrices

    sys = scenario.system
    _, K_merged, force_merged, maps = merge_system_matrices(sys)
    d_static = linalg.cholesky_factor(K_merged).solve(force_merged(sys.t_current))

    new_subs = [
        Subdomain(
            M=sub.M,
            K=sub.K,
            params=sub.params,
            dt_sub=sub.dt_sub,
            force=_zero_force(sub.n_dofs),
            C=sub.C,
        )
        for sub in sys.subdomains
    ]
    d0 = [d_static[mp] for mp in maps]
    v0 = [np.zeros(sub.n_dofs) for sub in sys.subdomains]
    system = initialize_coupled_system(new_subs, sys.dt_system, d0=d0, v0=v0)
    return replace(scenario, system=system, oracle=None, oracle_lambda=None)


SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "sdof2": build_sdof2,
    "sdof3": build_sdof3,
    "bar1d": build_bar_1d,
    "plate2d": build_plate_2d,
    "wave2d": build_wave_2d,
}
