"""The five benchmark systems and their analytic oracles.

Each builder describes its subdomains as ``(M, K, f0, g, locations)``
parts and hands them to one glue helper, ``_glue``, which returns a
:class:`Scenario`: a ready-to-run :class:`~mtstep.coupling.CoupledSystem`
plus a duration, default probe DOFs (the quantities worth plotting) and,
where available, a closed-form oracle for the probed displacement.
Every load is data, ``g(t) f0``: a fixed vector, constant (``g`` is
``None``) in all scenarios but wave2d, whose burst is the time factor
:func:`wave_burst`.

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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import fem
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

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")


def _chain_constraints(locations: Sequence[np.ndarray]) -> list[SignedBooleanMatrix]:
    """Glue coincident DOFs across subdomains with chained +1/-1 rows.

    ``locations[i]`` has one row per DOF of subdomain i; DOFs whose rows
    agree to 12 decimals coincide physically.  Each group of k >= 2
    coincident DOFs contributes k - 1 constraint rows chaining
    consecutive copies, which avoids the rank deficiency a full pairwise
    gluing would cause at cross points.  Rows are ordered by location,
    and within a group the copies by subdomain, then DOF.
    """
    sizes = [len(loc) for loc in locations]
    keys = np.round(np.concatenate(locations), 12)
    sub = np.repeat(np.arange(len(sizes)), sizes)
    dof = np.concatenate([np.arange(n) for n in sizes])
    order = np.lexsort((dof, sub, *keys.T[::-1]))  # last key sorts first
    keys, sub, dof = keys[order], sub[order], dof[order]
    # Row r links the copy at ``first[r]`` (+1) to the next one (-1).
    first = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
    mats = []
    for i, n in enumerate(sizes):
        data = np.zeros((first.size, n))
        plus, minus = sub[first] == i, sub[first + 1] == i
        data[plus, dof[first[plus]]] = 1.0
        data[minus, dof[first[minus] + 1]] = -1.0
        mats.append(SignedBooleanMatrix(data))
    return mats


def _glue(
    parts: Sequence[tuple],
    dt_system: float,
    etas: Sequence[int],
    params: Sequence[NewmarkParams],
    d0: float = 0.0,
    v0: float = 0.0,
    **scenario,
) -> Scenario:
    """Glue per-subdomain ``(M, K, f0, g, locations)`` parts into a scenario.

    The load is ``g(t) f0``, or the constant ``f0`` where ``g`` is ``None``
    (see :class:`~mtstep.coupling.Subdomain`).  ``locations`` has
    one row per DOF (its coordinates, plus the component where a node
    carries several); equal rows of different subdomains are chained by
    velocity constraints (:func:`_chain_constraints`).  Subdomain i
    sub-steps ``etas[i]`` times per ``dt_system`` with ``params[i]``;
    a ``ValueError`` is raised unless both have one entry per subdomain.
    Every DOF starts at displacement ``d0`` and velocity ``v0``.  The
    other keywords are the :class:`Scenario` fields.
    """
    Cs = _chain_constraints([loc for *_, loc in parts])
    subs = [
        Subdomain(M=M, K=K, params=p, dt_sub=dt_system / eta, f0=f0, C=C, g=g)
        for (M, K, f0, g, _), C, eta, p in zip(parts, Cs, etas, params, strict=True)
    ]
    system = initialize_coupled_system(
        subs,
        dt_system,
        d0=[np.full(sub.n_dofs, d0) for sub in subs],
        v0=[np.full(sub.n_dofs, v0) for sub in subs],
    )
    return Scenario(system=system, **scenario)


# ---------------------------------------------------------------------------
# Split single DOF, two and three subdomains
# ---------------------------------------------------------------------------

def build_sdof2(
    dt_system: float = 0.02,
    etas: Sequence[int] = (1, 4),
    params: Sequence[NewmarkParams] = (AVERAGE_ACCELERATION, AVERAGE_ACCELERATION),
    duration: float = 0.5,
) -> Scenario:
    """Single DOF split into two subdomains (m, k) = (0.1, 2.5) / (0.005, 50).

    Initial conditions d0 = 0.1, v0 = 1 on both copies.  The merged
    oracle is the oscillator m = 0.105, k = 52.5 (omega = sqrt(500)):
    d(t) = 0.1 cos(omega t) + (1/omega) sin(omega t), with constant
    energy 0.315.
    """
    m = (0.1, 0.005)
    k = (2.5, 50.0)
    d0, v0 = 0.1, 1.0
    # Both copies sit at one location: the constraint is v_A - v_B = 0.
    parts = [([[mi]], [[ki]], [0.0], None, [[0.0]]) for mi, ki in zip(m, k)]
    omega = math.sqrt((k[0] + k[1]) / (m[0] + m[1]))

    def oracle(t: float) -> float:
        return d0 * math.cos(omega * t) + (v0 / omega) * math.sin(omega * t)

    return _glue(
        parts, dt_system, etas, params, d0=d0, v0=v0, name="sdof2",
        duration=duration, probes=((0, 0),), oracle=oracle,
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
    # One shared location: constraint rows v_A - v_B = 0 and v_B - v_C = 0.
    parts = [([[mi]], [[ki]], [fi], None, [[0.0]]) for mi, ki, fi in zip(m, k, f)]

    # Left to right: from Python 3.12 the built-in ``sum`` rounds float
    # sums differently (5.11 against 5.109999999999999 here).
    m_tot = m[0] + m[1] + m[2]
    k_tot = k[0] + k[1] + k[2]
    f_tot = f[0] + f[1] + f[2]
    omega = math.sqrt(k_tot / m_tot)
    d_static = f_tot / k_tot

    def oracle(t: float) -> float:
        return d_static + (d0 - d_static) * math.cos(omega * t)

    return _glue(
        parts, dt_system, etas, params, d0=d0, v0=v0, name="sdof3",
        duration=duration, probes=((0, 0),), oracle=oracle,
    )


# ---------------------------------------------------------------------------
# 1-D bar
# ---------------------------------------------------------------------------

BAR_E = 1.0e4
BAR_RHO = 0.1
BAR_AREA = 1.0
BAR_LENGTH = 1.0
BAR_TIP_LOAD = 10.0
BAR_SERIES_TERMS = 400


def series_bar_solution(x: float, t: float) -> float:
    """Series solution of the fixed-free bar under a step tip load.

        u(x, t) = P x / EA
                  + (8 P L / pi^2 EA) sum_{n odd} (-1)^((n+1)/2) n^-2
                        sin(beta_n x) cos(omega_n t)

    with beta_n = n pi / 2L and omega_n = beta_n sqrt(E/rho), summed over
    the first ``BAR_SERIES_TERMS`` odd n.
    """
    n = np.arange(1, 2 * BAR_SERIES_TERMS, 2, dtype=float)  # odd n
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
) -> Scenario:
    """Axial bar in three equal subdomains: implicit / explicit / implicit.

    Subdomains A and C use average acceleration, B central difference.
    The left-end DOF is eliminated; a constant tip load P acts on the
    right end from t = 0.  Interface DOFs are duplicated and glued by
    two velocity constraints.
    """
    _, _, n_c = elements_per_subdomain
    seg = BAR_LENGTH / 3.0

    parts = []
    for i, n in enumerate(elements_per_subdomain):
        coords = fem.bar_mesh(n, seg, x0=i * seg)
        M, K = fem.assemble_bar(coords, BAR_E, BAR_RHO, BAR_AREA)
        free = np.arange(coords.size)
        if i == 0:
            M, K, free = fem.eliminate_dofs(M, K, np.array([0]))
        load = np.zeros(free.size)
        if i == 2:
            load[-1] = BAR_TIP_LOAD
        parts.append((M, K, load, None, coords[free, None]))

    def oracle(t: float) -> float:
        return series_bar_solution(BAR_LENGTH, t)

    return _glue(
        parts, dt_system, etas, params,
        name="bar1d", duration=duration, probes=((2, n_c),), oracle=oracle,
    )


# ---------------------------------------------------------------------------
# 2-D plane-strain plate with a corner force
# ---------------------------------------------------------------------------

PLATE_LAME_LAMBDA = 100.0
PLATE_MU = 100.0
PLATE_RHO = 100.0
PLATE_SIDE = 1.0
PLATE_CORNER_FORCE = (1.0, 1.0)
PLATE_ELEMENTS_PER_SIDE = 5


def build_plate_2d(
    dt_system: float = 0.1,
    etas: Sequence[int] = (5, 5, 5, 1),
    params: Sequence[NewmarkParams] = (
        CENTRAL_DIFFERENCE,
        CENTRAL_DIFFERENCE,
        CENTRAL_DIFFERENCE,
        AVERAGE_ACCELERATION,
    ),
    duration: float = 2.0,
) -> Scenario:
    """Square plate, fixed left edge, constant corner force at bottom right.

    Four square subdomains (numbered bottom-left, bottom-right, top-left,
    top-right), each meshed with ``PLATE_ELEMENTS_PER_SIDE`` squared
    bilinear quads.  Subdomains 1-3 use central difference, subdomain 4
    average acceleration.  Coincident interface nodes are glued per
    component with chained constraints (three rows per component at the
    center cross point).  The loaded corner's DOFs are the default probes.
    """
    half = PLATE_SIDE / 2.0
    origins = [(0.0, 0.0), (half, 0.0), (0.0, half), (half, half)]
    n_el = PLATE_ELEMENTS_PER_SIDE

    parts = []
    probes = ()
    for i, (x0, y0) in enumerate(origins):
        grid = fem.quad_grid(n_el, n_el, half, half, x0=x0, y0=y0)
        M, K = fem.assemble_plane_strain(grid, PLATE_LAME_LAMBDA, PLATE_MU, PLATE_RHO)
        fixed_dofs = np.repeat(np.abs(grid.coords[:, 0]) <= 1e-12, 2)  # both components
        M, K, free = fem.eliminate_dofs(M, K, np.flatnonzero(fixed_dofs))
        node, comp = np.divmod(free, 2)
        x, y = grid.coords[node].T
        corner = (np.abs(x - PLATE_SIDE) <= 1e-12) & (np.abs(y) <= 1e-12)
        load = np.zeros(free.size)
        load[corner] = np.take(PLATE_CORNER_FORCE, comp[corner])
        probes += tuple((i, int(k)) for k in np.flatnonzero(corner))
        parts.append((M, K, load, None, np.column_stack((x, y, comp))))

    return _glue(
        parts, dt_system, etas, params, name="plate2d", duration=duration, probes=probes,
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


def wave_burst(t: float) -> float:
    """Time factor of the wave2d load: sin(2 pi t / tau) on [0, tau], else 0."""
    if 0.0 <= t <= WAVE_TAU_LOAD:
        return math.sin(2.0 * math.pi * t / WAVE_TAU_LOAD)
    return 0.0


def build_wave_2d(
    nx: int = 90,
    ny: int = 45,
    dt_system: float = 1.0e-4,
    etas: Sequence[int] = (10, 1),
    params: Sequence[NewmarkParams] = (CENTRAL_DIFFERENCE, AVERAGE_ACCELERATION),
    duration: float = 0.25,
) -> Scenario:
    """Scalar wave on a 2 x 1 rectangle, burst load on part of the left edge.

    Fixed on the top, bottom and right sides.  The load
    f0 sin(2 pi t / tau) acts on x = 0, y in [2Ly/5, 3Ly/5] until
    t = tau and then switches off.  Split vertically at x = 0.4 into a
    fine explicit (central-difference) subdomain 1 containing the load
    and a coarse implicit (average-acceleration) subdomain 2.  ``nx``
    and ``ny`` must place nodes on the interface and on the load-segment
    endpoints (ny a multiple of 5); otherwise a ``ValueError`` is raised.
    """
    hx = WAVE_LX / nx
    split_cols = WAVE_INTERFACE_X / hx
    if abs(split_cols - round(split_cols)) > 1e-9:
        raise ValueError("interface x must fall on a mesh line; adjust nx")
    if ny % 5:  # rows 2 ny / 5 and 3 ny / 5 hold the load-segment ends
        raise ValueError("load-segment ends must fall on mesh lines; adjust ny")
    nx1 = round(split_cols)
    nx2 = nx - nx1

    grids = [
        fem.quad_grid(nx1, ny, WAVE_INTERFACE_X, WAVE_LY),
        fem.quad_grid(nx2, ny, WAVE_LX - WAVE_INTERFACE_X, WAVE_LY, x0=WAVE_INTERFACE_X),
    ]
    parts = []
    for i, grid in enumerate(grids):
        M, K = fem.assemble_scalar_wave(grid, WAVE_C0)
        x, y = grid.coords[:, 0], grid.coords[:, 1]
        fixed = np.abs(y) <= 1e-12
        fixed |= np.abs(y - WAVE_LY) <= 1e-12
        fixed |= np.abs(x - WAVE_LX) <= 1e-12
        M, K, free = fem.eliminate_dofs(M, K, np.nonzero(fixed)[0])
        if i == 0:
            edge = fem.edge_load_left(grid, 0.4 * WAVE_LY, 0.6 * WAVE_LY)
            # f0 >= 0, so the zero load outside the burst is +0.0.
            parts.append((M, K, WAVE_F0 * edge[free], wave_burst, grid.coords[free]))
            # Probe: the free node closest to the load-segment midpoint.
            mid = np.array([0.0, WAVE_LY / 2.0])
            dist = np.linalg.norm(grid.coords[free] - mid, axis=1)
            probes = ((0, int(np.argmin(dist))),)
        else:
            parts.append((M, K, np.zeros(free.size), None, grid.coords[free]))

    return _glue(
        parts, dt_system, etas, params, name="wave2d", duration=duration, probes=probes,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "sdof2": build_sdof2,
    "sdof3": build_sdof3,
    "bar1d": build_bar_1d,
    "plate2d": build_plate_2d,
    "wave2d": build_wave_2d,
}
