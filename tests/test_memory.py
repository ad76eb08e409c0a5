"""What a coupled run holds, counted with ``tracemalloc``.

numpy reports every array buffer it allocates to ``tracemalloc``, so the
traced figures below count the arrays alive (or at their peak) by their
exact bytes, independent of the allocator and of the host.
"""

import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from mtstep import coupling, diagnostics, fem, linalg, problems
from mtstep.coupling import advance_system_step
from mtstep.newmark import EffectiveSolver
import step_reference


def _nbytes(A) -> int:
    if scipy.sparse.issparse(A):
        return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    return A.nbytes


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


#: What may be alive besides the subdomains and states when the
#: critical-step eigensolve of the default wave mesh starts: the
#: builder's mesh arrays and other objects (0.44 MB), with 0.26 MB to
#: spare.  The builder's own M and K (1.19 MB) are freed by then (see
#: the test below).  The two mass factors take 2.02 MB.
EIGENSOLVE_SLACK_BYTES = 700_000


def test_no_build_factor_is_alive_at_the_critical_step_eigensolve(monkeypatch, traced):
    # While a wave mesh is built, the eigensolve of the plan's critical-step
    # check starts with nothing alive beyond what the subdomains and
    # states hold and a slack smaller than the mass factors: the factors,
    # free accelerations and Schur products of the consistent start are
    # freed before the plan is made.
    entries = []
    eigenvalue = linalg.max_generalized_eigenvalue

    def recorded(K, M):
        entries.append(tracemalloc.get_traced_memory()[0])
        return eigenvalue(K, M)

    monkeypatch.setattr(linalg, "max_generalized_eigenvalue", recorded)
    base = tracemalloc.get_traced_memory()[0]
    system = problems.build_wave_2d().system
    assert entries  # the explicit block's step is checked by an eigensolve

    held = system.lambda_current.nbytes
    for sub, st in zip(system.subdomains, system.states):
        held += _nbytes(sub.M) + _nbytes(sub.K) + sub.f0.nbytes
        held += sum(x.nbytes for x in (sub.C.rows, sub.C.dofs, sub.C.signs))
        held += st.d.nbytes + st.v.nbytes + st.a.nbytes

    before = tracemalloc.get_traced_memory()[0]
    factors = [linalg.cholesky_factor(sub.M) for sub in system.subdomains]
    mass_factors = tracemalloc.get_traced_memory()[0] - before
    del factors
    assert EIGENSOLVE_SLACK_BYTES < mass_factors
    assert max(entries) - base <= held + EIGENSOLVE_SLACK_BYTES


@pytest.fixture
def traced_deep():
    # Enough frames to reach from numpy's allocation up to fem.py.
    tracemalloc.start(25)
    yield
    tracemalloc.stop()


@pytest.mark.parametrize(
    "build", [problems.build_plate_2d, problems.build_wave_2d], ids=["plate2d", "wave2d"]
)
def test_no_builder_matrix_is_alive_at_the_critical_step_eigensolve(build, monkeypatch, traced_deep):
    # The builders reduce every block's M and K with fem.eliminate_dofs,
    # whose return statement allocates them, and hand them to the glue,
    # which drops each once its subdomain holds frozen copies.  So when a
    # critical-step eigensolve starts, no array buffer (numpy's tracemalloc
    # domain) allocated under that statement is alive.  Before the release
    # the default wave mesh had 1.18 MB of them alive there.
    source, first = inspect.getsourcelines(fem.eliminate_dofs)
    (line,) = [first + k for k, text in enumerate(source) if text.lstrip().startswith("return ")]
    alive = []
    eigenvalue = linalg.max_generalized_eigenvalue

    def recorded(K, M):
        snapshot = tracemalloc.take_snapshot()
        snapshot = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        snapshot = snapshot.filter_traces([tracemalloc.Filter(True, fem.__file__, line, all_frames=True)])
        alive.append(sum(trace.size for trace in snapshot.traces))
        return eigenvalue(K, M)

    monkeypatch.setattr(linalg, "max_generalized_eigenvalue", recorded)
    build()
    assert alive and alive == [0] * len(alive)


@pytest.mark.parametrize("eta", [1, 10])
def test_acceleration_form_propagators_hold_only_the_sweep_buffers(eta, monkeypatch, traced):
    # Building the acceleration-form propagators of wave2d's explicit
    # (central-difference) block allocates Y and, beside it, at most the
    # sweep's buffers, each of the (n, N_C) shape: min(eta, 2) alternating
    # velocity and displacement rows each, and what the loop adds to them.
    # The zero start is a broadcast and the end velocities are not copied,
    # so nothing else of that size is allocated.
    # * The default mesh's 836-DOF block is CSR.  The R form adds two
    #   scratch arrays, rd and ga, and one transient at a time (the K
    #   product, or the Fortran-order copy the band solve makes): 3 + 2
    #   rows buffers.  The summed form of this block adds one scratch
    #   array, t, and then the K product or the velocity pass's copy of
    #   the rows: 1 + 3 rows, no more for rows <= 2.  The rest, the ramp,
    #   the index products and the N_C x N_C interface term, is far below
    #   one buffer: 5 % of one is allowed.
    # * The 20 x 10 mesh's 45-DOF block is dense central difference, so
    #   its loads are solved before the sweep: the dense C^T and the output
    #   of its one solve, two buffers, are freed once the ramped loads are
    #   written into Y, before the rows exist.  The sweep's summed form
    #   makes no solve; it adds t and then one transient at a time, the G
    #   product or the velocity pass's copy of the rows: 1 + 3 rows.  Its
    #   buffer is 3.2 KB, so the rest (2.0-2.7 KB, mostly array headers)
    #   gets a fixed 4 KiB.  Measured beside Y: 15 000 B at eta = 1 and
    #   25 384 B at eta = 10 (4.6 and 7.8 buffers; bounds 17 056 and
    #   26 776 B).
    monkeypatch.setattr(coupling, "FULL_PROPAGATOR_MAX_BYTES", 0)
    rows = min(eta, 2)
    for nx, ny in ((90, 45), (20, 10)):
        sub = problems.build_wave_2d(nx=nx, ny=ny).system.subdomains[0]
        # Built before the count: the effective factor is the run's, not the sweep's.
        solver = EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
        buffer = sub.n_dofs * sub.n_constraints * 8
        if scipy.sparse.issparse(sub.K):
            assert sub.n_dofs == 836 and solver.G is None
            bound = (3 + 2 * rows) * buffer + buffer // 20
        else:
            assert sub.n_dofs == 45 and solver.G is not None
            bound = (1 + 3 * rows) * buffer + 4096
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        props = sub.multiplier_propagators(eta, solver)
        peak = tracemalloc.get_traced_memory()[1] - base
        assert peak - props.Y.nbytes <= bound
        assert props.Y.shape == (eta, sub.n_dofs, sub.n_constraints)
        assert props.interface_term.shape == (sub.n_constraints,) * 2


@pytest.mark.parametrize("eta", [10, 1000])
def test_response_map_build_holds_two_sweep_arrays(eta, traced):
    # Building the bar's response map (6 DOFs, m = 23 unit columns)
    # allocates the rows it keeps and, beside them, at most the sweep's two
    # (eta, n, m) arrays, the accelerations and displacements of every
    # sub-level, and a few arrays of one (n, m) row each: the zero start
    # (three rows), the one velocity row, the summed form's scratch t and
    # one transient at a time (the G product, or the velocity pass's row).
    # Eight rows are allowed; measured 5.0 (eta = 1000) and 5.7 (eta = 10),
    # with the solved loads and the index arrays.
    sub = problems.build_bar_1d(etas=(1, eta, 1)).system.subdomains[1]
    solver = EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
    n, m = sub.n_dofs, 3 * sub.n_dofs + 1 + 2 * sub.n_constraints
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    kept = sub.response_map(eta, solver)
    peak = tracemalloc.get_traced_memory()[1] - base
    assert kept.end.shape == (3 * n, m) and kept.constrained.shape == (eta - 1, 2, m)
    row = n * m * 8
    assert peak - sum(x.nbytes for x in kept) <= 2 * eta * row + 8 * row


def test_external_work_reads_only_what_a_step_forms(traced):
    # The bar at eta = 1000 steps its middle block by its response map, so
    # that block's history holds its end rows and rows C d_j and no
    # sub-level rows.  Every block's load is constant, and its work
    # telescopes to f0^T (d^(n+1) - d^n): the external work reads the end
    # rows and allocates a few n-vectors, under 64 KiB, where the mapped
    # block's (3, eta, n) rows alone would take 144 KB.  It stays within
    # 1e-12 of the energy of the per-sub-level sum.
    sys = problems.build_bar_1d(etas=(1, 1000, 1)).system
    sys = sys.apply(advance_system_step(sys))
    result = advance_system_step(sys)
    assert [hist.rows is None for hist in result.histories] == [False, True, False]
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    work = diagnostics.external_work(result, sys)
    assert tracemalloc.get_traced_memory()[1] - base < 64 * 1024
    scale = max(diagnostics.total_energy(level).total for level in (sys, sys.apply(result)))
    reference = step_reference.external_work(step_reference.reference_step(sys), sys)
    assert work != 0.0 and scale > 0.0
    assert abs(work - reference) <= 1e-12 * scale
