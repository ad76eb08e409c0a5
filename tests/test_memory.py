"""What a coupled run holds, counted with ``tracemalloc``.

numpy reports every array buffer it allocates to ``tracemalloc``, so the
traced figures below count the arrays alive (or at their peak) by their
exact bytes, independent of the allocator and of the host.
"""

import tracemalloc

import pytest
import scipy.sparse

from mtstep import coupling, linalg, problems
from mtstep.newmark import EffectiveSolver


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
#: builder's own M and K, before they were frozen into the subdomains
#: (1.19 MB), and its mesh arrays and other objects (0.45 MB), with
#: 0.26 MB to spare.  The two mass factors take 2.02 MB.
EIGENSOLVE_SLACK_BYTES = 1_900_000


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


@pytest.mark.parametrize("eta", [1, 10])
def test_acceleration_form_propagators_hold_only_the_sweep_buffers(eta, monkeypatch, traced):
    # Building the acceleration-form propagators of the 836-DOF wave2d
    # block allocates Y and, beside it, at most the sweep's buffers, each
    # of the (n, N_C) shape: min(eta, 2) alternating velocity and
    # displacement rows each, and what the loop adds to them.  The R form
    # adds two scratch arrays, rd and ga, and one transient at a time (the
    # K product, or the Fortran-order copy the band solve makes): 3 + 2
    # rows buffers.  The summed form of this central-difference block adds
    # one scratch array, t, and then the K product or the velocity pass's
    # copy of the rows: 1 + 3 rows, no more for rows <= 2.  The zero start
    # is a broadcast and the end velocities are not copied, so nothing else
    # of that size is allocated.  The rest, the ramp, the index products
    # and the N_C x N_C interface term, is far below one buffer.
    monkeypatch.setattr(coupling, "FULL_PROPAGATOR_MAX_BYTES", 0)
    sub = problems.build_wave_2d().system.subdomains[0]
    # Built before the count: the effective factor is the run's, not the sweep's.
    solver = EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
    buffer = sub.n_dofs * sub.n_constraints * 8
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    props = sub.multiplier_propagators(eta, solver)
    peak = tracemalloc.get_traced_memory()[1] - base
    assert peak - props.Y.nbytes <= (3 + 2 * min(eta, 2)) * buffer + buffer // 20
    assert not props.full and props.Y.shape == (eta, sub.n_dofs, sub.n_constraints)
    assert props.interface_term.shape == (sub.n_constraints,) * 2
