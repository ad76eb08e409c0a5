"""Dense saddle-point reference for the backward-Euler baseline.

Assembles the whole primal system of one backward-Euler step,

    [[M_i / dt + dt K_i, -C_i^T],   (v_i^(n+1))   (f_i^(n+1) + M_i v_i^n / dt - K_i d_i^n)
     [C_i,               0     ]]   (lam^(n+1)) = (0)

with one block row per subdomain and one shared multiplier column, and
solves it with ``numpy.linalg.solve``.  The library never forms this
matrix (it eliminates each SPD block and solves only the interface
complement); the tests use it as an independent oracle.  Its size is
sum_i n_i + N_C, so it is only practical for small systems.
"""

import numpy as np

from mtstep import linalg
from mtstep.coupling import CoupledSystem, SubstepHistory, SystemStepResult


def backward_euler_kkt_step(sys: CoupledSystem) -> SystemStepResult:
    """One backward-Euler step through the assembled dense KKT system.

    Same contract as :func:`mtstep.baselines.backward_euler_step`.
    """
    dt = sys.dt_system
    sizes = [sub.n_dofs for sub in sys.subdomains]
    offsets = np.cumsum([0, *sizes])
    total, n_c = offsets[-1], sys.n_constraints
    kkt = np.zeros((total + n_c, total + n_c))
    rhs = np.zeros(total + n_c)
    loads = []
    for sub, st, lo, hi in zip(sys.subdomains, sys.states, offsets, offsets[1:]):
        M, K = linalg.dense(sub.M), linalg.dense(sub.K)
        kkt[lo:hi, lo:hi] = M / dt + dt * K
        kkt[lo:hi, total:] = -sub.C.toarray().T
        kkt[total:, lo:hi] = sub.C.toarray()
        f = sub.loads(sys.t_current, 1, dt)
        loads.append(f)
        rhs[lo:hi] = f[1] + M @ st.v / dt - K @ st.d
    sol = np.linalg.solve(kkt, rhs)

    histories = []
    for sub, st, f, lo, hi in zip(sys.subdomains, sys.states, loads, offsets, offsets[1:]):
        v = sol[lo:hi]
        histories.append(SubstepHistory.swept(
            np.array([(v - st.v) / dt, v, st.d + dt * v])[:, None], f, sub.C
        ))
    return SystemStepResult(histories=tuple(histories), lambda_next=sol[total:])
