"""A whole coupled system step against its 34-digit value.

The stacked-step tests hold ``advance_system_step`` to a float reference
that follows the library's own arithmetic, so they check bits, not
accuracy.  Here every case is held to :func:`decimal_oracle.decimal_step`,
the same step at 34 digits from the same float inputs, within bounds
that come from the method's error analysis, not from today's output.
"""

import math

import numpy as np
import pytest

from mtstep import linalg, problems
from mtstep.coupling import advance_system_step
import decimal_oracle

EPS = np.finfo(float).eps


def _recurrence_bounds(sub, lam_max, h) -> np.ndarray:
    """Bounds (a, v, d) on the float error of one block history ``h``
    (3, eta, n) that the float code sweeps from exact-valued inputs.

    The per-block bounds of
    ``test_newmark.test_central_difference_substeps_keep_their_accuracy_in_motion``:
    eta sub-steps of dt, each rounding every quantity at most 4 ulp
    (u = 4 eps per sub-step) of its largest magnitude, in a stable
    recurrence that does not amplify an error, so that with
    X = max|d| + eta dt max|v| (d carries the increments' round-off),
    e_d <= eta u X, e_a <= eta u (max|a| + lambda_max X) (a = M^-1 (f - K d)
    takes an error in d up to lambda_max times over) and
    e_v <= eta u (max|v| + omega_max X).  For an implicit block the
    effective factor only lowers the amplification: dt |(M + beta dt^2 K)^-1 K|
    <= omega_max as well.
    """
    eta = h.shape[1]
    top_a, top_v, top_d = (float(np.abs(x).max(initial=0)) for x in h)
    X = top_d + eta * sub.dt_sub * top_v
    u = eta * 4 * EPS
    return u * np.array([top_a + lam_max * X, top_v + math.sqrt(lam_max) * X, X])


def _step_bounds(system, ref):
    """The bound on dlam, and per block the (a, v, d) bounds on its
    corrected history; see the derivation in the test below."""
    n_c = system.n_constraints
    dlam = np.abs(decimal_oracle.to_float(ref.dlam))
    free_b, col_b = [], []
    for sub, block in zip(system.subdomains, ref.blocks):
        lam_max = linalg.max_generalized_eigenvalue(sub.K, sub.M)
        free_b.append(_recurrence_bounds(sub, lam_max, block.free))
        col_b.append(np.array([
            _recurrence_bounds(sub, lam_max, block.Y[..., k]) for k in range(len(block.cols))
        ]).reshape(-1, 3))
    S = np.abs(decimal_oracle.to_float(ref.S))
    S_inv = np.abs(decimal_oracle.to_float(ref.S_inv))
    gap_err = sum(b[1] for b in free_b)
    S_err = sum(b[:, 1].sum() for b in col_b)
    norm_S, norm_S_inv = S.sum(axis=1).max(), S_inv.sum(axis=1).max()
    dlam_top = dlam.max(initial=0.0)
    dlam_err = norm_S_inv * (gap_err + S_err * dlam_top + 3 * n_c * EPS * norm_S * dlam_top)
    bounds = []
    for block, fb, cb in zip(ref.blocks, free_b, col_b):
        Y = np.abs(decimal_oracle.to_float(block.Y))  # (3, eta, n, p)
        free = np.abs(decimal_oracle.to_float(block.free))
        weights = dlam[block.cols]
        row_sums = Y.sum(axis=3).max(axis=(1, 2)) if Y.size else np.zeros(3)
        corr_top = (Y @ weights).max(axis=(1, 2)) if Y.size else np.zeros(3)
        free_top = free.max(axis=(1, 2))
        p = len(block.cols)
        bounds.append(
            fb + cb.T @ weights + row_sums * dlam_err + (p + 2) * EPS * (free_top + corr_top)
        )
    return dlam_err, bounds, norm_S * norm_S_inv


CASES = {
    "sdof3": lambda: problems.build_sdof3().system,
    "bar_eta10": lambda: problems.build_bar_1d().system,
    "bar_eta1000": lambda: problems.build_bar_1d(etas=(1, 1000, 1)).system,
    "plate": lambda: problems.build_plate_2d().system,
}


@pytest.mark.parametrize("steps_before", [0, 3], ids=["from_rest", "in_motion"])
@pytest.mark.parametrize("name", CASES)
def test_coupled_step_keeps_its_accuracy(name, steps_before):
    # One system step, from t = 0 and after 3 steps in motion, against
    # the same step at 34 digits from the same float inputs.  The float
    # error of the step has four parts:
    # * each block's free sweep (dlam = 0) and each of its propagator
    #   columns is a recurrence, bounded per block as in the 34-digit
    #   block tests (``_recurrence_bounds``);
    # * the gap g = sum_i C_i v_i^free carries the free sweeps' velocity
    #   bounds, summed over the blocks (each row of C_i has one entry of
    #   magnitude 1), and S = sum_i C_i Y_i^v the columns' velocity
    #   bounds, summed over the columns for its row-sum norm;
    # * the interface solve then gives dlam = -S^-1 g with an error of at
    #   most |S^-1| (|dg| + |dS| |dlam| + 3 N_C eps |S| |dlam|), the last
    #   term the backward error of the pivoted LU: kappa(S) = |S| |S^-1|
    #   times the relative errors of the gap and of S (infinity norms,
    #   kappa from the 34-digit S);
    # * the correction x_j = x_j^free + Y_j dlam adds, per quantity, the
    #   columns' bounds weighted by |dlam_k|, the largest row sum of |Y|
    #   times dlam's error, and (p + 2) eps of the magnitudes for the
    #   product of length p and the sum.
    # Every sub-level of every swept block and the new multiplier are held
    # to these bounds.  A block stepped by its response map forms only its
    # end rows and its rows C d_j: those are held to the bounds of its last
    # sub-level and, as each row of C has one entry of magnitude 1, C d_j
    # to the displacement bound.
    system = CASES[name]()
    for _ in range(steps_before):
        system = system.apply(advance_system_step(system))
    result = advance_system_step(system)
    ref = decimal_oracle.decimal_step(system)
    dlam_err, bounds, kappa = _step_bounds(system, ref)
    assert math.isfinite(kappa)
    lam_ref = system.lambda_current + decimal_oracle.to_float(ref.dlam)
    lam_err = np.abs(result.lambda_next - lam_ref).max(initial=0.0)
    assert lam_err <= dlam_err + 2 * EPS * np.abs(lam_ref).max(initial=0.0)
    for sub, hist, block, bound in zip(system.subdomains, result.histories, ref.blocks, bounds):
        want = decimal_oracle.to_float(block.hist)
        constraint_rows = sub.C.row_products(want[2])
        got = hist.rows
        if got is None:  # a mapped block
            got, want = hist.end, want[:, -1]
        for x, x_ref, b in zip(got, want, bound):
            assert np.abs(x - x_ref).max() <= b
        assert np.abs(hist.constraint_rows - constraint_rows).max() <= bound[2]
