"""A coupled system step at 34 significant digits: the independent accuracy gate.

Every value starts from the exact value of a float input (a system's
matrices, loads, state and multiplier) and every operation rounds to 34
digits (``decimal``), so the result is the exact step to far below the
float code's round-off.  The arithmetic is the paper's, written out
plainly: each block's sub-steps in the R form of the paper
(:func:`substeps`), the free sweep with dlam = 0, the propagator
columns (the response to the ramp loads (j/eta) C^T e_k from a zero
start), the interface complement S = sum_i C_i Y_i^v, dlam by Gaussian
elimination with partial pivoting, and the correction of every
sub-level.  Nothing here calls the library's solver code.

Arrays are numpy object arrays of ``Decimal``, so a matrix product runs
numpy's own loop over Python multiplications and additions, in the
current ``decimal`` context; :func:`decimal_step` sets 34 digits.
"""

from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

PRECISION = 34


def exact(x) -> np.ndarray:
    """The exact values of a float array, as an object array of Decimals."""
    x = np.asarray(x, dtype=float)
    return np.array([Decimal(float(e)) for e in x.ravel()], dtype=object).reshape(x.shape)


def zeros(shape) -> np.ndarray:
    return np.full(shape, Decimal(0), dtype=object)


def to_float(x: np.ndarray) -> np.ndarray:
    return np.vectorize(float, otypes=[float])(x) if x.size else np.zeros(x.shape)


def inverse(E: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse, with partial pivoting, of a square object array."""
    n = len(E)
    aug = np.concatenate([E, np.eye(n, dtype=int).astype(object) + Decimal(0)], axis=1)
    for c in range(n):
        p = c + int(np.argmax([abs(x) for x in aug[c:, c]]))
        aug[[c, p]] = aug[[p, c]]
        aug[c] = aug[c] / aug[c, c]
        factors = aug[:, c].copy()
        factors[c] = Decimal(0)
        aug -= np.outer(factors, aug[c])
    return aug[:, n:]


def substeps(sub, inv: np.ndarray, a, v, d, loads):
    """(a, v, d) after each Newmark sub-step of ``sub`` from (a, v, d).

    The paper's R-form rows, with ``inv`` the inverse of M + beta dt^2 K
    and one load row per sub-step.  States are vectors or matrices of
    stacked columns; so are the load rows.
    """
    K = exact(sub.K)
    dt, beta, gamma = (Decimal(x) for x in (sub.dt_sub, sub.params.beta, sub.params.gamma))
    c_v, c_d, c_a = (1 - gamma) * dt, (Decimal("0.5") - beta) * dt * dt, beta * dt * dt
    for f in loads:
        rv = c_v * a + v
        rd = c_d * a + dt * v + d
        a = inv.dot(f - K.dot(rd))
        v = rv + gamma * dt * a
        d = rd + c_a * a
        yield a, v, d


def history(sub, inv, a, v, d, loads) -> np.ndarray:
    """:func:`substeps` stacked as (3, eta, ...): a, v and d of every sub-level."""
    return np.array([list(x) for x in zip(*substeps(sub, inv, a, v, d, loads))], dtype=object)


class BlockStep(NamedTuple):
    """One block's part of a 34-digit step.

    ``free`` is the dlam = 0 history (3, eta, n); ``Y`` the propagator
    columns (3, eta, n, p) of the p constraint rows that touch the block,
    ``cols``; ``hist`` the corrected history.
    """

    free: np.ndarray
    Y: np.ndarray
    cols: np.ndarray
    hist: np.ndarray


class DecimalStep(NamedTuple):
    blocks: tuple[BlockStep, ...]
    S: np.ndarray
    S_inv: np.ndarray
    gap: np.ndarray
    dlam: np.ndarray


def gauss_solve(S: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with S x = b, by Gaussian elimination with partial pivoting."""
    n = len(S)
    aug = np.concatenate([S, b[:, None]], axis=1)
    for c in range(n):
        p = c + int(np.argmax([abs(x) for x in aug[c:, c]]))
        aug[[c, p]] = aug[[p, c]]
        for r in range(c + 1, n):
            aug[r] -= (aug[r, c] / aug[c, c]) * aug[c]
    x = zeros(n)
    for r in reversed(range(n)):
        x[r] = (aug[r, n] - aug[r, r + 1:n].dot(x[r + 1:])) / aug[r, r]
    return x


def decimal_step(system) -> DecimalStep:
    """One coupled system step from ``system`` at 34 digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        n_c = system.n_constraints
        lam_n = exact(system.lambda_current)
        parts, gap, S = [], zeros(n_c), zeros((n_c, n_c))
        for sub, eta, st in zip(system.subdomains, system.eta, system.states):
            C = exact(sub.C.toarray())
            dt2_beta = Decimal(sub.dt_sub) ** 2 * Decimal(sub.params.beta)
            inv = inverse(exact(sub.M) + dt2_beta * exact(sub.K))
            f = exact(sub.loads(system.t_current, eta))
            free = history(sub, inv, exact(st.a), exact(st.v), exact(st.d), f[1:] + C.T.dot(lam_n))
            cols = np.asarray(sub.C.rows)
            Ct = C.T[:, cols]
            ramp = [Decimal(j) / Decimal(eta) for j in range(1, eta + 1)]
            start = zeros(Ct.shape)
            Y = history(sub, inv, start, start, start, [r * Ct for r in ramp])
            gap += C.dot(free[1, -1])
            S[:, cols] += C.dot(Y[1, -1])
            parts.append((free, Y, cols))
        dlam = gauss_solve(S, -gap)
        blocks = tuple(
            BlockStep(free, Y, cols, free + Y.dot(dlam[cols])) for free, Y, cols in parts
        )
        return DecimalStep(blocks, S, inverse(S), gap, dlam)
