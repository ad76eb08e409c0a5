"""Properties of the chain glue on random coincident locations.

Each draw places 1-4 subdomains of 1-8 DOFs on points of a small grid,
so that copies in different subdomains often coincide, and glues them
with ``problems._chain_constraints``.  On every draw the merged DOF
numbering must equal the row-by-row reference, and the index products of
each ``SignedBooleanMatrix`` must give the bits of the dense products.
The examples are derandomised: every run draws the same ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import glue_reference
from mtstep.baselines import merge_dof_map
from mtstep.problems import _chain_constraints

GRID = [(x, y) for x in range(3) for y in range(3)]


@st.composite
def chain_glue(draw):
    """Chain constraints of 1-4 subdomains with 1-8 distinct grid points each."""
    locations = []
    for _ in range(draw(st.integers(1, 4))):
        points = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=8, unique=True))
        locations.append(0.1 * np.array(points, dtype=float))
    return _chain_constraints(locations)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(chain_glue(), st.integers(0, 2**32 - 1))
def test_chain_glue_merges_and_multiplies_like_the_dense_rows(constraints, seed):
    maps, size = merge_dof_map(constraints)
    ref_maps, ref_size = glue_reference.merge_dof_map(constraints)
    assert size == ref_size
    assert len(maps) == len(ref_maps)
    for got, want in zip(maps, ref_maps):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    rng = np.random.default_rng(seed)
    for C in constraints:
        n_c, n = C.shape
        x = rng.standard_normal(n)
        X = rng.standard_normal((n, 3))  # stacked columns
        lam = rng.standard_normal(n_c)
        rows = rng.standard_normal((5, n))
        for got, want in (
            (C.product(x), C.toarray() @ x),
            (C.product(X), C.toarray() @ X),
            (C.transpose_product(lam), C.toarray().T @ lam),
            (C.row_products(rows), rows @ C.toarray().T),
        ):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
