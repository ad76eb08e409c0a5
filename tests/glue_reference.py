"""Dictionary-based chain glue and row-by-row DOF merging, kept as references.

The scenario builders once glued their subdomains by mapping each DOF's
rounded location to its index in a Python dict, grouping equal keys and
filling dense constraint rows one entry at a time.  The library now sorts
the stacked location rows instead (``mtstep.problems._chain_constraints``);
the tests compare its matrices against these bit for bit.

The merged (primal) DOF numbering was once found by reading the dense
constraint rows one row and one subdomain at a time
(:func:`merge_dof_map`); the library reads the constraints' index arrays
instead (``mtstep.baselines.merge_dof_map``), and the tests compare its
maps against this one.
"""

import numpy as np

from mtstep.coupling import SignedBooleanMatrix


def location_maps(locations):
    """The per-subdomain ``{rounded location: DOF}`` dicts of the builders."""
    return [
        {tuple(round(float(c), 12) for c in row): k for k, row in enumerate(loc)}
        for loc in locations
    ]


def chain_constraints(location_maps, n_dofs):
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


def merge_dof_map(constraints):
    """Union-find over the dense rows of the C_i: (per-subdomain maps, size)."""
    offsets = np.cumsum([0] + [C.shape[1] for C in constraints])
    total = int(offsets[-1])
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_c = constraints[0].shape[0]
    for row in range(n_c):
        linked = []
        for i, C in enumerate(constraints):
            cols = np.nonzero(C.data[row])[0]
            for col in cols:
                linked.append(int(offsets[i]) + int(col))
        for a, b in zip(linked, linked[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

    roots = sorted({find(x) for x in range(total)})
    root_index = {r: k for k, r in enumerate(roots)}
    maps = []
    for i, C in enumerate(constraints):
        local = np.array(
            [root_index[find(int(offsets[i]) + k)] for k in range(C.shape[1])],
            dtype=int,
        )
        maps.append(local)
    return maps, len(roots)
