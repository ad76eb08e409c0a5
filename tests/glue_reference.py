"""Dictionary-based chain glue, kept as a reference for the sorted one.

The scenario builders once glued their subdomains by mapping each DOF's
rounded location to its index in a Python dict, grouping equal keys and
filling dense constraint rows one entry at a time.  The library now sorts
the stacked location rows instead (``mtstep.problems._chain_constraints``);
the tests compare its matrices against these bit for bit.
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
