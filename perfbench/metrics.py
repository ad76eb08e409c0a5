"""Pure functions that turn child-process records and spans into metrics.

Nothing here imports mtstep or starts a process, so the harness's own
logic can be tested on synthetic data (``perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Per-layer metrics that are the total duration (``_s``) or number of
#: spans of one name, keyed by metric name.
SPAN_TOTALS = {
    "problems.build_s": "problems.build",
    "fem.assemble_s": "fem.assemble",
    "newmark.critical_dt_s": "newmark.critical_dt",
    "newmark.factor_s": "newmark.factor",
    "linalg.cholesky_factor_s": "linalg.cholesky_factor",
    "coupling.propagators_s": "coupling.propagators",
    "newmark.solve_rows_s": "newmark.solve_rows",
    "coupling.advance_s": "coupling.advance",
    "coupling.apply_s": "coupling.apply",
    "diagnostics.energy_report_s": "diagnostics.energy_report",
    "diagnostics.energy_algorithm_s": "diagnostics.energy_algorithm",
    "diagnostics.energy_interface_s": "diagnostics.energy_interface",
    "diagnostics.drift_s": "diagnostics.drift",
    "cli.write_csv_s": "cli.write_csv",
}
SPAN_COUNTS = {
    "newmark.factor_count": "newmark.factor",
    "linalg.cholesky_factor_calls": "linalg.cholesky_factor",
    "newmark.solve_rows_calls": "newmark.solve_rows",
    "coupling.steps": "coupling.advance",
}


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile.

    Raises ValueError unless at least ``MIN_TAIL_SAMPLES`` samples lie
    beyond the reported rank (the median needs 20 samples, p90 100).
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return sorted(samples)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def overhead_frac(traced_run_s: Sequence[float], untraced_run_s: Sequence[float]) -> float:
    """Tracing overhead: relative excess of the traced runs' median run_s."""
    base = statistics.median(untraced_run_s)
    return (statistics.median(traced_run_s) - base) / base


def speed_segments(
    calibrations: Sequence[Sequence[float]], reference_ms: float
) -> list[tuple[float, float, float]]:
    """Work intervals between calibrations, each with its speed factor.

    ``calibrations`` are ``(start, duration)`` of the calibration loops of
    one run, in seconds and in time order.  The work between two of them
    is scaled by ``reference_ms`` over the mean of their two durations in
    ms: the factor that turns its wall time into time on a host where the
    loop takes ``reference_ms``.  Time spent in the loops is in no interval.
    """
    out = []
    for (s0, d0), (s1, d1) in zip(calibrations, calibrations[1:]):
        out.append((s0 + d0, s1, reference_ms / (500.0 * (d0 + d1))))
    return out


def scaled_duration(a: float, b: float, segments: Sequence[Sequence[float]]) -> float:
    """Sum over ``segments`` of their overlap with ``[a, b]`` times their factor.

    Raises ValueError when ``[a, b]`` is not covered by the segments' span.
    """
    if not segments or a < segments[0][0] or b > segments[-1][1]:
        raise ValueError(f"[{a}, {b}] lies outside the calibrated span")
    return sum(max(0.0, min(hi, b) - max(lo, a)) * factor for lo, hi, factor in segments)


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans[k]`` is ``(name, start, end, parent, step)`` with ``parent`` the
    index of the enclosing span or -1.  Overlapping children are merged, and
    children are clipped to their parent's interval.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children[parent].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, index: int, ancestor_key: int) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor_key:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(
    names: Sequence[str],
    spans: Sequence[Sequence],
    missing_hooks: Sequence[str] = (),
) -> dict[str, Optional[float]]:
    """Per-layer times and counts of one traced run.

    ``spans`` refer to their name by index into ``names``.  A metric whose
    span name is in ``missing_hooks`` (its hook target no longer exists) is
    ``None``.
    """
    index = {name: k for k, name in enumerate(names)}
    missing = set(missing_hooks)
    selfs = self_times(spans)
    by_key: dict[int, list[int]] = {}
    for k, span in enumerate(spans):
        by_key.setdefault(span[0], []).append(k)

    def present(*span_names: str) -> bool:
        return not missing.intersection(span_names)

    def spans_of(name: str) -> list[int]:
        return by_key.get(index.get(name), [])

    def total(ks) -> float:
        return sum(spans[k][2] - spans[k][1] for k in ks)

    out: dict[str, Optional[float]] = {}
    for metric, name in SPAN_TOTALS.items():
        out[metric] = total(spans_of(name)) if present(name) else None
    for metric, name in SPAN_COUNTS.items():
        out[metric] = len(spans_of(name)) if present(name) else None

    advance = spans_of("coupling.advance")
    out["coupling.advance_self_s"] = (
        sum(selfs[k] for k in advance) if present("coupling.advance") else None
    )
    if present("coupling.advance", "linalg.solve_general"):
        key = index.get("coupling.advance")
        interface = [
            k for k in spans_of("linalg.solve_general")
            if _has_ancestor(spans, k, key)
        ]
        out["coupling.interface_solve_s"] = total(interface)
        out["coupling.interface_solves"] = len(interface)
    else:
        out["coupling.interface_solve_s"] = out["coupling.interface_solves"] = None
    if present("coupling.propagators"):
        # A call with child spans computed the propagators; the others
        # returned the cached ones.
        parents = {span[3] for span in spans}
        out["coupling.propagator_calls"] = sum(
            1 for k in spans_of("coupling.propagators") if k in parents
        )
    else:
        out["coupling.propagator_calls"] = None
    out["cli.loop_self_s"] = (
        sum(selfs[k] for k in spans_of("cli.execute")) if present("cli.execute") else None
    )
    return out
