"""Tests of the benchmark harness's own logic, on synthetic data.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from metrics import (  # noqa: E402
    layer_metrics,
    overhead_frac,
    percentile,
    scaled_duration,
    self_times,
    speed_segments,
)
from run import check_csv, read_csv  # noqa: E402


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        percentile(range(1, 20), 50)
    with pytest.raises(ValueError):
        percentile(range(1, 100), 90)


def test_self_time_subtracts_nested_children():
    # name, start, end, parent, step
    spans = [
        (0, 0.0, 10.0, -1, -1),
        (1, 1.0, 4.0, 0, -1),
        (2, 2.0, 3.0, 1, -1),
        (1, 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlaps_and_clips_children():
    spans = [
        (0, 0.0, 10.0, -1, -1),
        (1, 1.0, 5.0, 0, -1),
        (1, 3.0, 7.0, 0, -1),
        (1, 8.0, 12.0, 0, -1),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


NAMES = [
    "cli.execute",
    "problems.build",
    "linalg.solve_general",
    "coupling.advance",
    "coupling.propagators",
    "newmark.solve_rows",
]


def synthetic_run():
    """One execute: a build with a setup solve, then two steps."""
    execute, build, solve, advance, props, rows = range(len(NAMES))
    return [
        (execute, 0.0, 20.0, -1, -1),   # 0
        (build, 1.0, 5.0, 0, -1),       # 1
        (solve, 2.0, 3.0, 1, -1),       # 2: initial multiplier, not interface
        (advance, 6.0, 10.0, 0, 0),     # 3
        (props, 6.5, 8.0, 3, 0),        # 4: computes, has a child
        (rows, 7.0, 7.5, 4, 0),         # 5
        (solve, 8.0, 9.0, 3, 0),        # 6: interface solve
        (advance, 12.0, 15.0, 0, 1),    # 7
        (props, 12.5, 12.75, 7, 1),     # 8: cached, no child
        (solve, 13.0, 14.0, 7, 1),      # 9: interface solve
    ]


def test_layer_metrics_from_synthetic_spans():
    out = layer_metrics(NAMES, synthetic_run())
    assert out["problems.build_s"] == pytest.approx(4.0)
    assert out["coupling.steps"] == 2
    assert out["coupling.advance_s"] == pytest.approx(7.0)
    assert out["coupling.advance_self_s"] == pytest.approx(4.0 - 1.5 - 1.0 + 3.0 - 0.25 - 1.0)
    assert out["coupling.interface_solves"] == 2
    assert out["coupling.interface_solve_s"] == pytest.approx(2.0)
    assert out["coupling.propagator_calls"] == 1
    assert out["newmark.solve_rows_calls"] == 1
    assert out["cli.loop_self_s"] == pytest.approx(20.0 - 4.0 - 4.0 - 3.0)
    # Hooked but never called: zero, not missing.
    assert out["newmark.factor_count"] == 0


def test_missing_hook_target_reports_null():
    out = layer_metrics(NAMES, synthetic_run(), missing_hooks=["linalg.solve_general"])
    assert out["coupling.interface_solve_s"] is None
    assert out["coupling.interface_solves"] is None
    assert out["coupling.steps"] == 2


def test_overhead_is_relative_excess_of_medians():
    assert overhead_frac([11.0, 12.0, 13.0], [10.0, 9.0, 11.0]) == pytest.approx(0.2)
    assert overhead_frac([9.0], [10.0]) == pytest.approx(-0.1)


def test_speed_segments_lie_between_calibrations():
    # (start, duration) in s; the loop takes 2 ms, then 4 ms, then 2 ms.
    segments = speed_segments([(0.0, 0.002), (1.0, 0.004), (3.0, 0.002)], 2.0)
    assert segments == pytest.approx([(0.002, 1.0, 2.0 / 3.0), (1.004, 3.0, 2.0 / 3.0)])


def test_scaled_duration_skips_calibrations_and_scales_each_segment():
    segments = [(0.0, 1.0, 1.0), (1.5, 2.5, 0.5)]
    assert scaled_duration(0.0, 2.5, segments) == pytest.approx(1.0 + 0.5)
    assert scaled_duration(0.5, 2.0, segments) == pytest.approx(0.5 + 0.25)
    assert scaled_duration(1.0, 1.5, segments) == 0.0
    with pytest.raises(ValueError):
        scaled_duration(0.0, 3.0, segments)


def test_scaling_removes_a_uniform_slowdown():
    # The same work on a host twice as slow: every wall interval and every
    # calibration loop takes twice as long, and the scaled time is equal.
    def scaled(slow):
        cals = [(0.0, 0.002 * slow), (1.0 * slow, 0.002 * slow), (2.0 * slow, 0.002 * slow)]
        return scaled_duration(0.002 * slow, 2.0 * slow, speed_segments(cals, 2.0))

    assert scaled(2.0) == pytest.approx(scaled(1.0))


REFERENCE = read_csv([
    "t,E_total,norm_v_residual,lambda_0",
    "0,1.0,0,0",
    "0.1,1.0,1e-16,2.0",
    "0.2,0.5,1e-16,-4.0",
])


def write(tmp_path, rows):
    path = tmp_path / "run.csv"
    path.write_text("\n".join(["t,E_total,norm_v_residual,lambda_0", *rows]) + "\n")
    return path


def test_csv_matching_the_reference_passes(tmp_path):
    path = write(tmp_path, ["0,1.0,0,0", "0.1,1.0,3e-16,2.000001", "0.2,0.5,0,-4.0"])
    assert check_csv(path, 3, REFERENCE) == []


@pytest.mark.parametrize(
    "rows, needle",
    [
        (["0,1.0,0,0", "0.1,1.0,0,2.0"], "rows"),
        (["0,1.0,0,0", "0.1,nan,0,2.0", "0.2,0.5,0,-4.0"], "non-finite"),
        (["0,1.0,0,0", "0.1,1.0,2e-8,2.0", "0.2,0.5,0,-4.0"], "norm_v_residual"),
        (["0,1.0,0,0", "0.1,1.0,0,2.0", "0.2,0.5,0,-4.001"], "lambda_0"),
    ],
)
def test_csv_check_failures(tmp_path, rows, needle):
    problems = check_csv(write(tmp_path, rows), 3, REFERENCE)
    assert any(needle in p for p in problems), problems
