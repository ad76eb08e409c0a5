"""The benchmark's workloads, run through the CLI, against their reference CSVs.

``perfbench/run.py`` accepts a run only if its CSV passes ``check_csv``
against the reference recorded in ``perfbench/reference``: every column
within 1e-6 of the column's largest reference magnitude plus 1e-12, and
the constraint residual ``norm_v_residual`` at most 1e-8 in place of a
comparison.  Running the same check here makes a change of output bits
show in the test suite, not only in a benchmark run.  The workload files
are only read.
"""

import gzip
import math
import sys
from pathlib import Path

import pytest

from mtstep import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import check_csv, read_cfg, read_csv  # noqa: E402

WORKLOADS = sorted(PERFBENCH.glob("workloads/*.cfg"))


def test_the_workloads_are_found():
    assert [cfg.stem for cfg in WORKLOADS] == ["bar1d_eta1000", "plate2d", "wave2d"]


@pytest.mark.parametrize("cfg", WORKLOADS, ids=[cfg.stem for cfg in WORKLOADS])
def test_workload_output_matches_its_reference(cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("MTS_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["run", str(cfg)]) == 0
    values = read_cfg(cfg)
    rows = math.ceil(float(values["duration"]) / float(values["dt_system"]) - 1e-9) + 1
    with gzip.open(PERFBENCH / "reference" / f"{cfg.stem}.csv.gz", "rt") as fh:
        reference = read_csv(fh)
    assert check_csv(tmp_path / values["output"], rows, reference) == []
