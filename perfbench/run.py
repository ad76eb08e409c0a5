"""Outside-in benchmark of ``mtstep run <cfg>``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload wave2d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each measured run is a fresh child process (``child.py``) that calls the
CLI on one of the config files in ``perfbench/workloads``: a closed loop
with one client, run after run, single process, BLAS threads pinned to
``min(2, nproc)``.  Runs are started until ``--seconds`` is used up, with
at least ``MIN_RUNS`` runs and ``MIN_STEP_SAMPLES`` per-step samples.  The
seed only shuffles the order of the runs (the validation pass and, when
tracing, traced against untraced runs); the inputs are the same configs
for every seed.

Every run's CSV is checked: steps + 1 rows, finite values, the velocity
constraint residual ``norm_v_residual <= 1e-8``, and agreement with the
reference CSV recorded at the seed commit (``perfbench/reference``) within
``REFERENCE_RTOL`` of each column's largest magnitude plus
``REFERENCE_ATOL``.  An untimed
validation pass checks the energy balance to 1e-9.  A run that exits
non-zero or fails a check counts in ``failed_run_frac``.

``--trace 0`` reports the end-to-end metrics of untraced runs, ``--trace 1``
the per-layer metrics of traced runs plus the tracing overhead against
untraced runs made in the same invocation.  End-to-end times are given at
reference host speed, calibrated within each run (see ``child.py``); the
table also prints their unscaled wall-clock values.  Every invocation writes a
result file, with the machine settings, under ``.perfbench_out/results``;
the last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import layer_metrics, overhead_frac, percentile

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    cfg: str
    validate_steps: int
    #: The calibration loop of ``child.CALIBRATIONS`` whose kind of work
    #: dominates this workload's steps.
    calibration: str


#: Each workload stresses a different mix of the same layers (see README.md).
#: plate2d is not listed in BENCHMARK.json; it can be run by name.
WORKLOADS = {
    "wave2d": Workload("wave2d.cfg", validate_steps=3, calibration="streaming"),
    "bar1d_eta1000": Workload("bar1d_eta1000.cfg", validate_steps=3, calibration="small_solves"),
    "plate2d": Workload("plate2d.cfg", validate_steps=50, calibration="small_solves"),
}

#: At least this many measured runs per invocation, whatever ``--seconds``.
MIN_RUNS = 3

#: Enough step samples for p90 to have 10 samples beyond it.
MIN_STEP_SAMPLES = 100

#: Upper limit on measured runs, for a program that becomes very fast.
MAX_RUNS = 200

#: No child is started after this many seconds, and each is killed at it.
DEADLINE_S = 165.0

#: The ROADMAP's |sum C v| invariant, checked on every CSV row.
V_RESIDUAL_MAX = 1e-8

#: CSV agreement with the reference: |x - ref| <= REFERENCE_RTOL * (largest
#: |ref| of the column) + REFERENCE_ATOL.  The absolute term lets columns
#: that are round-off level at the reference (the interface multipliers
#: of wave2d before the wave reaches the interface) differ in round-off.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "problems.build_s": "s",
    "fem.assemble_s": "s",
    "newmark.critical_dt_s": "s",
    "newmark.factor_s": "s",
    "newmark.factor_count": "count",
    "linalg.cholesky_factor_s": "s",
    "linalg.cholesky_factor_calls": "count",
    "coupling.propagators_s": "s",
    "coupling.propagator_calls": "count",
    "newmark.solve_rows_s": "s",
    "newmark.solve_rows_calls": "count",
    "coupling.advance_s": "s",
    "coupling.advance_self_s": "s",
    "coupling.interface_solve_s": "s",
    "coupling.interface_solves": "count",
    "coupling.apply_s": "s",
    "diagnostics.energy_report_s": "s",
    "diagnostics.energy_algorithm_s": "s",
    "diagnostics.energy_interface_s": "s",
    "diagnostics.drift_s": "s",
    "cli.loop_self_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "problems.operator_bytes": "bytes",
    "process.cpu_s": "s",
    "coupling.steps": "count",
    "coupling.substeps": "count",
    "trace.overhead_frac": "1",
    "host.calibration_ms": "ms",
}


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def read_cfg(path: Path) -> dict[str, str]:
    values = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def read_csv(lines) -> tuple[list[str], list[list[float]]]:
    lines = iter(lines)
    header = next(lines).strip().split(",")
    return header, [[float(x) for x in line.split(",")] for line in lines if line.strip()]


def check_csv(path: Path, expected_rows: int, reference) -> list[str]:
    """Problems found in one run's CSV; empty when it passes every check."""
    if not path.is_file():
        return [f"{path.name} was not written"]
    with path.open() as fh:
        header, rows = read_csv(fh)
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    if not all(math.isfinite(x) for row in rows for x in row):
        problems.append("non-finite value")
    if "norm_v_residual" not in header:
        return problems + ["no norm_v_residual column"]
    col = header.index("norm_v_residual")
    worst = max((row[col] for row in rows), default=0.0)
    if not worst <= V_RESIDUAL_MAX:
        problems.append(f"norm_v_residual {worst:.3e} > {V_RESIDUAL_MAX:g}")
    ref_header, ref_rows = reference
    if header != ref_header or len(rows) != len(ref_rows):
        return problems + ["header or row count differs from the reference"]
    for k, name in enumerate(header):
        if k == col:
            continue  # round-off level; held to V_RESIDUAL_MAX above
        scale = max(abs(row[k]) for row in ref_rows)
        err = max(abs(a[k] - b[k]) for a, b in zip(rows, ref_rows))
        if not err <= REFERENCE_RTOL * scale + REFERENCE_ATOL:
            problems.append(
                f"column {name} differs from the reference by {err:.3e} "
                f"(scale {scale:.3e})"
            )
    return problems


class Invocation:
    """The child runs of one workload in one benchmark invocation."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.cfg = BENCH / "workloads" / self.workload.cfg
        values = read_cfg(self.cfg)
        self.csv_name = values["output"]
        self.expected_rows = (
            math.ceil(float(values["duration"]) / float(values["dt_system"]) - 1e-9) + 1
        )
        with gzip.open(BENCH / "reference" / f"{name}.csv.gz", "rt") as fh:
            self.reference = read_csv(fh)
        self.seed = seed
        self.trace = trace
        self.dir = OUT / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        threads = str(blas_threads())
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[key] = threads
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["MTS_OUTPUT_DIR"] = str(self.dir)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.settings = None

    def _spawn(self, args: list[str]) -> dict | None:
        self.attempted += 1
        out = self.dir / f"child{self.attempted}.json"
        label = f"{args[0]} #{self.attempted}"
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), args[0], str(self.cfg),
                 str(out), *args[1:]],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{label}: killed at the {DEADLINE_S:g} s deadline")
            return None
        record = json.loads(out.read_text()) if out.is_file() else {}
        code = proc.returncode or record.get("exit_code", 0)
        if code != 0 or not record:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{label}: exit code {code} {tail[0]}")
            return None
        self.settings = self.settings or record.get("settings")
        return record

    def validate(self) -> None:
        record = self._spawn(["validate", str(self.workload.validate_steps)])
        if record is not None and not record["ok"]:
            self.failures.append(
                f"validate: energy balance {record['energy_balance_rel']:.3e} > 1e-9"
            )

    def run(self, traced: bool) -> dict | None:
        flags = ["--trace"] if traced else ["--calibration", self.workload.calibration]
        record = self._spawn(["run", *flags])
        if record is None:
            return None
        csv_path = self.dir / self.csv_name
        problems = check_csv(csv_path, self.expected_rows, self.reference)
        if problems:
            self.failures.append(f"run #{self.attempted}: " + "; ".join(problems))
            return None
        record["csv_bytes"] = csv_path.stat().st_size
        csv_path.unlink()
        if traced:
            spans_path = self.dir / record["spans_file"]
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
            record["layers"] = layer_metrics(
                spans["names"], spans["spans"], record["missing_hooks"]
            )
        return record

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def measure(inv: Invocation, seconds: float) -> tuple[list[dict], list[dict]]:
    """Run children until the time is used up; returns (untraced, traced) records."""
    rng = random.Random(inv.seed)
    validate_first = rng.random() < 0.5
    if validate_first:
        inv.validate()
    t0 = inv.elapsed()
    runs = {False: [], True: []}
    # A round is one untraced run, or one traced and one untraced run.
    min_rounds = 1 if inv.trace else MIN_RUNS
    rounds = 0
    while True:
        order = [True, False] if inv.trace else [False]
        rng.shuffle(order)
        for traced in order:
            record = inv.run(traced)
            if record is not None:
                runs[traced].append(record)
        rounds += 1
        spent = inv.elapsed() - t0
        samples = sum(len(r["step_ms"]) for r in runs[False])
        if rounds * len(order) >= MAX_RUNS or inv.elapsed() > DEADLINE_S / 2:
            break
        if (
            rounds >= min_rounds
            and (inv.trace or samples >= MIN_STEP_SAMPLES)
            and spent * (rounds + 1) / rounds > seconds
        ):
            break
    if not validate_first:
        inv.validate()
    return runs[False], runs[True]


def timings(runs: list[dict]) -> dict[str, float]:
    """setup_s, step percentiles and run_s of records with those keys."""
    samples = [s for r in runs for s in r["step_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "step_ms_p50": percentile(samples, 50),
        "step_ms_p90": percentile(samples, 90),
        "run_s": statistics.median(r["run_s"] for r in runs),
    }


def end_to_end(untraced: list[dict]) -> dict[str, float]:
    return timings(untraced) | {
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float | None]:
    out = {}
    for metric in traced[0]["layers"]:
        values = [r["layers"][metric] for r in traced]
        out[metric] = None if None in values else statistics.median(values)
    out["cli.csv_bytes"] = statistics.median(r["csv_bytes"] for r in traced)
    for metric in ("problems.operator_bytes", "coupling.substeps"):
        values = [r.get(metric) for r in traced]
        out[metric] = None if None in values else statistics.median(values)
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    out["trace.overhead_frac"] = overhead_frac(
        [r["wall"]["run_s"] for r in traced], [r["wall"]["run_s"] for r in untraced]
    )
    out["host.calibration_ms"] = statistics.median(
        d for r in untraced for d in r["calibration_ms"]
    )
    return out


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    inv = Invocation(name, seed, trace)
    try:
        untraced, traced = measure(inv, seconds)
    finally:
        shutil.rmtree(inv.dir, ignore_errors=True)
    if not untraced or (trace and not traced):
        raise RuntimeError(f"{name}: no run succeeded: {inv.failures}")
    if trace:
        values, units = per_layer(untraced, traced), PER_LAYER_UNITS
        wall = {}
    else:
        values, units = end_to_end(untraced), END_TO_END_UNITS
        wall = timings([r["wall"] for r in untraced])
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "settings": inv.settings,
        "calibration": inv.workload.calibration,
        "runs": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": inv.attempted,
        "failed": len(inv.failures),
        "failures": inv.failures,
        "step_samples": sum(len(r["step_ms"]) for r in untraced),
        "wall_clock": wall,
        "run_records": [
            {key: r[key] for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "steps")}
            | {"wall_setup_s": r["wall"]["setup_s"], "wall_run_s": r["wall"]["run_s"]}
            | {"calibration_ms": statistics.median(r["calibration_ms"]) if r["calibration_ms"] else None}
            | {"traced": traced_flag}
            for traced_flag, group in ((False, untraced), (True, traced))
            for r in group
        ],
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def print_table(result: dict) -> None:
    s = result["settings"] or {}
    print(
        f"{result['workload']}: seed {result['seed']}, {result['runs']['untraced']} untraced"
        f" + {result['runs']['traced']} traced runs, {result['step_samples']} step samples,"
        f" BLAS threads {s.get('env', {}).get('OPENBLAS_NUM_THREADS')},"
        f" calibration {result['calibration']}"
    )
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {metric['unit']}")
    if result["wall_clock"]:
        wall = ", ".join(f"{m} {v:.6g}" for m, v in result["wall_clock"].items())
        print(f"  unscaled wall clock: {wall}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_run_frac':32s} {frac:>14.6g} 1 ({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mtstep" / "cli.py").is_file():
        print(f"mtstep sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            results.append(bench_workload(name, args.seed, args.seconds, bool(args.trace)))
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_table(results[-1])

    stamp = time.strftime("%Y%m%dT%H%M%S")
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        path = results_dir / f"{result['workload']}-s{args.seed}-t{args.trace}-{stamp}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")

    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
