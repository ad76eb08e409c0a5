"""One benchmark child process: a single ``mtstep run <cfg>`` or a validation pass.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
already pinned in its environment.  Usage::

    python3 perfbench/child.py run <cfg> <out.json> (--calibration <kind> | --trace)
    python3 perfbench/child.py validate <cfg> <out.json> <steps>

``run`` calls ``mtstep.cli.main(["run", cfg])`` exactly as the console
script does and records wall times around it.  Per-step times come from a
step clock: a timestamp on entry to and exit from every call of the
public step function ``advance_system_step`` that the CLI loop makes.
That clock is the only instrument of an untraced run.  It also times a
fixed calibration loop (one of ``CALIBRATIONS``) before the CLI call,
after it, and before a step call whenever ``CALIBRATION_INTERVAL_S`` has
passed since the last loop.  The times of an untraced run are reported
at reference host speed: the work between two loops is scaled by the
loop's reference duration over their mean duration, and the loops
themselves are left out (``metrics.speed_segments``).  The unscaled wall
times are kept under ``wall``.  A traced run makes no calibration.

With ``--trace`` the public functions listed in ``HOOKS`` are also
wrapped and record spans (name, start, end, parent, system-step index) in
memory; they are written to ``<out>.spans.json`` when the run ends.  A
hook whose target no longer exists is skipped and listed under
``missing_hooks``.

``validate`` builds the scenario through the CLI's own config path and
checks the energy balance ``dE = e_algorithm + e_interface + W_ext``
through ``mtstep.diagnostics`` over a few steps, untimed.

The JSON written to ``out.json`` is read by ``run.py``; this module has
no other interface.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy

from metrics import scaled_duration, speed_segments

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: (span name, module, attribute) of every traced public name.  A trailing
#: ``*`` wraps every function of the module whose name has that prefix.
HOOKS = (
    ("cli.execute", "mtstep.cli", "execute"),
    ("cli.write_csv", "mtstep.cli", "write_csv"),
    ("problems.build", "mtstep.cli", "build_scenario"),
    ("fem.assemble", "mtstep.fem", "assemble_*"),
    ("newmark.critical_dt", "mtstep.newmark", "critical_time_step"),
    ("newmark.factor", "mtstep.newmark", "EffectiveSolver.__init__"),
    ("newmark.solve_rows", "mtstep.newmark", "EffectiveSolver.solve_rows"),
    ("linalg.cholesky_factor", "mtstep.linalg", "cholesky_factor"),
    ("linalg.solve_general", "mtstep.linalg", "solve_general"),
    ("coupling.propagators", "mtstep.coupling", "Subdomain.multiplier_propagators"),
    ("coupling.advance", "mtstep.coupling", "advance_system_step"),
    ("coupling.apply", "mtstep.coupling", "CoupledSystem.apply"),
    ("diagnostics.energy_report", "mtstep.diagnostics", "step_energy_report"),
    ("diagnostics.energy_algorithm", "mtstep.diagnostics", "energy_algorithm"),
    ("diagnostics.energy_interface", "mtstep.diagnostics", "energy_interface"),
    ("diagnostics.drift", "mtstep.diagnostics", "drift_record"),
)

#: The step function the CLI loop calls once per system step.
STEP_FUNCTION = ("mtstep.coupling", "advance_system_step")

#: Tolerance of the energy-balance check, relative to the largest energy.
ENERGY_BALANCE_RTOL = 1e-9

#: Shortest time between two calibration loops of a run.
CALIBRATION_INTERVAL_S = 0.05


class Tracer:
    """In-memory span recorder; ``step`` is the index of the current system step."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent, step]
        self._stack: list[int] = []
        self.step = -1

    def wrap(self, name: str, fn):
        key = self._name_index.setdefault(name, len(self.names))
        if key == len(self.names):
            self.names.append(name)
        counts_steps = name == "coupling.advance"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if counts_steps:
                self.step += 1
            span = [key, clock(), 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced


def small_solves():
    """200 numpy solves of a 6x6 system, like many small sub-steps."""
    matrix, x = 2.0 * numpy.eye(6), numpy.ones(6)

    def loop():
        y = x
        for _ in range(200):
            y = numpy.linalg.solve(matrix, y) + 1.0

    return loop


def streaming():
    """Six products of an 8-MB matrix with a vector, like dense solves
    whose operators do not fit in cache.  The matrix stays resident."""
    matrix, x = numpy.full((1000, 1000), 0.5), numpy.ones(1000)

    def loop():
        for _ in range(6):
            matrix @ x

    return loop


#: Calibration loops by name, each with its duration in ms on the
#: reference host.  The host's speed modes slow Python-bound small solves
#: and memory-bound products by different factors, so each workload is
#: scaled by the loop whose kind of work dominates its steps.
CALIBRATIONS = {"small_solves": (small_solves, 2.5), "streaming": (streaming, 2.0)}


class StepClock:
    """Entry and exit timestamps of every call of the step function.

    Given a calibration ``loop``, ``calibrate()`` times it, and the
    wrapper calls it before the first step call and before any later one
    that comes ``CALIBRATION_INTERVAL_S`` after the last loop.
    """

    def __init__(self, loop=None):
        self.entries: list[float] = []
        self.exits: list[float] = []
        self.calibrations: list[tuple[float, float]] = []  # (start, duration)
        self.loop = loop
        self.calibrating = loop is not None

    def calibrate(self) -> None:
        start = time.perf_counter()
        self.loop()
        self.calibrations.append((start, time.perf_counter() - start))

    def wrap(self, fn):
        entries, exits, clock = self.entries, self.exits, time.perf_counter
        calibrations = self.calibrations

        def timed(*args, **kwargs):
            if self.calibrating and (
                not entries or clock() - sum(calibrations[-1]) >= CALIBRATION_INTERVAL_S
            ):
                self.calibrate()
            entries.append(clock())
            result = fn(*args, **kwargs)
            exits.append(clock())
            return result

        timed.__wrapped__ = fn
        return timed


def _rebind(old, new) -> None:
    """Point every ``mtstep`` module global bound to ``old`` at ``new``.

    Covers ``from .x import name`` copies, which a plain ``setattr`` on the
    defining module would miss.
    """
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "mtstep" and not mod_name.startswith("mtstep."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _install(module_name: str, attr: str, make_wrapper) -> bool:
    """Wrap one public name; returns False when the target does not exist."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if attr.endswith("*"):
        prefix = attr[:-1]
        targets = [
            name for name, value in vars(module).items()
            if name.startswith(prefix) and callable(value) and not isinstance(value, type)
        ]
        for name in targets:
            old = getattr(module, name)
            _rebind(old, make_wrapper(old))
        return bool(targets)
    owner_path, _, leaf = attr.rpartition(".")
    owner = module
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    old = vars(owner).get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if not callable(old):
        return False
    new = make_wrapper(old)
    if isinstance(owner, type):
        setattr(owner, leaf, new)
    else:
        _rebind(old, new)
    return True


def _settings() -> dict:
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _nbytes(matrix) -> int:
    """Storage of a dense array or of a scipy.sparse compressed matrix."""
    parts = [getattr(matrix, key, None) for key in ("data", "indices", "indptr")]
    if all(hasattr(p, "nbytes") for p in parts):
        return sum(p.nbytes for p in parts)
    return matrix.nbytes


def _scenario_sizes(scenario, steps: int) -> dict:
    """Operator storage and sub-step count of the built scenario, or nulls."""
    try:
        system = scenario.system
        return {
            "problems.operator_bytes": sum(
                _nbytes(sub.M) + _nbytes(sub.K) for sub in system.subdomains
            ),
            "coupling.substeps": sum(system.eta) * steps,
        }
    except AttributeError:
        return {"problems.operator_bytes": None, "coupling.substeps": None}


def run(cfg: str, out: Path, calibration: str | None) -> int:
    """One CLI run; traced when ``calibration`` is None."""
    from mtstep import cli

    trace = calibration is None
    clock = StepClock(None if trace else CALIBRATIONS[calibration][0]())
    if not _install(*STEP_FUNCTION, clock.wrap):
        print("step function mtstep.coupling.advance_system_step not found",
              file=sys.stderr)
        return 4
    record: dict = {"settings": _settings()}
    tracer = None
    scenarios = []
    if trace:
        def capture(fn):
            def build(*args, **kwargs):
                scenarios.append(fn(*args, **kwargs))
                return scenarios[-1]
            return build

        _install("mtstep.cli", "build_scenario", capture)
        tracer = Tracer()
        record["missing_hooks"] = [
            name for name, module, attr in HOOKS
            if not _install(module, attr, lambda fn, name=name: tracer.wrap(name, fn))
        ]

    if clock.calibrating:
        clock.calibrate()
    cpu0 = _cpu_s()
    t_call = time.perf_counter()
    code = cli.main(["run", cfg])
    t_end = time.perf_counter()
    cpu_s = _cpu_s() - cpu0
    if clock.calibrating:
        cpu_s -= sum(d for _, d in clock.calibrations[1:])
        clock.calibrate()
    if not clock.exits:
        print("the CLI made no call to advance_system_step", file=sys.stderr)
        return 4

    def times(segments) -> dict:
        return {
            "setup_s": scaled_duration(t_call, clock.exits[0], segments),
            "run_s": scaled_duration(t_call, t_end, segments),
            # Step k runs from the entry of call k to the entry of call
            # k + 1: advance, energy report, commit, drift and CSV row.
            # The first step is part of setup_s and the last has no
            # following entry.
            "step_ms": [
                1e3 * scaled_duration(a, b, segments)
                for a, b in zip(clock.entries[1:], clock.entries[2:])
            ],
        }

    if clock.calibrating:
        segments = speed_segments(clock.calibrations, CALIBRATIONS[calibration][1])
    else:
        segments = [(t_call, t_end, 1.0)]
    record.update(
        times(segments),
        wall=times([(lo, hi, 1.0) for lo, hi, _ in segments]),
        calibration=calibration,
        calibration_ms=[1e3 * d for _, d in clock.calibrations],
        exit_code=code,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        steps=len(clock.entries),
    )
    if scenarios:
        record.update(_scenario_sizes(scenarios[-1], steps=len(clock.entries)))
    if tracer is not None:
        spans_path = out.with_suffix(".spans.json")
        spans_path.write_text(
            json.dumps({"names": tracer.names, "spans": tracer.spans})
        )
        record["spans_file"] = spans_path.name
    out.write_text(json.dumps(record))
    return 0


def validate(cfg: str, out: Path, steps: int) -> int:
    """Worst energy-balance residual over ``steps`` steps, relative to max E."""
    from mtstep import cli, diagnostics
    from mtstep.coupling import advance_system_step

    system = cli.build_scenario(cli.parse_config(cfg)).system
    energy = diagnostics.total_energy(system).total
    max_energy = max(energy, 1e-30)
    worst_balance = 0.0
    for _ in range(steps):
        result = advance_system_step(system)
        report = diagnostics.step_energy_report(result, system)
        work = diagnostics.external_work(result, system)
        worst_balance = max(
            worst_balance,
            abs(report.total - energy - report.e_algorithm - report.e_interface - work),
        )
        system = system.apply(result)
        energy = report.total
        max_energy = max(max_energy, energy)
    balance_rel = worst_balance / max_energy
    out.write_text(json.dumps({
        "settings": _settings(),
        "steps": steps,
        "energy_balance_rel": balance_rel,
        "ok": bool(balance_rel <= ENERGY_BALANCE_RTOL),
    }))
    return 0


def main(argv: list[str]) -> int:
    mode, cfg, out = argv[0], argv[1], Path(argv[2])
    if mode == "run":
        flags = argv[3:]
        if flags == ["--trace"]:
            return run(cfg, out, None)
        if len(flags) == 2 and flags[0] == "--calibration" and flags[1] in CALIBRATIONS:
            return run(cfg, out, flags[1])
        print(f"run needs --trace or --calibration {'|'.join(CALIBRATIONS)}",
              file=sys.stderr)
        return 2
    if mode == "validate":
        return validate(cfg, out, int(argv[3]))
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
