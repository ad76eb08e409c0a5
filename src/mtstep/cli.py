"""Config-driven scenario runner with CSV output.

Configuration files are flat ``key=value`` text (``#`` starts a comment).
Recognized keys::

    scenario=bar1d                 # sdof2 | sdof3 | bar1d | plate2d | wave2d
    method=coupled                 # coupled | backward_euler | monolithic_newmark
    dt_system=0.001                # optional override
    duration=0.025                 # optional override
    output=bar.csv                 # output path (relative paths honor MTS_OUTPUT_DIR)
    subdomain.2.eta=100            # per-subdomain overrides, 1-based indices
    subdomain.1.beta=0.25
    subdomain.1.gamma=0.5
    probe=3:10                     # subdomain:dof, repeatable; defaults per scenario

One CSV row is written per system time level (so step count + 1 rows)
with the fixed column order::

    t, E_total, E_kinetic, E_potential, e_algorithm, e_interface,
    norm_d_drift, norm_a_drift, norm_v_residual,
    lambda_0..lambda_{N_C-1}, probe values...

Floats are printed with 17 significant digits; identical configs produce
identical bytes.  Exit codes: 0 success, 2 configuration error (or an
unwritable output), 3 solver failure (the failing step index is
reported on stderr).

``sweep`` repeats a base configuration along one axis (``dt_system`` or
``eta``) and writes a per-run CSV plus a summary CSV with the final-time
oracle error (when the scenario has an oracle and the first probe is the
one it describes), max |e_interface| and max drift norms for each value.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import diagnostics, problems
from .baselines import (
    backward_euler_decay,
    backward_euler_step,
    merged_newmark_reference,
)
from .coupling import CoupledSystem, advance_system_step
from .errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteState,
    SingularMatrix,
    SingularSaddleSystem,
)
from .newmark import AVERAGE_ACCELERATION, NewmarkParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_METHODS = ("coupled", "backward_euler", "monolithic_newmark")


@dataclass
class RunConfig:
    """Parsed run configuration."""

    scenario: str
    method: str = "coupled"
    dt_system: Optional[float] = None
    duration: Optional[float] = None
    output_path: Optional[str] = None
    eta_overrides: dict[int, int] = field(default_factory=dict)
    newmark_overrides: dict[int, dict[str, float]] = field(default_factory=dict)
    probes: Optional[tuple[tuple[int, int], ...]] = None


def parse_config(path: str | Path) -> RunConfig:
    """Parse a flat key=value configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    values: dict[str, str] = {}
    probes: list[tuple[int, int]] = []
    eta_overrides: dict[int, int] = {}
    newmark_overrides: dict[int, dict[str, float]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key == "probe":
                sub_s, _, dof_s = value.partition(":")
                probes.append((int(sub_s) - 1, int(dof_s)))
            elif key.startswith("subdomain."):
                _, idx_s, attr = key.split(".", 2)
                idx = int(idx_s) - 1
                if idx < 0:
                    raise ValueError("subdomain indices are 1-based")
                if attr == "eta":
                    eta_overrides[idx] = int(value)
                elif attr in ("beta", "gamma"):
                    newmark_overrides.setdefault(idx, {})[attr] = float(value)
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            elif key in ("scenario", "method", "output", "dt_system", "duration"):
                values[key] = value
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc

    if "scenario" not in values:
        raise ConfigError(f"{path}: missing required key 'scenario'")
    scenario = values["scenario"]
    if scenario not in problems.SCENARIOS:
        raise ConfigError(
            f"{path}: unknown scenario {scenario!r}; "
            f"choose from {sorted(problems.SCENARIOS)}"
        )
    method = values.get("method", "coupled")
    if method not in _METHODS:
        raise ConfigError(f"{path}: unknown method {method!r}; choose from {_METHODS}")

    try:
        dt_system = float(values["dt_system"]) if "dt_system" in values else None
        duration = float(values["duration"]) if "duration" in values else None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    return RunConfig(
        scenario=scenario,
        method=method,
        dt_system=dt_system,
        duration=duration,
        output_path=values.get("output"),
        eta_overrides=eta_overrides,
        newmark_overrides=newmark_overrides,
        probes=tuple(probes) or None,
    )


def _scenario_defaults(name: str) -> tuple[tuple[int, ...], tuple[NewmarkParams, ...]]:
    """Default etas and Newmark params of a scenario, read off its builder."""
    parameters = inspect.signature(problems.SCENARIOS[name]).parameters
    return tuple(parameters["etas"].default), tuple(parameters["params"].default)


def build_scenario(config: RunConfig) -> problems.Scenario:
    """Instantiate the configured scenario with all overrides applied.

    ``method=backward_euler`` reads no eta, beta or gamma: once validated,
    they become 1 and average acceleration, which has no critical step.
    The oracle stays only while the first probe is the builder's.
    """
    default_etas, default_params = _scenario_defaults(config.scenario)
    n_subs = len(default_etas)
    for idx in list(config.eta_overrides) + list(config.newmark_overrides):
        if not 0 <= idx < n_subs:
            raise ConfigError(
                f"subdomain index {idx + 1} out of range for scenario "
                f"{config.scenario} ({n_subs} subdomains)"
            )

    etas = list(default_etas)
    for idx, eta in config.eta_overrides.items():
        if eta < 1:
            raise ConfigError(f"subdomain.{idx + 1}.eta must be >= 1, got {eta}")
        etas[idx] = eta

    params = list(default_params)
    for idx in sorted(config.newmark_overrides):
        patch = config.newmark_overrides[idx]
        try:
            params[idx] = NewmarkParams(
                beta=patch.get("beta", params[idx].beta),
                gamma=patch.get("gamma", params[idx].gamma),
            )
        except ValueError as exc:
            raise ConfigError(f"subdomain.{idx + 1}: {exc}") from exc
    if config.method == "backward_euler":
        etas, params = [1] * n_subs, [AVERAGE_ACCELERATION] * n_subs

    kwargs: dict = {"etas": tuple(etas), "params": tuple(params)}
    if config.dt_system is not None:
        kwargs["dt_system"] = config.dt_system
    if config.duration is not None:
        kwargs["duration"] = config.duration
    try:
        scenario = problems.SCENARIOS[config.scenario](**kwargs)
    except (ValueError, DimensionMismatch, SingularMatrix) as exc:
        raise ConfigError(f"scenario construction failed: {exc}") from exc
    if config.probes is not None:
        for i, dof in config.probes:
            if not 0 <= i < n_subs:
                raise ConfigError(f"probe subdomain index {i + 1} out of range")
            if not 0 <= dof < scenario.system.subdomains[i].n_dofs:
                raise ConfigError(f"probe DOF {dof} out of range in subdomain {i + 1}")
        oracle = scenario.oracle if config.probes[0] == scenario.probes[0] else None
        scenario = replace(scenario, probes=config.probes, oracle=oracle)
    return scenario


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    """In-memory outcome of one run: CSV rows plus summary statistics."""

    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    final_oracle_error: Optional[float]
    max_abs_e_interface: float
    max_norm_d_drift: float
    max_norm_a_drift: float


def _row(t, energy, drift, lams, probe_vals):
    e_kin = diagnostics._add_in_order(energy.kinetic)
    e_pot = diagnostics._add_in_order(energy.potential)
    return (
        t,
        energy.total,
        e_kin,
        e_pot,
        energy.e_algorithm,
        energy.e_interface,
        float(np.linalg.norm(drift.d_drift)),
        float(np.linalg.norm(drift.a_drift)),
        float(np.linalg.norm(drift.v_residual)),
        *lams,
        *probe_vals,
    )


def _header(n_c: int, probes) -> tuple[str, ...]:
    return (
        "t",
        "E_total",
        "E_kinetic",
        "E_potential",
        "e_algorithm",
        "e_interface",
        "norm_d_drift",
        "norm_a_drift",
        "norm_v_residual",
        *(f"lambda_{k}" for k in range(n_c)),
        *(f"probe_{i + 1}_{dof}" for i, dof in probes),
    )


def _run_result(scenario: problems.Scenario, header, rows) -> RunResult:
    """Pack the CSV rows with their summary statistics.

    The state can stay finite while a value derived from it (an energy,
    a drift norm) overflows, so every row is checked before any is written.
    """
    for k, values in enumerate(rows):
        if not all(map(math.isfinite, values)):
            where = f"step {k - 1}" if k else "the initial level"
            raise SolverFailure(f"solver failure at {where}: non-finite value in the output row")
    column = dict(zip(header, zip(*rows)))
    final_error = None
    if scenario.oracle is not None and scenario.probes:
        i, dof = scenario.probes[0]
        probe = column[f"probe_{i + 1}_{dof}"][-1]
        final_error = abs(probe - scenario.oracle(column["t"][-1]))
    return RunResult(
        header=header,
        rows=tuple(rows),
        final_oracle_error=final_error,
        max_abs_e_interface=max(map(abs, column["e_interface"])),
        max_norm_d_drift=max(column["norm_d_drift"]),
        max_norm_a_drift=max(column["norm_a_drift"]),
    )


def execute(config: RunConfig) -> RunResult:
    """Run a configuration to completion, collecting all CSV rows."""
    scenario = build_scenario(config)
    if config.method == "monolithic_newmark":
        return _execute_monolithic(scenario)

    sys_state = scenario.system
    n_steps = math.ceil(scenario.duration / sys_state.dt_system - 1e-9)
    probes = scenario.probes

    def row(s: CoupledSystem, energy) -> tuple[float, ...]:
        probe_vals = [float(s.states[i].d[dof]) for i, dof in probes]
        drift = diagnostics.drift_record(s)
        return _row(s.t_current, energy, drift, s.lambda_current, probe_vals)

    rows = [row(sys_state, diagnostics.total_energy(sys_state))]
    step_fn = (
        backward_euler_step if config.method == "backward_euler" else advance_system_step
    )
    for step_index in range(n_steps):
        try:
            result = step_fn(sys_state)
        except (SingularSaddleSystem, SingularMatrix, NonFiniteState) as exc:
            raise SolverFailure(f"solver failure at step {step_index}: {exc}") from exc
        sys_next = sys_state.apply(result)
        if config.method == "backward_euler":
            # Interface forces do no net work under this baseline (the
            # gamma-weighted split does not apply); report the decay
            # identity with the new level's energies instead.
            report = replace(
                diagnostics.total_energy(sys_next),
                e_algorithm=backward_euler_decay(result, sys_state),
            )
        else:
            report = diagnostics.step_energy_report(result, sys_state)
        sys_state = sys_next
        rows.append(row(sys_state, report))
    return _run_result(scenario, _header(sys_state.n_constraints, probes), rows)


def _execute_monolithic(scenario: problems.Scenario) -> RunResult:
    """Undecomposed single-scheme Newmark reference run.

    Requires uniform (beta, gamma) across subdomains and a system step
    below the merged system's critical step.  The drift columns and
    e_interface are zero by construction and there are no multiplier
    columns; e_algorithm is the energy change over each step.
    """
    sys0 = scenario.system
    params = sys0.subdomains[0].params
    if any(sub.params != params for sub in sys0.subdomains[1:]):
        raise ConfigError("monolithic_newmark requires uniform Newmark parameters")
    dt = sys0.dt_system
    n_steps = math.ceil(scenario.duration / dt - 1e-9)
    try:
        states, M, K, maps = merged_newmark_reference(sys0, params, n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except NonFiniteState as exc:
        raise SolverFailure(f"solver failure: {exc}") from exc
    times = itertools.accumulate(itertools.repeat(dt, n_steps), initial=sys0.t_current)

    no_drift = diagnostics.DriftRecord(*(np.zeros(0),) * 3)
    rows = []
    prev_total = None
    for t, st in zip(times, states):
        kin, pot = 0.5 * float(st.v @ (M @ st.v)), 0.5 * float(st.d @ (K @ st.d))
        total = kin + pot
        energy = diagnostics.EnergyBreakdown(
            kinetic=(kin,),
            potential=(pot,),
            total=total,
            e_algorithm=0.0 if prev_total is None else total - prev_total,
        )
        probe_vals = [float(st.d[maps[i][dof]]) for i, dof in scenario.probes]
        rows.append(_row(t, energy, no_drift, (), probe_vals))
        prev_total = total
    return _run_result(scenario, _header(0, scenario.probes), rows)


class SolverFailure(Exception):
    """A solver error, with a message that names the failing step."""


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _format_value(x: float) -> str:
    return f"{x:.17g}"


def _write_lines(path: str | Path, lines: Sequence[str]) -> None:
    """Write ``lines``, each ended by ``\\n``, creating parent directories.

    A relative ``path`` is taken under ``$MTS_OUTPUT_DIR`` when that is set.
    Raises :class:`ConfigError` when the file cannot be written.
    """
    out = Path(path)
    base = os.environ.get("MTS_OUTPUT_DIR")
    if base and not out.is_absolute():
        out = Path(base) / out
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def write_csv(result: RunResult, path: str | Path) -> None:
    lines = [",".join(result.header)]
    lines.extend(",".join(_format_value(v) for v in row) for row in result.rows)
    _write_lines(path, lines)


def run(config: RunConfig) -> int:
    """Execute one run and write its CSV; returns a process exit code."""
    try:
        write_csv(execute(config), config.output_path or f"{config.scenario}.csv")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _sweep_member(base: RunConfig, axis: str, raw: str) -> RunConfig:
    """The base config with one sweep value applied.

    An eta value is either 'a:b:...' per subdomain or a single int; a
    single int applies to the subdomains that carry an eta override in
    the base config (all subdomains when the base has none).
    """
    try:
        if axis == "dt_system":
            return replace(base, dt_system=float(raw))
        n_subs = len(_scenario_defaults(base.scenario)[0])
        if ":" in raw:
            parts = [int(p) for p in raw.split(":")]
            if len(parts) != n_subs:
                raise ConfigError(
                    f"eta value {raw!r} has {len(parts)} entries "
                    f"for {n_subs} subdomains"
                )
            return replace(base, eta_overrides=dict(enumerate(parts)))
        targets = sorted(base.eta_overrides) or list(range(n_subs))
        return replace(base, eta_overrides=dict.fromkeys(targets, int(raw)))
    except ValueError as exc:
        raise ConfigError(f"bad {axis} value {raw!r}: {exc}") from exc


def sweep(base: RunConfig, axis: str, values: Sequence[str]) -> int:
    """Run the base config once per axis value; write per-run + summary CSVs."""
    if axis not in ("dt_system", "eta"):
        print(f"configuration error: unknown sweep axis {axis!r}", file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("configuration error: sweep needs at least one value", file=sys.stderr)
        return EXIT_CONFIG

    base_output = Path(base.output_path or f"{base.scenario}.csv")
    summary = [
        f"{axis},final_oracle_error,max_abs_e_interface,max_norm_d_drift,max_norm_a_drift"
    ]
    for raw in values:
        tag = raw.replace(":", "-")
        member = base_output.with_name(
            f"{base_output.stem}_{axis}_{tag}{base_output.suffix or '.csv'}"
        )
        try:
            result = execute(_sweep_member(base, axis, raw))
            write_csv(result, member)
        except ConfigError as exc:
            print(f"configuration error ({axis}={raw}): {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SolverFailure as exc:
            print(f"error ({axis}={raw}): {exc}", file=sys.stderr)
            return EXIT_SOLVER
        err = result.final_oracle_error
        maxima = (result.max_abs_e_interface, result.max_norm_d_drift, result.max_norm_a_drift)
        summary.append(
            ",".join([raw, "" if err is None else _format_value(err), *map(_format_value, maxima)])
        )
    try:
        _write_lines(base_output.with_name(f"{base_output.stem}_summary.csv"), summary)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mtstep",
        description="Multi-time-step coupled elastodynamics scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one configuration")
    p_run.add_argument("config", help="path to a key=value config file")
    p_sweep = sub.add_parser("sweep", help="repeat a run along one axis")
    p_sweep.add_argument("config", help="path to a key=value config file")
    p_sweep.add_argument("--axis", required=True, choices=("dt_system", "eta"))
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated axis values"
    )
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "run":
        return run(config)
    return sweep(config, args.axis, [v for v in args.values.split(",") if v])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
