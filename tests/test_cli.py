import functools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from mtstep import baselines, cli, coupling, fem, problems
from mtstep.errors import ConfigError, SingularMatrix, SingularSaddleSystem
from glue_reference import signed_boolean


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_config_full(tmp_path):
    path = write_config(
        tmp_path,
        """
        # comment line
        scenario = bar1d
        method=coupled
        dt_system = 1e-3   # trailing comment
        duration=0.01
        output=out/bar.csv
        subdomain.2.eta=100
        subdomain.1.beta=0.25
        subdomain.1.gamma=0.5
        probe=3:5
        probe=1:0
        """,
    )
    cfg = cli.parse_config(path)
    assert cfg.scenario == "bar1d"
    assert cfg.method == "coupled"
    assert cfg.dt_system == 1e-3
    assert cfg.duration == 0.01
    assert cfg.output_path == "out/bar.csv"
    assert cfg.eta_overrides == {1: 100}
    assert cfg.newmark_overrides == {0: {"beta": 0.25, "gamma": 0.5}}
    assert cfg.probes == ((2, 5), (0, 0))


@pytest.mark.parametrize(
    "text",
    [
        "method=coupled\n",                      # missing scenario
        "scenario=unknown\n",                    # unknown scenario
        "scenario=sdof2\nmethod=leapfrog\n",     # unknown method
        "scenario=sdof2\ncolor=blue\n",          # unknown key
        "scenario=sdof2\ndt_system=fast\n",      # bad float
        "scenario=sdof2\nsubdomain.1.eta=four\n",
        "scenario=sdof2\nsubdomain.0.eta=2\n",   # indices are 1-based
        "scenario=sdof2\nsubdomain.1.foo=1\n",   # unknown subdomain key
        "scenario=sdof2\njust a line\n",         # no '='
    ],
)
def test_parse_config_rejects(tmp_path, text):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError):
        cli.parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        cli.parse_config(tmp_path / "nope.cfg")


def test_build_scenario_validates_overrides(tmp_path):
    cfg = cli.parse_config(
        write_config(tmp_path, "scenario=sdof2\nsubdomain.3.eta=2\n")
    )
    with pytest.raises(ConfigError, match="out of range"):
        cli.build_scenario(cfg)

    cfg = cli.parse_config(
        write_config(tmp_path, "scenario=sdof2\nsubdomain.1.gamma=0.4\n", "g.cfg")
    )
    with pytest.raises(ConfigError):
        cli.build_scenario(cfg)

    cfg = cli.parse_config(
        write_config(tmp_path, "scenario=sdof2\nprobe=1:7\n", "p.cfg")
    )
    with pytest.raises(ConfigError, match="out of range"):
        cli.build_scenario(cfg)

    for body, message in (
        ("duration=inf", "finite"),
        ("subdomain.1.beta=inf", "beta must be finite"),
        ("subdomain.2.gamma=inf", "gamma must be finite"),
        ("dt_system=inf", "dt_system must be positive and finite"),
        ("subdomain.1.eta=0", "eta must be >= 1"),
        ("probe=9:0", "probe subdomain index 9 out of range"),
    ):
        cfg = cli.parse_config(
            write_config(tmp_path, f"scenario=sdof2\n{body}\n", "d.cfg")
        )
        with pytest.raises(ConfigError, match=message):
            cli.build_scenario(cfg)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_run_writes_expected_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, "scenario=sdof2\noutput=sdof2.csv\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    header, rows = read_csv(tmp_path / "sdof2.csv")
    assert header == [
        "t", "E_total", "E_kinetic", "E_potential", "e_algorithm",
        "e_interface", "norm_d_drift", "norm_a_drift", "norm_v_residual",
        "lambda_0", "probe_1_0",
    ]
    # duration 0.5 at dt 0.02: 25 steps -> 26 rows including the t=0 state.
    assert len(rows) == 26
    assert rows[0][0] == 0.0
    assert rows[-1][0] == pytest.approx(0.5)
    assert rows[0][1] == pytest.approx(0.315)
    # Velocity residual column is zero throughout.
    assert max(abs(r[8]) for r in rows) <= 1e-12


def test_run_is_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, "scenario=sdof3\nduration=0.2\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    first = (tmp_path / "sdof3.csv").read_bytes()
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "sdof3.csv").read_bytes() == first


def test_output_dir_env_var(tmp_path, monkeypatch):
    out_dir = tmp_path / "results"
    monkeypatch.setenv("MTS_OUTPUT_DIR", str(out_dir))
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, "scenario=sdof2\nduration=0.1\noutput=a/b.csv\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (out_dir / "a" / "b.csv").exists()
    # Absolute output paths ignore the env var.
    abs_out = tmp_path / "abs.csv"
    cfg_path2 = write_config(
        tmp_path, f"scenario=sdof2\nduration=0.1\noutput={abs_out}\n", "abs.cfg"
    )
    assert cli.main(["run", str(cfg_path2)]) == 0
    assert abs_out.exists()


def test_exit_code_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "scenario=nope\n")
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_exit_code_unbuildable_scenario(tmp_path, capsys):
    # Central-difference subdomain pushed past its critical step at
    # construction time: configuration error, not a crash.
    cfg_path = write_config(
        tmp_path,
        "scenario=bar1d\nsubdomain.2.eta=1\n",  # dt_B = 1e-3 > 1.217e-4
    )
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "critical" in capsys.readouterr().err


def test_exit_code_step_too_large_to_allocate(tmp_path, monkeypatch, capsys):
    # eta = 1e11 on one DOF: the first step would ask for terabytes of
    # sub-level arrays.  Refused at build, before any of them exists.
    cfg_path = write_config(
        tmp_path, "scenario=sdof2\nsubdomain.2.eta=100000000000\noutput=x.csv\n"
    )
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "a system step needs 3.73e+03 GiB of sub-level arrays" in err
    assert not (tmp_path / "x.csv").exists()


def test_exit_code_non_spd_sparse_mass(tmp_path, monkeypatch, capsys):
    # wave2d's subdomains are stored sparse; an indefinite mass matrix must
    # still fail while the scenario is built: configuration error, exit 2.
    assemble = fem.assemble_scalar_wave

    def indefinite_mass(grid, c0):
        M, K = assemble(grid, c0)
        assert scipy.sparse.issparse(M)
        return M - 2.0 * M.diagonal().max() * scipy.sparse.eye_array(M.shape[0]), K

    monkeypatch.setattr(fem, "assemble_scalar_wave", indefinite_mass)
    with pytest.raises(SingularMatrix):
        problems.build_wave_2d()
    cfg_path = write_config(tmp_path, "scenario=wave2d\noutput=x.csv\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "positive definite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_exit_code_solver_failure(tmp_path, monkeypatch, capsys):
    def boom(sys_state):
        raise SingularSaddleSystem("synthetic failure")

    monkeypatch.setattr(cli, "advance_system_step", boom)
    cfg_path = write_config(tmp_path, "scenario=sdof2\noutput=x.csv\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_SOLVER
    assert "step 0" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    argv = ["sweep", str(cfg_path), "--axis", "dt_system", "--values", "0.02,0.01"]
    assert cli.main(argv) == cli.EXIT_SOLVER
    assert "error (dt_system=0.02): solver failure at step 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_exit_code_level_breaking_the_constraint(tmp_path, monkeypatch, capsys):
    # A step whose new level fails the |sum C v| check of CoupledSystem
    # (here the third one, index 2, with 1.0 added to the last sub-level
    # velocity) stops the run with a solver failure naming that step,
    # one stderr line and no CSV, not a traceback.
    step = coupling.advance_system_step
    calls = []

    def breaks_the_constraint(sys_state):
        result = step(sys_state)
        calls.append(sys_state.t_current)
        if len(calls) == 3:
            result.histories[-1].end[1] += 1.0
        return result

    monkeypatch.setattr(cli, "advance_system_step", breaks_the_constraint)
    cfg_path = write_config(tmp_path, "scenario=sdof2\noutput=x.csv\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: solver failure at step 2: ")
    # The check holds at every level, so the message names the residual,
    # not the initial conditions.
    assert "initial" not in err
    assert "incompatible velocities: max |sum_i C_i v_i| = 1 > " in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("method", ["coupled", "backward_euler", "monolithic_newmark"])
def test_exit_code_non_finite_state(tmp_path, monkeypatch, capsys, method):
    # The middle subdomain's load turns NaN during the third system step
    # (index 2): the run stops with a solver failure naming that step and
    # writes no CSV.
    builder = problems.SCENARIOS["sdof3"]

    @functools.wraps(builder)
    def nan_from_third_step(*args, **kwargs):
        sc = builder(*args, **kwargs)
        sys0 = sc.system
        t_nan = 2.25 * sys0.dt_system

        def g(t):
            return math.nan if t > t_nan else 1.0

        subs = list(sys0.subdomains)
        assert subs[1].g is None  # constant f0; g makes it NaN after t_nan
        subs[1] = replace(subs[1], g=g)
        return replace(sc, system=replace(sys0, plan=coupling.CouplingPlan(subs, sys0.dt_system)))

    monkeypatch.setitem(problems.SCENARIOS, "sdof3", nan_from_third_step)
    cfg_path = write_config(
        tmp_path, f"scenario=sdof3\nmethod={method}\nduration=0.1\noutput=x.csv\n"
    )
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert "step 2" in err and "non-finite" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_exit_code_redundant_glue(tmp_path, monkeypatch, capsys):
    # A registered builder whose glue repeats every constraint row: the
    # consistent initial multiplier has a singular complement, which is a
    # configuration error found while building, with no CSV.
    builder = problems.SCENARIOS["sdof2"]

    @functools.wraps(builder)
    def duplicated_rows(*args, **kwargs):
        sc = builder(*args, **kwargs)
        sys0 = sc.system
        subs = [
            replace(sub, C=signed_boolean(np.vstack([sub.C.toarray()] * 2)))
            for sub in sys0.subdomains
        ]
        d0, v0 = ([getattr(st, name) for st in sys0.states] for name in "dv")
        system = coupling.initialize_coupled_system(subs, sys0.dt_system, d0, v0)
        return replace(sc, system=system)

    monkeypatch.setitem(problems.SCENARIOS, "sdof2", duplicated_rows)
    cfg_path = write_config(tmp_path, "scenario=sdof2\noutput=x.csv\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(
        "configuration error: scenario construction failed: "
        "consistent multiplier init failed: "
    )
    assert not list(tmp_path.glob("*.csv"))


def test_exit_code_mismatched_shapes(tmp_path, monkeypatch, capsys):
    # A DimensionMismatch is bad input: raised while a scenario is built,
    # it is a configuration error.
    builder = problems.SCENARIOS["sdof2"]

    @functools.wraps(builder)
    def two_multipliers(*args, **kwargs):
        sc = builder(*args, **kwargs)
        return replace(sc, system=replace(sc.system, lambda_current=np.zeros(2)))

    monkeypatch.setitem(problems.SCENARIOS, "sdof2", two_multipliers)
    cfg_path = write_config(tmp_path, "scenario=sdof2\noutput=x.csv\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "lambda has shape (2,), expected (1,)" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_configuration_errors_name_their_context(tmp_path, monkeypatch, capsys):
    # One stderr line per failure: its class, the sweep value it belongs
    # to (if any), then the message.
    monkeypatch.chdir(tmp_path)
    base = cli.parse_config(write_config(tmp_path, "scenario=sdof2\noutput=s.csv\n"))
    cases = [
        (lambda: cli.main(["run", "missing.cfg"]), "configuration error: cannot read config file "),
        (lambda: cli.sweep(base, "mass", ["1"]), "configuration error: unknown sweep axis 'mass'\n"),
        (lambda: cli.sweep(base, "eta", []), "configuration error: sweep needs at least one value\n"),
        (lambda: cli.sweep(base, "eta", ["2", "x"]), "configuration error (eta=x): bad eta value 'x': "),
    ]
    for call, line in cases:
        assert call() == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(line)


def test_exit_code_non_finite_output_row(tmp_path, monkeypatch, capsys):
    # The state stays finite while the energies of the first new level
    # overflow: a solver failure naming that step, and no CSV.
    cfg_path = write_config(
        tmp_path,
        "scenario=sdof2\nduration=0.04\noutput=x.csv\n"
        "subdomain.1.beta=1e200\nsubdomain.1.gamma=1e200\n",
    )
    monkeypatch.chdir(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["run", str(cfg_path)]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert "step 0" in err and "non-finite" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_overflow_writes_one_stderr_line(tmp_path, command):
    # In a process of its own, as the console script runs: an overflowing
    # scheme exits 3 with the one error line, and numpy's floating-point
    # warnings do not reach stderr ahead of it.
    cfg_path = write_config(
        tmp_path,
        "scenario=sdof3\nduration=0.04\noutput=x.csv\n"
        "subdomain.2.beta=1e200\nsubdomain.2.gamma=1e200\n",
    )
    args = {"run": [], "sweep": ["--axis", "dt_system", "--values", "0.01"]}[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "mtstep.cli", command, str(cfg_path), *args],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == cli.EXIT_SOLVER
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error"), out.stderr
    assert "non-finite" in lines[0]
    assert not list(tmp_path.glob("*.csv"))


def test_backward_euler_method_forces_no_subcycling(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path, "scenario=sdof2\nmethod=backward_euler\nduration=0.2\n"
    )
    assert cli.main(["run", str(cfg_path)]) == 0
    header, rows = read_csv(tmp_path / "sdof2.csv")
    # Dissipative: monotone energy decay, zero reported interface work.
    totals = [r[1] for r in rows]
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert max(abs(r[5]) for r in rows) == 0.0


@pytest.mark.parametrize("scenario", ["bar1d", "plate2d"])
def test_backward_euler_method_runs_past_explicit_critical_steps(
    tmp_path, monkeypatch, scenario
):
    # Both scenarios have central-difference subdomains whose critical
    # step is below dt_system; the baseline reads no (beta, gamma), so
    # their limit does not apply to it.
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path, f"scenario={scenario}\nmethod=backward_euler\noutput=be.csv\n"
    )
    assert cli.main(["run", str(cfg_path)]) == 0
    _, rows = read_csv(tmp_path / "be.csv")
    assert len(rows) > 2
    assert np.isfinite(rows).all()


def test_monolithic_method_merges_the_system_once(tmp_path, monkeypatch):
    # Every merge_system_matrices call numbers the merged DOFs once, and
    # the count does not depend on the module a caller imported it from.
    calls = []
    merge_dof_map = baselines.merge_dof_map

    def counted(constraints):
        calls.append(constraints)
        return merge_dof_map(constraints)

    monkeypatch.setattr(baselines, "merge_dof_map", counted)
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, "scenario=sdof2\nmethod=monolithic_newmark\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    assert len(calls) == 1


def test_monolithic_method_matches_coupled_without_subcycling(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, "scenario=sdof2\nsubdomain.2.eta=1\noutput=c.csv\n")
    write_config(
        tmp_path,
        "scenario=sdof2\nmethod=monolithic_newmark\noutput=m.csv\n",
        "m.cfg",
    )
    assert cli.main(["run", str(tmp_path / "run.cfg")]) == 0
    assert cli.main(["run", str(tmp_path / "m.cfg")]) == 0
    _, rows_c = read_csv(tmp_path / "c.csv")
    _, rows_m = read_csv(tmp_path / "m.csv")
    probe_c = [r[-1] for r in rows_c]
    probe_m = [r[-1] for r in rows_m]
    np.testing.assert_allclose(probe_c, probe_m, atol=1e-12)


def test_monolithic_method_requires_uniform_scheme(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "scenario=bar1d\nmethod=monolithic_newmark\n")
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "uniform" in capsys.readouterr().err


def test_monolithic_method_rejects_step_above_merged_critical_step(
    tmp_path, monkeypatch, capsys
):
    # Central difference everywhere: each sub-step is below its critical
    # step, but the merged system steps at dt_system = 1e-3, about 8x its
    # limit.  A configuration error naming the step, and no CSV.
    cfg_path = write_config(
        tmp_path,
        "scenario=bar1d\nmethod=monolithic_newmark\nduration=0.3\noutput=x.csv\n"
        "subdomain.1.beta=0\nsubdomain.3.beta=0\n"
        "subdomain.1.eta=10\nsubdomain.3.eta=10\n",
    )
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "dt_system = 0.001" in err and "critical time-step" in err
    assert not (tmp_path / "x.csv").exists()


def test_each_run_builds_its_scenario_once(tmp_path, monkeypatch):
    builder = problems.SCENARIOS["sdof2"]
    calls = []

    @functools.wraps(builder)
    def counted(*args, **kwargs):
        calls.append(kwargs)
        return builder(*args, **kwargs)

    monkeypatch.setitem(problems.SCENARIOS, "sdof2", counted)
    for extra in (
        "subdomain.1.beta=0.3025\nsubdomain.1.gamma=0.6\n",
        "method=backward_euler\n",
    ):
        calls.clear()
        cfg_path = write_config(tmp_path, "scenario=sdof2\nduration=0.1\n" + extra)
        cli.execute(cli.parse_config(cfg_path))
        assert len(calls) == 1, extra


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_empty_output_is_a_configuration_error(tmp_path, monkeypatch, capsys, command):
    # ``output=`` with no value is refused as every other key's empty
    # value is: exit 2, one stderr line and no CSV, not a fallback to
    # ``<scenario>.csv`` in the working directory.
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, "scenario=sdof2\nduration=0.1\noutput=\n")
    argv = [command, str(cfg_path)]
    if command == "sweep":
        argv += ["--axis", "dt_system", "--values", "0.02"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("configuration error: ") and "empty value for 'output'" in err
    assert not list(tmp_path.glob("*.csv"))


def test_unwritable_output_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    # A file where the output's parent directory should be: exit 2 with
    # a message, for a run and for a sweep, and no traceback.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    cfg_path = write_config(
        tmp_path, "scenario=sdof2\nduration=0.1\noutput=taken/x.csv\n"
    )
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "configuration error: cannot write" in capsys.readouterr().err
    argv = ["sweep", str(cfg_path), "--axis", "dt_system", "--values", "0.02"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err
    # The member CSVs can be written but the summary cannot.
    cfg_path = write_config(tmp_path, "scenario=sdof2\nduration=0.1\noutput=y.csv\n")
    (tmp_path / "y_summary.csv").mkdir()
    assert cli.main(argv[:1] + [str(cfg_path)] + argv[2:]) == cli.EXIT_CONFIG
    assert "configuration error: cannot write" in capsys.readouterr().err
    assert (tmp_path / "y_dt_system_0.02.csv").exists()


# Byte-exact CSVs of one run per method plus a Newmark override.  All
# subdomains have one DOF, so the bytes do not depend on the BLAS build.
GOLDEN_CONFIGS = {
    "sdof2_coupled": "scenario=sdof2\n",
    "sdof2_monolithic_newmark": "scenario=sdof2\nmethod=monolithic_newmark\n",
    "sdof3_backward_euler": "scenario=sdof3\nmethod=backward_euler\nduration=0.5\n",
    "sdof2_newmark_override": (
        "scenario=sdof2\nsubdomain.1.beta=0.3025\nsubdomain.1.gamma=0.6\n"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_run_matches_golden_csv(tmp_path, name):
    out = tmp_path / "out.csv"
    cfg_path = write_config(tmp_path, f"{GOLDEN_CONFIGS[name]}output={out}\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    golden = Path(__file__).parent / "data" / f"{name}.csv"
    assert out.read_bytes() == golden.read_bytes()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_dt_axis(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path, "scenario=sdof2\nduration=0.2\noutput=s.csv\nsubdomain.2.eta=1\n"
    )
    assert cli.main(
        ["sweep", str(cfg_path), "--axis", "dt_system", "--values", "0.02,0.01"]
    ) == 0
    assert (tmp_path / "s_dt_system_0.02.csv").exists()
    assert (tmp_path / "s_dt_system_0.01.csv").exists()
    lines = (tmp_path / "s_summary.csv").read_text().splitlines()
    assert lines[0].startswith("dt_system,final_oracle_error")
    assert len(lines) == 3
    err_coarse = float(lines[1].split(",")[1])
    err_fine = float(lines[2].split(",")[1])
    assert err_fine < err_coarse


def test_sweep_eta_axis_colon_lists(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path, "scenario=bar1d\nduration=0.005\noutput=bar.csv\n"
    )
    assert cli.main(
        ["sweep", str(cfg_path), "--axis", "eta", "--values", "1:10:1,1:20:1"]
    ) == 0
    assert (tmp_path / "bar_eta_1-10-1.csv").exists()
    assert (tmp_path / "bar_eta_1-20-1.csv").exists()
    assert (tmp_path / "bar_summary.csv").exists()


def test_sweep_summary_reports_largest_interface_work(tmp_path, monkeypatch):
    # Each summary row's max_abs_e_interface is the largest |e_interface|
    # of its member CSV, to the last bit (both are written with %.17g).
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path, "scenario=bar1d\nduration=0.005\noutput=bar.csv\n"
    )
    argv = ["sweep", str(cfg_path), "--axis", "eta", "--values", "1:10:1,1:20:1"]
    assert cli.main(argv) == 0
    summary = (tmp_path / "bar_summary.csv").read_text().splitlines()
    column = summary[0].split(",").index("max_abs_e_interface")
    for line in summary[1:]:
        tag = line.split(",")[0]
        member_path = tmp_path / f"bar_eta_{tag.replace(':', '-')}.csv"
        member = member_path.read_text().splitlines()
        e_int = member[0].split(",").index("e_interface")
        largest = max(abs(float(row.split(",")[e_int])) for row in member[1:])
        assert float(line.split(",")[column]) == largest
    assert len(summary) == 3
    assert float(summary[1].split(",")[column]) > 0.0  # sub-stepped: non-zero


def test_sweep_eta_single_value_targets_overridden_subdomain(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path,
        "scenario=bar1d\nduration=0.005\noutput=b.csv\nsubdomain.2.eta=10\n",
    )
    assert cli.main(
        ["sweep", str(cfg_path), "--axis", "eta", "--values", "10,100"]
    ) == 0
    assert (tmp_path / "b_eta_10.csv").exists()
    assert (tmp_path / "b_eta_100.csv").exists()


def test_sweep_scores_only_the_oracle_probe(tmp_path, monkeypatch):
    # bar1d's oracle is the tip displacement, the builder's probe 3:5.  A
    # sweep that probes another DOF first leaves the error column empty.
    monkeypatch.chdir(tmp_path)
    base = "scenario=bar1d\nduration=0.005\nsubdomain.2.eta=10\n"
    argv = ["--axis", "eta", "--values", "10,100"]
    errors = {}
    for name, probes in (("tip", "probe=3:5\n"), ("inner", "probe=1:2\nprobe=3:5\n")):
        cfg_path = write_config(tmp_path, f"{base}{probes}output={name}.csv\n", f"{name}.cfg")
        assert cli.main(["sweep", str(cfg_path), *argv]) == 0
        lines = (tmp_path / f"{name}_summary.csv").read_text().splitlines()
        errors[name] = [line.split(",")[1] for line in lines[1:]]
    assert all(float(err) > 0.0 for err in errors["tip"])
    assert errors["inner"] == ["", ""]


def test_sweep_rejects_bad_axis_and_values(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "scenario=sdof2\n"))
    assert cli.sweep(cfg, "mass", ["1"]) == cli.EXIT_CONFIG
    assert cli.sweep(cfg, "eta", []) == cli.EXIT_CONFIG
    assert cli.sweep(cfg, "eta", ["1:2:3"]) == cli.EXIT_CONFIG  # wrong arity
    assert cli.sweep(cfg, "dt_system", ["fast"]) == cli.EXIT_CONFIG
    assert cli.sweep(cfg, "eta", ["x"]) == cli.EXIT_CONFIG
    assert cli.sweep(cfg, "eta", ["1:a"]) == cli.EXIT_CONFIG
