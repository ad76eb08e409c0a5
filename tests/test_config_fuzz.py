"""Every configuration file ends in exit 0, 2 or 3.

A derandomised ``hypothesis`` fuzz of ``mtstep run``: each draw writes a
configuration file from the parser's grammar and runs
``cli.main(["run", path])`` in process.  The draws take known and
unknown scenarios, methods and keys, subdomain indices in and out of
range, well-formed and malformed probes, and for ``dt_system``, eta,
beta and gamma ordinary values as well as NaN, +-inf, 0, negatives,
subnormals, 1e+-300 and etas up to 1e12.  On every draw:

* the exit code is 0, 2 (configuration error) or 3 (solver failure),
  never a traceback;
* a 2 or 3 prints exactly one stderr line and writes no CSV;
* a 0 prints nothing on stderr and writes a CSV of finite values.

Warnings numpy raises while a scheme overflows are recorded apart from
stderr: the check is on what the program itself prints.

The duration is drawn as a bounded number of system steps times the
effective ``dt_system``, so no draw runs long; the CLI is not taught a
limit.  Fractions of a step are drawn too: a duration of at least 1e-9
of a step is rounded up to whole steps, and a shorter one gives only the
t = 0 row, with exit 0.  A huge eta is refused at build by the size
check of :class:`mtstep.coupling.CouplingPlan` (exit 2): without that
check, such a config ends in numpy's ``MemoryError``, which the first
pinned example shows.  Drawn etas are either at most 60 or at least
1e11, whose first step could never be allocated, so no draw allocates
much memory, with or without the check.  wave2d is not drawn: its
build alone takes longer than a whole draw should.
"""

import contextlib
import inspect
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtstep import cli, problems

SCENARIOS = ("sdof2", "sdof3", "bar1d", "plate2d")
METHODS = ("coupled", "backward_euler", "monolithic_newmark")

SPECIAL = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
    5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
)


def mostly(common, rare):
    """``common`` three draws in four, ``rare`` in the fourth: a config
    with one bad value fails at its first one, so bad values are kept
    rare enough that most draws reach the build and the steps."""
    return st.integers(0, 99).flatmap(lambda k: rare if k % 4 == 1 else common)


#: Step counts a duration is drawn as (times the effective dt_system).
STEPS = mostly(
    st.integers(1, 4),
    st.sampled_from((0, 1e-12, 0.5, 2.5, -1.0, math.nan, math.inf)),
)

#: Sub-step ratios: ordinary ones, and ones whose first step could never
#: be allocated.
ETAS = mostly(st.integers(1, 60), st.one_of(st.integers(-1, 0), st.integers(10**11, 10**12)))


def _default(scenario: str, name: str):
    return inspect.signature(problems.SCENARIOS[scenario]).parameters[name].default


@st.composite
def config_files(draw) -> str:
    scenario = draw(mostly(st.sampled_from(SCENARIOS), st.sampled_from(SCENARIOS + ("nope",))))
    lines = [f"scenario={scenario}"]
    lines.append(f"method={draw(mostly(st.sampled_from(METHODS), st.just('leapfrog')))}")
    known = scenario in problems.SCENARIOS
    n_subs = len(_default(scenario, "etas")) if known else 2

    dt = _default(scenario, "dt_system") if known else 1e-3
    if draw(st.booleans()):
        dt = draw(mostly(
            st.integers(-4, 1).map(lambda k, base=dt: base * 2.0**k), st.sampled_from(SPECIAL)
        ))
        lines.append(f"dt_system={dt!r}")
    lines.append(f"duration={draw(STEPS) * dt!r}")

    for _ in range(draw(st.integers(0, 3))):
        index = draw(mostly(st.integers(1, n_subs), st.integers(n_subs + 1, 5)))
        key = draw(st.sampled_from(("eta", "beta", "gamma")))
        if key == "eta":
            value = draw(ETAS)
        elif key == "beta":
            value = draw(mostly(st.floats(0.0, 0.5), st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1e3))))
        else:
            value = draw(mostly(st.floats(0.5, 1.0), st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 10.0))))
        lines.append(f"subdomain.{index}.{key}={value!r}")

    for _ in range(draw(st.integers(0, 2))):
        probe = draw(mostly(
            st.tuples(st.integers(1, n_subs), st.just(0)),
            st.one_of(
                st.tuples(st.integers(0, 5), st.sampled_from((0, 10**12))),
                st.sampled_from(("3", "x:1", "1:-1", "")),
            ),
        ))
        lines.append(f"probe={probe if isinstance(probe, str) else '%d:%d' % probe}")
    if draw(st.integers(0, 9)) == 9:
        lines.append(draw(st.sampled_from(("color=blue", "subdomain.1.foo=1", "junk"))))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(config_files())
# A first step no host could allocate: refused at build (exit 2).
@example("scenario=sdof2\nsubdomain.2.eta=100000000000\n")
# A duration below 1e-9 of a step: only the t = 0 row (exit 0).
@example("scenario=sdof2\ndt_system=1e300\n")
# An overflowing scheme: the energies turn inf (exit 3).
@example("scenario=sdof2\nsubdomain.1.beta=1e200\nsubdomain.1.gamma=1e200\nduration=0.04\n")
def test_every_configuration_ends_in_exit_0_2_or_3(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text + f"output={out}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True):
            code = cli.main(["run", str(cfg)])
        err = err.getvalue()
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER)
        if code != cli.EXIT_OK:
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert not out.exists()
            return
        assert err == ""
        header, *rows = out.read_text().splitlines()
        assert rows and header.startswith("t,")
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
