"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import mtstep

SOURCE = Path(mtstep.__file__).parent


def test_no_builtin_sum_in_package():
    # From Python 3.12 the built-in ``sum`` compensates the rounding of
    # float sums, so a result computed with it depends on the interpreter
    # (``sum((5.0, 0.1, 0.01))`` is 5.11 there, 5.109999999999999 before).
    # Float sums in the package are written out, left to right.
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"built-in sum() called at {', '.join(calls)}"


def test_scenarios_share_one_glue_path():
    # The scenario builders describe their subdomains and hand them to one
    # helper; only that helper builds subdomains and chains their DOFs.
    path = SOURCE / "problems.py"
    calls = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("Subdomain", "_chain_constraints")
                and owner != "_glue"
            ):
                calls.append(f"{node.func.id}() in {owner} at line {node.lineno}")
    assert not calls, "glue outside _glue: " + ", ".join(calls)
