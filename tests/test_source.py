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
