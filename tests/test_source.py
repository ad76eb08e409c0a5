"""Rules the package source keeps, checked on its syntax tree."""

import ast
import importlib
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


def test_newmark_makes_no_storage_test():
    # Dense and CSR operators go through the same sub-step code: the
    # Newmark module never asks which storage an operator has.
    path = SOURCE / "newmark.py"
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "issparse" or (
            name == "isinstance"
            and len(node.args) == 2
            and "ndarray" in ast.unparse(node.args[1])
        ):
            calls.append(f"{name}() at line {node.lineno}")
    assert not calls, "storage test in newmark.py: " + ", ".join(calls)


def _harness_names(*names):
    """The module-level constants ``names`` of the harness's child.py, unimported."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    values = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    values[target.id] = ast.literal_eval(node.value)
    assert set(values) == set(names), f"child.py lacks {set(names) - set(values)}"
    return [values[name] for name in names]


def test_harness_hooks_resolve():
    # Every span the harness traces and its step clock wrap a callable
    # that exists: a hook that no longer resolves leaves its per-layer
    # figures empty.  Targets follow child.py's rules: ``Class.method``
    # paths, and a trailing ``*`` that must match at least one function.
    hooks, step = _harness_names("HOOKS", "STEP_FUNCTION")
    missing = []
    for name, module_name, attr in [*hooks, ("step", *step)]:
        module = importlib.import_module(module_name)
        if attr.endswith("*"):
            found = [
                value for key, value in vars(module).items()
                if key.startswith(attr[:-1]) and callable(value)
                and not isinstance(value, type)
            ]
        else:
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            found = [
                vars(owner).get(leaf) if isinstance(owner, type)
                else getattr(owner, leaf, None)
            ]
        if not any(callable(value) for value in found):
            missing.append(f"{name} ({module_name}.{attr})")
    assert not missing, "unresolved harness hooks: " + ", ".join(missing)
