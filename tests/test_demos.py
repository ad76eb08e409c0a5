"""Every script in ``demos/`` runs to the end and prints finite numbers.

Each demo runs in its own interpreter, as a user would start it, from an
empty working directory and with the package imported from ``src/``.  A
name that leaves the package while a demo still uses it fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [path.stem for path in DEMOS] == [
        "bar_subcycling_sweep", "plate_interface_energy", "split_oscillator",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_exits_cleanly_with_finite_output(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not re.search(r"\b(nan|inf)\b", proc.stdout + proc.stderr, re.IGNORECASE)
