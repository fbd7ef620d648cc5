"""The experiment scripts in scripts/ run to completion on small depths."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["single_point_sweep.py", "cantor_codim.py"])
def test_script_exits_0(name):
    run = subprocess.run([sys.executable, str(SCRIPTS / name), "6"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
