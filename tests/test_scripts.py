"""The experiment scripts in scripts/ run to completion on small depths."""

import importlib.util
import shutil
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


def test_regen_goldens_reproduces_the_goldens(tmp_path):
    spec = importlib.util.spec_from_file_location("regen_goldens",
                                                  SCRIPTS / "regen_goldens.py")
    regen_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen_goldens)
    regen_goldens.GOLDEN_DIR = tmp_path
    regen_goldens.regen()
    golden = SCRIPTS.parent / "tests" / "golden"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in golden.iterdir())
    for p in golden.iterdir():
        assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["--out", "x"], 2), (["x"], 2)])
def test_regen_goldens_writes_nothing_given_an_argument(argv, code):
    golden = SCRIPTS.parent / "tests" / "golden"
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in golden.iterdir()}
    run = subprocess.run([sys.executable, str(SCRIPTS / "regen_goldens.py"), *argv],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == code, run.stderr
    assert run.stdout.startswith("usage:") if code == 0 else run.stderr.startswith("usage:")
    assert "wrote" not in run.stdout
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in golden.iterdir()} == before


def test_regen_goldens_writes_nothing_when_a_run_exits_otherwise(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(SCRIPTS.parent / "tests" / "golden", golden)
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in golden.iterdir()}
    spec = importlib.util.spec_from_file_location("regen_goldens",
                                                  SCRIPTS / "regen_goldens.py")
    regen_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen_goldens)
    regen_goldens.GOLDEN_DIR = golden
    argv, code, files = regen_goldens.RUNS["origin_analyze"]
    # a run that ends as its row says, then one that does not
    regen_goldens.RUNS = {"origin_analyze": (argv, code, files),
                          "wrong_exit": (argv, 3, files)}
    with pytest.raises(SystemExit) as exc:
        regen_goldens.regen()
    assert "run wrong_exit exited with 0, not 3" in str(exc.value.code)
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in golden.iterdir()} == before
