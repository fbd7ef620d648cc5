"""Project policy: cubeporos has no runtime dependencies, and the benchmark
tracer finds every name it wraps.

The package must run on a bare Python: `pyproject.toml` declares no
dependencies, and every module imports only the standard library or the
package itself.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubeporos"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    # the [project] table, up to the next table header
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]


def test_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "cubeporos" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []


def test_benchmark_tracer_installs():
    # perfbench/tracing.py looks its wrapped names up with getattr, so a
    # function removed from cubeporos breaks `run.py --trace 1`
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
