"""Project policy: cubeporos has no runtime dependencies, its modules import
only from earlier layers, its certified modules use no floating point, only
the lattice knows how a cube is keyed, a point set builds a Fraction only
from its input and for a returned distance, reports, the witness failure
and the root-is-free failure have one writer each, every descent takes its
children's views from `split`, the benchmark tracer finds every name it
wraps and a traced run reports every metric the benchmark declares, and
every definition in the package is reached from the package, a script, the
README or the tracer.

The package must run on a bare Python: `pyproject.toml` declares no
dependencies, and every module imports only the standard library or the
package itself.
"""

import ast
import json
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


# analysis.py reports its codimension estimate as floats; every other module
# decides in exact integers and rationals
FLOAT_REPORTING = {"analysis.py"}
INTEGER_MATH = {"lcm", "gcd", "isqrt", "comb"}


def test_no_floats_in_certified_modules():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in FLOAT_REPORTING:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and type(node.value) is float:
                found.append(f"{where}: float literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{where}: float")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where}: math.{a.name}" for a in node.names
                          if a.name not in INTEGER_MATH]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "math" and node.attr not in INTEGER_MATH:
                found.append(f"{where}: math.{node.attr}")
    assert found == []


def test_only_the_lattice_knows_the_cube_key():
    # a cube is the tuple (depth, coords) itself and sorts in canonical order
    # with no key, so no other module rebuilds that pair or names the key
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Tuple) and len(node.elts) == 2 \
                    and all(isinstance(e, ast.Attribute) for e in node.elts) \
                    and [e.attr for e in node.elts] == ["depth", "coords"]:
                found.append(f"{where}: (.depth, .coords) pair")
            elif "cube_order_key" in (getattr(node, "id", None), getattr(node, "attr", None),
                                      getattr(node, "name", None)):
                found.append(f"{where}: cube_order_key")
    assert found == []


def test_point_sets_build_fractions_only_at_their_edges():
    # a point set is integer rows over one denominator: inside PointsModel a
    # Fraction is built only from the input (`make`) and for a returned
    # distance (`_bounds`)
    tree = ast.parse((PACKAGE / "sets.py").read_text(encoding="utf-8"))
    [model] = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "PointsModel"]
    found = []
    for item in model.body:
        name = getattr(item, "name", "the class body")
        if name in ("make", "_bounds"):
            continue
        found += [f"sets.py:{node.lineno}: Fraction in {name}" for node in ast.walk(item)
                  if "Fraction" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert found == []


def test_reports_have_one_writer():
    # every indented report goes through cli._dump_json, which streams the
    # bytes json.dumps(indent=2) would give; no module renders one whole
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("dump", "dumps") \
                    and any(kw.arg == "indent" for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno}: json.{node.func.attr}(indent=...)")
    assert found == []


# the package's modules, each importing only from those before it
LAYERS = ("errors", "enclosure", "lattice", "sets", "families", "analysis", "sparse",
          "inverse", "neighborhoods", "generators", "cli")


def test_modules_import_only_earlier_layers():
    # function-local imports count too; __init__.py only re-exports
    assert sorted(LAYERS) == sorted(p.stem for p in PACKAGE.glob("*.py")
                                    if p.name != "__init__.py")
    found = []
    for i, layer in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{layer}.py").read_text(encoding="utf-8"))
        found += [f"{layer}.py:{node.lineno}: from .{node.module} import"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module not in LAYERS[:i]]
    assert found == []


def test_witness_failure_has_one_writer():
    # sparse.WitnessVerdict.failure() words it for every caller
    text = "".join(p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py"))
    assert text.count("witness not verified") == 1


def test_root_is_free_has_one_writer():
    # errors.RootIsFree words it from the cube; every raise passes the cube
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RootIsFree" \
                    and (len(node.args) != 1 or node.keywords
                         or isinstance(node.args[0], (ast.Constant, ast.JoinedStr))):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_benchmark_tracer_installs():
    # perfbench/tracing.py looks its wrapped names up with getattr, so a
    # function removed from cubeporos breaks `run.py --trace 1`
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr


TRACED_RUN = """
import json, sys
import tracing
from cubeporos import cli
tracer = tracing.Tracer()
tracing.install(tracer)
work = sys.argv[1]
cantor, family = f"{work}/cantor.json", f"{work}/family.json"
for argv in (["analyze", "--set", cantor, "--depth", "5", "--split-budget", "4"],
             ["gamma", "--set", cantor, "--gamma", "2", "--depth", "4"],
             ["witness", "--set", cantor, "--depth", "4"],
             ["plotdata", "--set", cantor, "--depth", "6"],
             ["invert", "--family", family]):
    assert cli.main(argv + ["--out", f"{work}/{argv[0]}.json"]) in (0, 3), argv
print(json.dumps(tracer.metrics()))
"""


def test_a_traced_run_reports_the_benchmark_metrics(tmp_path):
    # the tracer's result hooks run only in a traced round, so a renamed
    # MuNotes field or a changed return shape shows only when one runs
    (tmp_path / "cantor.json").write_text(json.dumps(
        {"kind": "ifs", "maps": [{"ratio": "1/3", "shift": ["0/1"]},
                                 {"ratio": "1/3", "shift": ["2/3"]}],
         "hull": {"lo": ["0/1"], "hi": ["1/1"]}}))
    (tmp_path / "family.json").write_text(json.dumps(
        {"root": {"depth": 0, "coords": [0]}, "J": 2,
         "members": [{"depth": j, "coords": [0]} for j in range(3)]}))
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    for name in ("analysis.mu.refined_cells", "families.enumerate_DE.cubes",
                 "enclosure.pow_enclosure.calls"):
        assert metrics[name] > 0, name


def test_descents_restrict_only_their_root():
    # a descent takes its root's view from `restricted` and every child's
    # from `split`, so no module but sets.py restricts inside a loop
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "sets.py":
            continue
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(loop, (ast.For, ast.While)):
                body = loop.body
            elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                body = [loop]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: .restricted( in a loop"
                      for stmt in body for node in ast.walk(stmt)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "restricted"]
    assert found == []


def _python_sources():
    """(label, source) of every place the library is reached from: src/,
    scripts/ and the README's python blocks."""
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        yield path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md#{i}", block


def _definitions(tree):
    # top-level functions and classes, and the methods of top-level classes
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_reached():
    # Every definition in src/ is named outside its own body: in src/,
    # scripts/, a README python block or as a quoted name in
    # perfbench/tracing.py, which wraps what the benchmark traces.  Dunders
    # are exempt.  The match is by name only, so a method that shares its
    # name with a used one (an unused `from_json` or `to_json` beside the
    # used ones) is not caught here.
    uses = []  # (label, line, name)
    defs = []  # (label, qualified name, node)
    for label, source in _python_sources():
        tree = ast.parse(source)
        # the package's __init__.py only re-exports names: no use
        for node in () if label == "src/cubeporos/__init__.py" else ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((label, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((label, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                uses.append((label, node.lineno, node.name.split(".")[-1]))
        if label.startswith("src/"):
            defs += [(label, qual, node) for qual, node in _definitions(tree)]
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    uses += [("perfbench/tracing.py", node.lineno, node.value)
             for node in ast.walk(tracing)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]

    unreached = []
    for label, qual, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(n == name and not (where == label
                                      and node.lineno <= line <= node.end_lineno)
                   for where, line, n in uses):
            unreached.append(qual)
    assert unreached == [], "not reached: " + ", ".join(unreached)
