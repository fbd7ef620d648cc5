import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeporos import cli, families, neighborhoods
from cubeporos.cli import RunConfig, _dump_json, main
from cubeporos.families import CubeFamily
from cubeporos.inverse import invert
from cubeporos.lattice import DyadicCube
from cubeporos.sparse import WitnessVerdict
from conftest import dyadic_cubes

GOLDEN = Path(__file__).parent / "golden"


def write_set(tmp_path, name="set.json", kind="origin"):
    payloads = {
        "origin": {"kind": "points", "points": [["0/1"]]},
        "cantor": {"kind": "ifs",
                   "maps": [{"ratio": "1/3", "shift": ["0/1"]},
                            {"ratio": "1/3", "shift": ["2/3"]}],
                   "hull": {"lo": ["0/1"], "hi": ["1/1"]}},
        # attractor [0, 1]: no dyadic cube is free
        "interval": {"kind": "ifs",
                     "maps": [{"ratio": "1/2", "shift": ["0/1"]},
                              {"ratio": "1/2", "shift": ["1/2"]}],
                     "hull": {"lo": ["0/1"], "hi": ["1/1"]}},
        # k/4096 for k < 64: every cube inside [0, 1/64) to depth 12 meets it
        "crowded-corner": {"kind": "points", "points": [[f"{k}/4096"] for k in range(64)]},
        # a solid 4x4 block over [0,1/4) x [1/4,1/2) and five more points:
        # [0,1/2)^2 carries the root's free cube, and only its second other
        # child has a free cube within --search-depth 2
        "carrier-2d": {"kind": "points", "points":
                       [[f"{i}/16", f"{4 + k}/16"] for i in range(4) for k in range(4)]
                       + [["4/16", "0/1"], ["4/16", "4/16"], ["0/1", "8/16"],
                          ["8/16", "0/1"], ["8/16", "8/16"]]},
        "empty": {"kind": "empty", "dim": 1},
        "zero-denominator": {"kind": "points", "points": [["1/0"]]},
        "json-number": {"kind": "points", "points": [[0]]},
    }
    path = tmp_path / name
    path.write_text(json.dumps(payloads[kind]))
    return str(path)


def write_family(tmp_path, members, name="family.json"):
    payload = {"root": {"depth": 0, "coords": [0]}, "J": 8, "provenance": "USER",
               "members": members}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_origin(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", "--set", write_set(tmp_path), "--depth", "10",
                 "--alpha-grid", "1/10:1:1/10", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["porosity"]["eta_hat"] == "2/1"
    assert not report["porosity"]["absent"]
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "alpha,J,root,value_lo,value_hi,ratio_lo,ratio_hi"


def test_analyze_empty_set_exits_2(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", "--set", write_set(tmp_path, kind="empty"),
                 "--out", str(out)])
    assert code == 2


def test_analyze_malformed_set_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["analyze", "--set", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_witness_origin(tmp_path):
    out = tmp_path / "w.json"
    code = main(["witness", "--set", write_set(tmp_path), "--depth", "6",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["assignments"]) == 7
    assert payload["lambda_hat"] == "2/1"
    assert payload["verified"] is True


def test_witness_saturated_set_exits_3(tmp_path, capsys):
    pts = [[f"{k}/16"] for k in range(16)]
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"kind": "points", "points": pts}))
    out = tmp_path / "w.json"
    code = main(["witness", "--set", str(path), "--depth", "3",
                 "--search-depth", "2", "--out", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["error"] == "porosity-failure"
    assert "cube" in payload
    assert "no free cube within --search-depth 2" in capsys.readouterr().err


def test_witness_carrier_picks_from_all_its_other_children(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(["witness", "--set", write_set(tmp_path, kind="carrier-2d"), "--depth", "1",
                 "--search-depth", "2", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert payload["verified"] is True
    assert len(payload["assignments"]) == 5
    assert payload["lambda_hat"] == "16/1"


def test_invert_chain(tmp_path):
    members = [{"depth": k, "coords": [0]} for k in range(5)]
    out = tmp_path / "inv.json"
    code = main(["invert", "--family", write_family(tmp_path, members),
                 "--depth", "12", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["chain_coverage_ok"] is True


def test_invert_depth_defaults_to_deepest_member_plus_8(tmp_path):
    # two chains to depth 16: towards 0 and towards 1/3
    members = [{"depth": j, "coords": [k]}
               for j in range(17) for k in sorted({0, (1 << j) // 3})]
    family = write_family(tmp_path, members)
    out = tmp_path / "inv.json"
    assert main(["invert", "--family", family, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["J"] == 24
    roots = {(r["root"]["depth"], tuple(r["root"]["coords"])) for r in payload["roots"]}
    assert {(m["depth"], tuple(m["coords"])) for m in members} <= roots
    assert main(["invert", "--family", family, "--depth", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["J"] == 0


def test_invert_non_parent_closed_exits_2(tmp_path, capsys):
    members = [{"depth": 0, "coords": [0]}, {"depth": 2, "coords": [1]}]
    out = tmp_path / "inv.json"
    code = main(["invert", "--family", write_family(tmp_path, members),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: family is not parent-closed at Q(j=2, k=(1,))\n"
    payload = json.loads(out.read_text())
    assert payload["error"] == "not-parent-closed"
    assert payload["cube"] == {"depth": 2, "coords": [1]}


def test_analyze_depth_1_measures_growth_from_depth_0(tmp_path):
    out = tmp_path / "r.json"
    assert main(["analyze", "--set", write_set(tmp_path), "--depth", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["codim"]["J_list"] == [0, 1]


MIXED_DIMENSION_FAMILY = {"root": {"depth": 0, "coords": [0]}, "J": 4,
                          "members": [{"depth": 0, "coords": [0, 0]},
                                      {"depth": 1, "coords": [1, 0]}]}


@pytest.mark.parametrize("command", ["invert", "plotdata"])
def test_mixed_dimension_family_exits_2_on_reading(tmp_path, capsys, command):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(MIXED_DIMENSION_FAMILY))
    out = tmp_path / "r.json"
    assert main([command, "--family", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: bad family file at {path}: 2-d member" in err
    assert sorted(os.listdir(tmp_path)) == ["family.json"]


@pytest.mark.parametrize("command", ["analyze", "witness"])
def test_mixed_dimension_corners_exit_2_on_reading(tmp_path, capsys, command):
    path = tmp_path / "corners.json"
    path.write_text(json.dumps({"kind": "corners",
                                "family": [{"depth": 0, "coords": [0]},
                                           {"depth": 1, "coords": [1, 1]}]}))
    out = tmp_path / "r.json"
    assert main([command, "--set", str(path), "--depth", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: bad set description at {path}: "
                                       f"points of mixed dimension\n")
    assert sorted(os.listdir(tmp_path)) == ["corners.json"]


# a point set whose common denominator passes MAX_POINT_BITS bits: from a
# points file, from a corners file, and from the corners of a family to invert
LONG_DENOMINATORS = {
    "points": ("--set", ["analyze", "--depth", "2"],
               {"kind": "points", "points": [["1/3", f"1/{1 << 1000}"]]}),
    "corners": ("--set", ["witness", "--depth", "2"],
                {"kind": "corners", "family": [{"depth": 1000, "coords": [1]}]}),
    "family": ("--family", ["invert", "--depth", "2"],
               {"root": {"depth": 0, "coords": [0]}, "J": 2,
                "members": [{"depth": j, "coords": [0]} for j in range(1000)]
                + [{"depth": 1000, "coords": [1]}]}),
}


@pytest.mark.parametrize("name", LONG_DENOMINATORS)
def test_a_too_long_common_denominator_exits_2(tmp_path, capsys, name):
    flag, argv, obj = LONG_DENOMINATORS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert main([*argv, flag, str(path), "--out", str(out)]) == 2
    reason = "the points' common denominator has more than 1000 bits\n"
    prefix = "error: " if flag == "--family" else f"error: bad set description at {path}: "
    assert capsys.readouterr().err == prefix + reason
    assert sorted(os.listdir(tmp_path)) == ["input.json"]


# the lattice root and a sibling of the declared root lie outside it
OUTSIDE_ROOT_FAMILY = {"root": {"depth": 1, "coords": [0]}, "J": 4,
                       "members": [{"depth": 0, "coords": [0]},
                                   {"depth": 1, "coords": [0]},
                                   {"depth": 1, "coords": [1]}]}


@pytest.mark.parametrize("command", ["invert", "plotdata"])
def test_member_outside_the_root_exits_2_on_reading(tmp_path, capsys, command):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(OUTSIDE_ROOT_FAMILY))
    out = tmp_path / "r.json"
    assert main([command, "--family", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: bad family file at {path}: member Q(j=0, k=(0,)) is not "
                   f"inside the root Q(j=1, k=(0,))\n")
    assert sorted(os.listdir(tmp_path)) == ["family.json"]


def test_witness_at_depth_1000_runs_without_recursion(tmp_path):
    # 1000 levels below the lattice root, one per nested free-cube assignment
    path = tmp_path / "third.json"
    path.write_text(json.dumps({"kind": "points", "points": [["1/3"]]}))
    out = tmp_path / "w.json"
    assert main(["witness", "--set", str(path), "--depth", "1000",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verified"] is True
    assert len(payload["assignments"]) == 1001


def test_gamma_names_the_embedding_budget_that_failed(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["gamma", "--set", write_set(tmp_path, kind="cantor"), "--gamma", "2/1",
                 "--depth", "6", "--out", str(out)])
    assert code == 3
    cell = "no finite certified mass for cell Q(j=6, k=(0,))"
    assert capsys.readouterr().err == f"budget failure: {cell}\n"
    assert json.loads(out.read_text())["embedding"]["error"] == cell


# edge inputs, each run under every command that reads it: sets that miss
# [0,1)^d or touch its faces, empty parts, and families that are not
# parent-closed below the lattice root, mix dimensions or have no members
SWEEP_SETS = {
    "point-1": {"kind": "points", "points": [["1/1"]]},
    "point-0": {"kind": "points", "points": [["0/1"]]},
    "point-negative": {"kind": "points", "points": [["-1/2"]]},
    "point-upper-face-2d": {"kind": "points", "points": [["1/3", "1/1"]]},
    "point-2d": {"kind": "points", "points": [["1/3", "1/5"]]},
    "cantor": {"kind": "ifs",
               "maps": [{"ratio": "1/3", "shift": ["0/1"]},
                        {"ratio": "1/3", "shift": ["2/3"]}],
               "hull": {"lo": ["0/1"], "hi": ["1/1"]}},
    "ifs-beyond-1": {"kind": "ifs", "maps": [{"ratio": "1/2", "shift": ["1/1"]}],
                     "hull": {"lo": ["1/1"], "hi": ["2/1"]}},
    "union-empty-and-point": {"kind": "union",
                              "parts": [{"kind": "empty", "dim": 1},
                                        {"kind": "points", "points": [["1/3"]]}]},
    "union-of-empty": {"kind": "union", "parts": [{"kind": "empty", "dim": 1}]},
    "corners": {"kind": "corners", "family": [{"depth": 1, "coords": [1]}]},
}
SWEEP_FAMILIES = {
    "mixed-dimension": MIXED_DIMENSION_FAMILY,
    "deeper-root": {"root": {"depth": 1, "coords": [1]}, "J": 4,
                    "members": [{"depth": 1, "coords": [1]}, {"depth": 2, "coords": [2]}]},
    "member-outside-root": {"root": {"depth": 1, "coords": [0]}, "J": 4,
                            "members": [{"depth": 1, "coords": [0]},
                                        {"depth": 1, "coords": [1]}]},
    "no-members": {"root": {"depth": 0, "coords": [0]}, "J": 4, "members": []},
}
# rational flags past MAX_RATIONAL: an exact power or a float of them runs
# away, so each is rejected before any work
HUGE_RATIONAL_FLAGS = [
    ["analyze", "--tau", "1e400"],
    ["analyze", "--alpha-grid", "1e-400:1:1/2"],
    ["analyze", "--alpha-grid", "1/1001:1/2:1/2"],
    ["gamma", "--gamma", "1/2", "--p", "5000"],
    ["gamma", "--gamma", "1001/1000"],
    ["gamma", "--gamma", "1/2", "--alpha", "1/1001"],
]
# flags that the parser itself refuses, with no usage block
PARSER_FAILURES = [
    ["analyze", "--alpha-grid", "0:1:1/1000000000"],
    ["gamma", "--gamma", "1/2", "--alpha", "x"],
]
SWEEP_RUNS = (
    [(name, "--set", [command, "--depth", str(depth)]
      + (["--gamma", "1/2"] if command == "gamma" else []))
     for name in SWEEP_SETS for command in ("analyze", "witness", "plotdata", "gamma")
     for depth in (0, 1, 3)]
    + [(name, "--family", argv) for name in SWEEP_FAMILIES
       for argv in (["invert"], ["invert", "--depth", "0"], ["plotdata"])]
    + [("point-0", "--set", argv) for argv in HUGE_RATIONAL_FLAGS + PARSER_FAILURES])


@pytest.mark.parametrize("name,flag,argv", SWEEP_RUNS,
                         ids=[f"{name}-{'-'.join(argv)}" for name, _, argv in SWEEP_RUNS])
def test_edge_inputs_exit_without_a_traceback(tmp_path, capsys, name, flag, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps((SWEEP_SETS if flag == "--set" else SWEEP_FAMILIES)[name]))
    out = tmp_path / "r.json"
    code = main([*argv, flag, str(path), "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if "not parent-closed" in err:
            assert json.loads(out.read_text())["error"] == "not-parent-closed"
        else:
            assert sorted(os.listdir(tmp_path)) == ["input.json"], err


@pytest.mark.parametrize("argv", HUGE_RATIONAL_FLAGS, ids=lambda argv: " ".join(argv))
def test_huge_rational_flag_exits_2_at_once(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    start = time.perf_counter()
    code = main([*argv, "--set", write_set(tmp_path), "--depth", "4", "--out", str(out)])
    assert time.perf_counter() - start < 5
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1, err
    assert "at most 1000 in absolute value" in err
    assert not out.exists()


def test_module_run_on_a_set_missing_the_unit_cube_exits_2(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "set.json"
    path.write_text(json.dumps(SWEEP_SETS["point-1"]))
    run = subprocess.run([sys.executable, "-m", "cubeporos.cli", "analyze", "--set",
                          str(path), "--out", str(tmp_path / "r.json")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ")


@pytest.mark.parametrize("command", ["analyze", "witness", "plotdata"])
def test_a_set_missing_the_root_is_worded_once(tmp_path, capsys, command):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(SWEEP_SETS["point-1"]))
    assert main([command, "--set", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: Q(j=0, k=(0,)) does not meet the set\n"


# the flags each command reads
COMMAND_FLAGS = {
    "analyze": {"--set", "--dim", "--depth", "--budget", "--split-budget",
                "--search-depth", "--alpha-grid", "--tau", "--out"},
    "witness": {"--set", "--dim", "--depth", "--budget", "--search-depth", "--out"},
    "invert": {"--family", "--depth", "--out"},
    "gamma": {"--set", "--dim", "--depth", "--budget", "--split-budget",
              "--search-depth", "--alpha", "--gamma", "--p", "--seed", "--out"},
    "plotdata": {"--set", "--family", "--dim", "--depth", "--budget",
                 "--alpha-grid", "--out"},
}
ALL_FLAGS = set().union(*COMMAND_FLAGS.values())
UNREAD_FLAGS = sorted((command, flag) for command, flags in COMMAND_FLAGS.items()
                      for flag in ALL_FLAGS - flags)


def source_args(tmp_path, command):
    if command == "invert":
        return ["--family", write_family(tmp_path, [{"depth": 0, "coords": [0]}])]
    return ["--set", write_set(tmp_path)]


@pytest.mark.parametrize("command,flag", sorted(
    (command, flag) for command, flags in COMMAND_FLAGS.items()
    for flag in ("--depth", "--budget", "--split-budget", "--search-depth") if flag in flags))
def test_negative_depth_exits_2(tmp_path, capsys, command, flag):
    code = main([command, *source_args(tmp_path, command), flag, "-1",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"error: {flag} must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(
    command for command, flags in COMMAND_FLAGS.items() if "--budget" in flags))
def test_budget_above_1000_exits_2(tmp_path, capsys, command):
    out = tmp_path / "r.json"
    code = main([command, "--set", write_set(tmp_path, kind="cantor"), "--budget", "1001",
                 "--out", str(out)])
    assert code == 2
    assert "error: --budget must be <= 1000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "plotdata"])
def test_huge_alpha_grid_exits_2_before_building_it(tmp_path, capsys, command):
    # 10^9 + 1 entries: counted, not built
    out = tmp_path / "r.json"
    start = time.perf_counter()
    code = main([command, "--set", write_set(tmp_path), "--alpha-grid", "0:1:1/1000000000",
                 "--out", str(out)])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "has 1000000001 entries, more than 1000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_the_commands_flags(capsys, command):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert listed == COMMAND_FLAGS[command]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_unread_flag_exits_2(tmp_path, capsys, command, flag):
    values = {"--set": write_set(tmp_path), "--dim": "1",
              "--family": write_family(tmp_path, [{"depth": 0, "coords": [0]}]),
              "--budget": "4", "--split-budget": "4", "--search-depth": "2",
              "--alpha-grid": "1/2:1:1/2", "--alpha": "1/2", "--gamma": "1/1",
              "--p": "2/1", "--tau": "1/10", "--seed": "1"}
    out = tmp_path / "r.json"
    code = main([command, *source_args(tmp_path, command), flag, values[flag],
                 "--depth", "2", "--out", str(out)])
    assert code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,kind", [
    (["gamma", "--gamma", "abc"], "origin"),
    (["gamma", "--gamma", "1/0"], "origin"),
    (["gamma", "--gamma", "1/1", "--p", "1/0"], "origin"),
    (["gamma", "--gamma", "1/1", "--alpha", "x"], "origin"),
    (["analyze", "--tau", "1/0"], "origin"),
    (["analyze"], "zero-denominator"),
    (["witness"], "json-number"),
], ids=["gamma-abc", "gamma-1/0", "p-1/0", "alpha-x", "tau-1/0", "set-1/0",
        "set-json-number"])
def test_malformed_fraction_exits_2(tmp_path, capsys, argv, kind):
    out = tmp_path / "r.json"
    code = main([*argv, "--set", write_set(tmp_path, kind=kind), "--depth", "3",
                 "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _family_payload(member, J=8):
    return {"root": {"depth": 0, "coords": [0]}, "J": J,
            "members": [{"depth": 0, "coords": [0]}, member]}


@pytest.mark.parametrize("command,flag,payload", [
    ("invert", "--family", _family_payload({"depth": 1, "coords": [0.9]})),
    ("invert", "--family", _family_payload({"depth": 1, "coords": [1]}, J=2.7)),
    ("witness", "--set", {"kind": "corners", "family": [{"depth": 1.5, "coords": [0]}]}),
    ("witness", "--set", {"kind": "corners", "family": [{"depth": True, "coords": [0]}]}),
    ("witness", "--set", {"kind": "corners", "family": [{"depth": 1, "coords": ["1"]}]}),
    ("plotdata", "--set", {"kind": "empty", "dim": 1.5}),
    ("plotdata", "--set", {"kind": "empty", "dim": True}),
], ids=["coord-float", "J-float", "depth-float", "depth-bool", "coord-string",
        "dim-float", "dim-bool"])
def test_non_integer_json_exits_2(tmp_path, capsys, command, flag, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "r.json"
    code = main([command, flag, str(path), "--depth", "2", "--out", str(out)])
    assert code == 2
    assert "expected an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,payload", [
    ("witness", "--set", [1, 2]),
    ("invert", "--family", _family_payload({"depth": 0, "coords": 0})),
    ("plotdata", "--set", {"kind": "empty", "dim": -1}),
    ("plotdata", "--set", {"kind": "points", "points": [[]]}),
], ids=["set-list", "coords-int", "empty-dim-negative", "points-no-coordinate"])
def test_wrong_shape_json_exits_2(tmp_path, capsys, command, flag, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "r.json"
    code = main([command, flag, str(path), "--depth", "2", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("command", ["analyze", "plotdata"])
def test_alpha_grid_outside_0_d_exits_2(tmp_path, capsys, command):
    out = tmp_path / "r.json"
    code = main([command, "--set", write_set(tmp_path), "--alpha-grid", "1:3:1",
                 "--depth", "3", "--out", str(out)])
    assert code == 2
    assert "error: alpha grid entry 2 outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--set", "SET"], ["--dim", "3"], ["--depth", "1"],
                                   ["--budget", "5"], ["--alpha-grid", "0:1:1/2"]],
                         ids=["set-and-family", "dim-mismatch", "depth", "budget",
                              "alpha-grid"])
def test_plotdata_rejects_a_family_with_unread_input(tmp_path, capsys, extra):
    family = write_family(tmp_path, [{"depth": 0, "coords": [0]}])
    extra = [write_set(tmp_path) if a == "SET" else a for a in extra]
    out = tmp_path / "sweep.csv"
    code = main(["plotdata", "--family", family, *extra, "--out", str(out)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    assert not list(tmp_path.glob("sweep*"))


@pytest.mark.parametrize("command", ["analyze", "plotdata"])
def test_an_enumeration_past_the_member_cap_exits_3(tmp_path, capsys, monkeypatch,
                                                    command):
    monkeypatch.setattr(families, "MAX_MEMBERS", 4)
    out = tmp_path / "r.json"
    code = main([command, "--set", write_set(tmp_path, kind="cantor"), "--depth", "6",
                 "--out", str(out)])
    assert code == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("budget failure: more than 4 cubes below Q(j=0, k=(0,))")
    assert not out.exists() and not list(tmp_path.glob("r*.csv"))


FREE_CUBE_SEARCHES = {"analyze": ["--depth", "6"], "witness": ["--depth", "5"],
                      "gamma": ["--gamma", "1/2", "--depth", "5"]}


@pytest.mark.parametrize("command", FREE_CUBE_SEARCHES)
def test_a_free_cube_search_past_the_member_cap_exits_3(tmp_path, capsys, monkeypatch,
                                                        command):
    # every enumeration fits under the cap; the search below [0, 1/64) has no
    # free cube within 6 levels, so its six passes would split 120 cubes
    monkeypatch.setattr(families, "MAX_MEMBERS", 20)
    out = tmp_path / "r.json"
    code = main([command, "--set", write_set(tmp_path, kind="crowded-corner"),
                 *FREE_CUBE_SEARCHES[command], "--search-depth", "6", "--out", str(out)])
    assert code == 3
    reason = "more than 20 cubes below Q(j=6, k=(0,)) to depth offset 6"
    assert capsys.readouterr().err.splitlines() == [f"budget failure: {reason}"]
    if command == "gamma":
        payload = json.loads(out.read_text())
        assert payload["witness"] == {"error": reason}
        assert "report" in payload["embedding"]
    else:
        assert not out.exists() and not list(tmp_path.glob("r*.csv"))


def test_csv_is_written_beside_an_extensionless_out(tmp_path):
    outdir = tmp_path / "out.d"
    outdir.mkdir()
    for command, out in (("analyze", "report"), ("plotdata", "sweep")):
        assert main([command, "--set", write_set(tmp_path), "--depth", "4",
                     "--out", str(outdir / out)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "report", "report.csv", "sweep.csv", "sweep_families.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.d", "set.json"]


@pytest.mark.parametrize("gamma", ["0/1", "-1/2"])
def test_non_positive_gamma_exits_2(tmp_path, capsys, gamma):
    code = main(["gamma", "--set", write_set(tmp_path), f"--gamma={gamma}",
                 "--depth", "3", "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert "error: --gamma must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["0", "1/2", "-1"])
def test_p_below_one_exits_2(tmp_path, capsys, p):
    out = tmp_path / "g.json"
    code = main(["gamma", "--set", write_set(tmp_path), "--gamma", "1/1", f"--p={p}",
                 "--depth", "3", "--out", str(out)])
    assert code == 2
    assert "error: --p must be >= 1" in capsys.readouterr().err
    assert not out.exists()  # rejected before any family is computed


@pytest.mark.parametrize("command", ["analyze", "gamma", "plotdata", "witness"])
def test_depth_times_dim_above_1000_exits_2_before_enumerating(tmp_path, capsys, command):
    # a depth-501 cube of the plane has volume 2^-1002
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"kind": "points", "points": [["1/3", "0/1"]]}))
    extra = ["--gamma", "1/1"] if command == "gamma" else []
    start = time.perf_counter()
    code = main([command, "--set", str(path), "--depth", "501", *extra,
                 "--out", str(tmp_path / "r.json")])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "error: depth 501 times dimension 2 exceeds 1000" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))


def test_invert_default_depth_times_dim_above_1000_exits_2(tmp_path, capsys):
    # a 3-d chain to depth 327: the default J = 335 needs 3 * 335 = 1005 bits
    members = [{"depth": j, "coords": [0, 0, 0]} for j in range(328)]
    family = tmp_path / "chain.json"
    family.write_text(json.dumps({"root": {"depth": 0, "coords": [0, 0, 0]},
                                  "J": 327, "provenance": "USER", "members": members}))
    out = tmp_path / "inv.json"
    assert main(["invert", "--family", str(family), "--out", str(out)]) == 2
    assert "error: depth 335 times dimension 3 exceeds 1000" in capsys.readouterr().err
    assert not out.exists()
    assert main(["invert", "--family", str(family), "--depth", "333",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["J"] == 333


def test_gamma_names_the_search_depth_that_ran_out(tmp_path, capsys):
    # 64 dyadic points over 2^16, two in each stratum [s/32, (s+1)/32): the
    # witness is built against the gamma family's corner set, which is dense
    # at depth 6
    rng = random.Random(1)
    nums = sorted(s * 2048 + x for s in range(32) for x in rng.sample(range(2048), 2))
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"kind": "points", "points": [[f"{n}/65536"] for n in nums]}))
    out = tmp_path / "g.json"
    code = main(["gamma", "--set", str(path), "--gamma", "3/2", "--depth", "10",
                 "--search-depth", "6", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert re.search(r"porosity failure at Q\(j=\d+, k=\(\d+,\)\): no free cube "
                     r"within --search-depth 6", err)
    witness = json.loads(out.read_text())["witness"]
    assert set(witness) == {"error"}


def test_analyze_cantor_flags_unresolved_mass(tmp_path, capsys):
    out = tmp_path / "cantor.json"
    code = main(["analyze", "--set", write_set(tmp_path, kind="cantor"),
                 "--depth", "10", "--out", str(out)])
    # the full report is written; the unresolved weighted mass maps to exit 3
    assert code == 3
    report = json.loads(out.read_text())
    assert report["mu"]["upper"] is None
    assert report["codim"]["estimate"]
    unresolved = report["mu"]["cells"]["unresolved"]
    assert capsys.readouterr().err.splitlines() == [
        "budget failure: no finite certified mass for Q(j=0, k=(0,)) at alpha 3/5, "
        f"unresolved cells: {unresolved}"]


def test_analyze_names_every_failed_part(tmp_path, capsys):
    # at depth 0 the porosity search has no level to look at, and the root
    # cell meets the points, so both parts fail
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"kind": "points", "points": [["1/3"], ["3/4"]]}))
    out = tmp_path / "r.json"
    code = main(["analyze", "--set", str(path), "--depth", "0", "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["porosity"]["absent"] == [{"depth": 0, "coords": [0]}]
    assert report["mu"]["upper"] is None
    assert capsys.readouterr().err.splitlines() == [
        "porosity failure at Q(j=0, k=(0,)): no free cube within --search-depth 0",
        "budget failure: no finite certified mass for Q(j=0, k=(0,)) at alpha 3/5, "
        "unresolved cells: 1"]


def test_witness_that_fails_verification_says_why(tmp_path, capsys, monkeypatch):
    cubes = (DyadicCube(1, (0,)), DyadicCube(2, (1,)))
    monkeypatch.setattr(cli, "verify_witness", lambda W, E, budget: WitnessVerdict(
        False, "overlapping free cubes", cubes))
    out = tmp_path / "w.json"
    code = main(["witness", "--set", write_set(tmp_path), "--depth", "4",
                 "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["verified"] is False
    assert capsys.readouterr().err.splitlines() == [
        "budget failure: witness not verified: overlapping free cubes at "
        "Q(j=1, k=(0,)), Q(j=2, k=(1,))"]


def test_gamma_witness_that_fails_verification_says_why(tmp_path, capsys, monkeypatch):
    cubes = (DyadicCube(1, (0,)), DyadicCube(2, (1,)))
    monkeypatch.setattr(neighborhoods, "verify_witness", lambda W, E, budget: WitnessVerdict(
        False, "assigned cube is not certified free", cubes))
    out = tmp_path / "g.json"
    code = main(["gamma", "--set", write_set(tmp_path), "--gamma", "3/2", "--depth", "5",
                 "--out", str(out)])
    assert code == 3
    reason = ("witness not verified: assigned cube is not certified free at "
              "Q(j=1, k=(0,)), Q(j=2, k=(1,))")
    payload = json.loads(out.read_text())
    assert payload["witness"] == {"error": reason}
    assert "report" in payload["embedding"]
    assert capsys.readouterr().err.splitlines() == [f"budget failure: {reason}"]


def test_gamma_records_a_capped_witness_enumeration(tmp_path, capsys, monkeypatch):
    # the gamma family (11 cubes) and D_E (6) fit under the cap; the
    # witness's D_E of the corner set and the set (27) does not
    monkeypatch.setattr(families, "MAX_MEMBERS", 20)
    out = tmp_path / "g.json"
    code = main(["gamma", "--set", write_set(tmp_path), "--gamma", "3/2", "--depth", "5",
                 "--out", str(out)])
    assert code == 3
    reason = "more than 20 cubes below Q(j=0, k=(0,)) to depth offset 6"
    payload = json.loads(out.read_text())
    assert payload["witness"] == {"error": reason}
    assert "report" in payload["embedding"]
    assert capsys.readouterr().err.splitlines() == [f"budget failure: {reason}"]


def test_gamma_on_a_set_near_but_off_the_root_writes_its_report(tmp_path, capsys):
    # 3/2 is within gamma = 1 of [0, 1) but outside it: the root is in the
    # gamma family and free, and its mass still certifies the volume check
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"kind": "points", "points": [["3/2"]]}))
    out = tmp_path / "g.json"
    code = main(["gamma", "--set", str(path), "--gamma", "1", "--depth", "3",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(out.read_text())
    assert payload["embedding"]["report"]["mass_lower_check"] == "certified"
    assert "assignments" in payload["witness"]


def test_gamma_command(tmp_path):
    out = tmp_path / "g.json"
    code = main(["gamma", "--set", write_set(tmp_path), "--gamma", "2/1",
                 "--depth", "6", "--p", "2/1", "--seed", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["gamma_report"]["n"] == 3
    assert "embedding" in payload and "report" in payload["embedding"]


def test_plotdata_and_empty_family(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["plotdata", "--set", write_set(tmp_path), "--depth", "8",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) > 1
    fam_out = tmp_path / "empty.csv"
    code = main(["plotdata", "--family", write_family(tmp_path, []),
                 "--out", str(fam_out)])
    assert code == 0
    assert fam_out.read_text().splitlines() == [
        "alpha,J,root,value_lo,value_hi,ratio_lo,ratio_hi"]


def test_reports_round_trip_and_embed_config(tmp_path):
    out = tmp_path / "w.json"
    main(["witness", "--set", write_set(tmp_path), "--depth", "4",
          "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["config"]["command"] == "witness"
    assert len(payload["assignments"]) == 5


def test_determinism_across_repeated_runs(tmp_path):
    out = tmp_path / "g.json"
    blobs = []
    for _run in range(3):
        code = main(["gamma", "--set", write_set(tmp_path), "--gamma", "1/1",
                     "--depth", "5", "--seed", "42", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


GOLDEN_RUNS = json.loads((GOLDEN / "runs.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_runs(tmp_path, name, monkeypatch):
    # relative paths keep the reports free of run-specific paths; the run's
    # input, the file after --set or --family, is checked in beside them
    monkeypatch.chdir(tmp_path)
    run = GOLDEN_RUNS[name]
    argv = run["argv"]
    source = next(argv[i + 1] for i, a in enumerate(argv) if a in ("--set", "--family"))
    (tmp_path / source).write_bytes((GOLDEN / source).read_bytes())
    assert main(argv) == run["exit"]
    for f in run["files"]:
        assert (tmp_path / f).read_bytes() == (GOLDEN / f).read_bytes(), f


class Tag(str):
    """A str subclass: json writes its text."""


class Word(str, Enum):
    PLAIN = "s1"
    ESCAPED = "\u00e9\n\""


class Level(IntEnum):
    LOW = -1
    HIGH = 2 ** 70


class Row(tuple):
    """A tuple subclass: json writes it as a list, as it does a DyadicCube."""


@dataclass(frozen=True)
class Leaf:
    """An object json cannot write: both writers put its `to_json()` in its
    place, as they do a report object's."""
    value: object

    def to_json(self):
        return self.value


# JSON trees up to depth 6: strings and keys with non-ASCII, escape and
# control characters, int keys beside str keys (which json cannot sort, so
# both writers raise TypeError), big ints, every kind of float, empty
# containers, the str, int and tuple subclasses json accepts, and objects
# that json writes through their `to_json()`
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
STR_LIKE = st.one_of(JSON_TEXT, JSON_TEXT.map(Tag), st.sampled_from(Word))
INT_LIKE = st.one_of(st.integers(-2**70, 2**70), st.sampled_from(Level))
JSON_SCALARS = st.one_of(
    STR_LIKE, st.none(), st.booleans(), st.integers(-2**200, 2**200), INT_LIKE,
    st.floats(), st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")]),
    dyadic_cubes(max_depth=4))
# str keys, int keys, and keys of every kind json takes, mixed
JSON_KEYS = [STR_LIKE, INT_LIKE,
             st.one_of(STR_LIKE, INT_LIKE, st.floats(), st.booleans(), st.none())]


def json_trees(depth=6):
    if not depth:
        return JSON_SCALARS
    inner = json_trees(depth - 1)
    return st.one_of(JSON_SCALARS, st.lists(inner, max_size=3),
                     st.lists(inner, max_size=2).map(tuple),
                     st.lists(inner, max_size=2).map(Row), inner.map(Leaf),
                     *(st.dictionaries(keys, inner, max_size=3) for keys in JSON_KEYS))


def _to_json(o):
    """The report writer's `default`: an object's `to_json()`, else json's
    own TypeError."""
    return o.to_json() if hasattr(o, "to_json") else json.JSONEncoder().default(o)


def _json_text(payload):
    try:
        return json.dumps(payload, sort_keys=True, indent=2, default=_to_json) + "\n"
    except TypeError:
        return TypeError


@given(json_trees())
# equal as dict keys, but json words them true, 1 and 1.0
@example([{True: 0}, {1: 0}, {1.0: 0}])
@example([Leaf({"b": Leaf([Leaf(1)]), "a": Leaf({})}), Leaf(DyadicCube(1, (1,)))])
@example({"x": [Leaf(2), object()]})
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("report") / "r.json"
    want = _json_text(payload)
    if want is TypeError:
        with pytest.raises(TypeError):
            _dump_json(str(path), payload)
    else:
        _dump_json(str(path), payload)
        assert path.read_bytes() == want.encode("ascii")


def test_report_writer_streams_in_batches(tmp_path, monkeypatch):
    # a write per piece, odd batches and one write at the end give the same bytes
    payload = {"roots": [{"root": [i, -i], "s": f"{i}/7", "ok": i % 2 == 0}
                         for i in range(3000)], "e": {}, "f": []}
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    for batch in (1, 7, 10**6):
        monkeypatch.setattr(cli, "_BATCH", batch)
        _dump_json(str(tmp_path / "r.json"), payload)
        assert (tmp_path / "r.json").read_text() == want


@dataclass(frozen=True)
class Probe:
    """Notes, when the writer asks for its form, how much text is written."""
    i: int
    sink: io.StringIO
    calls: list

    def to_json(self):
        self.calls.append((self.i, self.sink.getvalue()))
        return {"i": self.i, "cube": DyadicCube(2, (self.i % 4, 1)).to_json(),
                "next": [Probe(-1 - self.i, self.sink, self.calls)] if self.i >= 0 else []}


class _Sink(io.StringIO):
    def close(self):
        """Keep the text readable after the writer's `with` block."""


def test_report_writer_asks_each_object_for_its_form_only_when_it_is_reached(monkeypatch):
    # a write per item: when an object's to_json runs, every item before it
    # is in the file, and nothing of it or after it is
    monkeypatch.setattr(cli, "_BATCH", 1)
    sink, calls = _Sink(), []
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: sink, raising=False)
    probes = [Probe(i, sink, calls) for i in range(6)]
    payload = {"b": probes[3:], "a": tuple(probes[:3]), "c": {"z": Leaf("end")}}
    _dump_json("r.json", payload)
    text, asked = sink.getvalue(), calls[:]
    assert text == _json_text(payload)
    order = [0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5, -6]
    assert [i for i, _written in asked] == order
    for n, (i, written) in enumerate(asked):
        # the text so far, up to the end of an item and short of this object
        assert text.startswith(written)
        assert len(written) < text.index(f'"i": {i},')
        if n:
            # the object asked before this one is in the file up to its "i"
            before = f'"i": {order[n - 1]}'
            assert text.index(before + ",") + len(before) <= len(written)


def test_report_writer_holds_no_whole_text(tmp_path):
    # an invert report of 16,000 roots is over 3 MB of text; the writer may
    # hold at most 1 MB beside its payload, so it cannot gather the whole text
    tracemalloc.start()
    try:
        payload = {"xi": "5/3", "bound": "59/9", "measured": "511/256", "J": 24,
                   "chain_coverage_ok": True, "corner_membership_ok": True,
                   "config": {"command": "invert", "depth": 24, "out": "inverse.json"},
                   "roots": [{"root": {"depth": 8 + i % 17, "coords": [i, 3 * i]},
                              "s1": f"{2 * i + 1}/281474976710656", "s2": f"{i}/1024",
                              "s3": f"{7 * i + 1}/17179869184", "s4": "0/1"}
                             for i in range(16_000)]}
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _dump_json(str(tmp_path / "r.json"), payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "r.json").stat().st_size > 3 << 20
    assert peak - base <= 1 << 20


def test_an_invert_report_is_held_once_while_it_is_written(tmp_path):
    # the full binary tree to depth 10 inverted at J = 25: 2,047 members and
    # 1,024 chains of 15 cubes, so 17,407 roots and 3.4 MB of text.  Its
    # roots are RootSplits that the writer renders as it reaches them, so
    # writing the payload adds at most 1 MB beside the report, where a dict
    # per root would add about 9 MB
    members = [DyadicCube(j, (k,)) for j in range(11) for k in range(1 << j)]
    report = invert(CubeFamily.make(DyadicCube.root(1), members, 10), 25)[1]
    assert len(report.splits) >= 16_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _dump_json(str(tmp_path / "inverse.json"),
                   {**report.to_json(), "config": RunConfig("invert")})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "inverse.json").stat().st_size > 3 << 20
    assert peak - base <= 1 << 20
