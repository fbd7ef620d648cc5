import json
import re
from pathlib import Path

import pytest

from cubeporos.cli import main

GOLDEN = Path(__file__).parent / "golden"


def write_set(tmp_path, name="set.json", kind="origin"):
    payloads = {
        "origin": {"kind": "points", "points": [["0/1"]]},
        "cantor": {"kind": "ifs",
                   "maps": [{"ratio": "1/3", "shift": ["0/1"]},
                            {"ratio": "1/3", "shift": ["2/3"]}],
                   "hull": {"lo": ["0/1"], "hi": ["1/1"]}},
        "empty": {"kind": "empty", "dim": 1},
        "zero-denominator": {"kind": "points", "points": [["1/0"]]},
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


def test_witness_saturated_set_exits_3(tmp_path):
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


def test_invert_non_parent_closed_exits_2(tmp_path):
    members = [{"depth": 0, "coords": [0]}, {"depth": 2, "coords": [1]}]
    out = tmp_path / "inv.json"
    code = main(["invert", "--family", write_family(tmp_path, members),
                 "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["error"] == "not-parent-closed"
    assert payload["cube"] == {"depth": 2, "coords": [1]}


# the flags each command reads
COMMAND_FLAGS = {
    "analyze": {"--set", "--dim", "--depth", "--budget", "--split-budget",
                "--search-depth", "--alpha-grid", "--tau", "--out"},
    "witness": {"--set", "--dim", "--depth", "--budget", "--search-depth", "--out"},
    "invert": {"--family", "--depth", "--budget", "--out"},
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
    for flag in ("--depth", "--search-depth") if flag in flags))
def test_negative_depth_exits_2(tmp_path, capsys, command, flag):
    code = main([command, *source_args(tmp_path, command), flag, "-1",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"error: {flag} must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_the_commands_flags(capsys, command):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert listed == COMMAND_FLAGS[command]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_unread_flag_exits_2(tmp_path, capsys, command, flag):
    values = {"--set": write_set(tmp_path), "--dim": "1",
              "--family": write_family(tmp_path, [{"depth": 0, "coords": [0]}]),
              "--split-budget": "4", "--search-depth": "2",
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
], ids=["gamma-abc", "gamma-1/0", "p-1/0", "alpha-x", "tau-1/0", "set-1/0"])
def test_malformed_fraction_exits_2(tmp_path, capsys, argv, kind):
    out = tmp_path / "r.json"
    code = main([*argv, "--set", write_set(tmp_path, kind=kind), "--depth", "3",
                 "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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


def test_analyze_cantor_flags_unresolved_mass(tmp_path):
    out = tmp_path / "cantor.json"
    code = main(["analyze", "--set", write_set(tmp_path, kind="cantor"),
                 "--depth", "10", "--out", str(out)])
    # the full report is written; the unresolved weighted mass maps to exit 3
    assert code == 3
    report = json.loads(out.read_text())
    assert report["mu"]["upper"] is None
    assert report["codim"]["estimate"]


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
    from cubeporos.sparse import SparseWitness
    w = SparseWitness.from_json(payload)
    assert len(w.assignments) == 5


def test_determinism_across_repeated_runs(tmp_path):
    out = tmp_path / "g.json"
    blobs = []
    for _run in range(3):
        code = main(["gamma", "--set", write_set(tmp_path), "--gamma", "1/1",
                     "--depth", "5", "--seed", "42", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("name", ["gamma_seed11.json", "gamma_seed12.json",
                                  "gamma_seed13.json"])
def test_golden_gamma_runs(tmp_path, name, monkeypatch):
    # the argv of scripts/regen_goldens.py; relative paths keep the reports
    # free of run-specific paths
    monkeypatch.chdir(tmp_path)
    write_set(tmp_path, name="origin.json")
    seed = name.removesuffix(".json").removeprefix("gamma_seed")
    code = main(["gamma", "--set", "origin.json", "--gamma", "3/2",
                 "--depth", "5", "--seed", seed, "--out", name])
    assert code == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


CANTOR_RUNS = json.loads((GOLDEN / "cantor_runs.json").read_text())


@pytest.mark.parametrize("name", sorted(CANTOR_RUNS))
def test_golden_cantor_runs(tmp_path, name, monkeypatch):
    # relative paths keep the reports free of run-specific paths
    monkeypatch.chdir(tmp_path)
    write_set(tmp_path, name="cantor.json", kind="cantor")
    run = CANTOR_RUNS[name]
    assert main(run["argv"]) == run["exit"]
    for f in run["files"]:
        assert (tmp_path / f).read_bytes() == (GOLDEN / f).read_bytes(), f


INVERT_RUNS = json.loads((GOLDEN / "invert_runs.json").read_text())


@pytest.mark.parametrize("name", sorted(INVERT_RUNS))
def test_golden_invert_runs(tmp_path, name, monkeypatch):
    # the input family is checked in next to its report; see regen_goldens.py
    monkeypatch.chdir(tmp_path)
    run = INVERT_RUNS[name]
    for f in run["inputs"]:
        (tmp_path / f).write_bytes((GOLDEN / f).read_bytes())
    assert main(run["argv"]) == run["exit"]
    for f in run["files"]:
        assert (tmp_path / f).read_bytes() == (GOLDEN / f).read_bytes(), f
