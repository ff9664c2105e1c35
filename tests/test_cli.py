from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

import onedisk as od
from onedisk.cli import main
from onedisk.documents import drawing_to_document

from conftest import (
    FIXTURES,
    UNDECODABLE_FILES,
    _count_traces,
    huge_claim_document,
    k33,
    no_disk_k33_drawing,
)


def test_construct_verify_round(tmp_path, capsys):
    g = tmp_path / "g.json"
    d = tmp_path / "d.json"
    assert main(["construct", "--x", "3", "--y", "3",
                 "--out-graph", str(g), "--out-drawing", str(d), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"] == 9 and payload["crossings"] == 3
    assert main(["verify", "--drawing", str(d), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["one_planar"] and payload["one_disk"]


def test_construct_strategy_flag(tmp_path):
    g = tmp_path / "g.json"
    d = tmp_path / "d.json"
    assert main(["construct", "--x", "5", "--y", "9", "--strategy", "zigzag",
                 "--out-graph", str(g), "--out-drawing", str(d)]) == 0
    assert main(["construct", "--x", "5", "--y", "9", "--strategy", "seed:3",
                 "--out-graph", str(g), "--out-drawing", str(d)]) == 0


def test_construct_uncovered_regime_fails(tmp_path, capsys):
    rc = main(["construct", "--x", "4", "--y", "4",
               "--out-graph", str(tmp_path / "g.json"),
               "--out-drawing", str(tmp_path / "d.json")])
    assert rc == 1


def test_bad_strategy_is_usage_error(tmp_path, capsys):
    for strategy in ("wat", "seed:x"):
        rc = main(["construct", "--x", "3", "--y", "3", "--strategy", strategy,
                   "--out-graph", str(tmp_path / "g.json"),
                   "--out-drawing", str(tmp_path / "d.json")])
        assert rc == 2
        # The message names the accepted spellings, not the private validator.
        err = capsys.readouterr().err
        assert "fan, zigzag or seed:<int>" in err
        assert repr(strategy) in err
        assert "_strategy" not in err


def test_verify_failing_drawing(tmp_path, capsys):
    bad = no_disk_k33_drawing()
    od.save_drawing(bad, tmp_path / "d.json")
    assert main(["verify", "--drawing", str(tmp_path / "d.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["one_planar"] and not payload["one_disk"]


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all", encoding="utf-8")
    assert main(["verify", "--drawing", str(path)]) == 2


@pytest.mark.parametrize("command", [
    ["verify", "--drawing"], ["verify", "--json", "--drawing"], ["bounds", "--graph"],
], ids=" ".join)
@pytest.mark.parametrize("name", sorted(UNDECODABLE_FILES))
def test_undecodable_file_exits_2(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNDECODABLE_FILES[name])
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_invalid_drawing_file(tmp_path, capsys):
    _, d = od.construct_extremal(3, 3)
    from onedisk.documents import drawing_to_document
    doc = drawing_to_document(d)
    doc["crossings"][1] = doc["crossings"][0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--drawing", str(path)]) == 1


def test_bounds_table(capsys):
    assert main(["bounds", "--x", "3", "--y", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = payload["bounds"]
    assert table["one_disk"] == 9
    assert table["huang"] == 12
    assert table["czap"] == 14
    assert table["problem_target"] == "9"


def test_bounds_explicit_order_flag(capsys):
    # The order is always x + y, so bounds takes no --n.
    assert main(["bounds", "--x", "2", "--y", "2", "--n", "8", "--json"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["bounds", "--x", "2", "--y", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 8
    assert payload["bounds"]["karpov"] == 16
    assert payload["bounds"]["one_planar"] == 24


def test_bounds_report_mode(tmp_path, capsys):
    assert main(["construct", "--x", "4", "--y", "6",
                 "--out-graph", str(tmp_path / "g.json"),
                 "--out-drawing", str(tmp_path / "d.json")]) == 0
    capsys.readouterr()
    rc = main(["bounds", "--graph", str(tmp_path / "g.json"),
               "--drawing", str(tmp_path / "d.json"), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    one_disk = next(e for e in payload["entries"] if e["name"] == "one_disk")
    assert one_disk["tight"] and not one_disk["violated"]


def test_bounds_report_traces_faces_once(tmp_path, monkeypatch, capsys):
    g, d = od.construct_extremal(5, 9)
    od.save_graph(g, tmp_path / "g.json")
    od.save_drawing(d, tmp_path / "d.json")
    calls = _count_traces(monkeypatch)
    assert main(["bounds", "--graph", str(tmp_path / "g.json"),
                 "--drawing", str(tmp_path / "d.json")]) == 0
    assert len(calls) == 1


def test_repeated_calls_match_separate_processes(monkeypatch, capsys):
    # Usage text wraps at the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["bounds", "--x", "3", "--y", "3", "--json"],
        ["construct", "--x", "3"],
        ["search", "--x", "0", "--y", "3"],
        ["bounds", "--x", "4", "--y", "6"],
        ["verify", "--drawing", str(FIXTURES / "extremal_4_6.drawing.json"), "--json"],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    separate = []
    for argv in calls:
        result = subprocess.run([sys.executable, "-m", "onedisk.cli", *argv],
                                capture_output=True, text=True)
        separate.append((result.returncode, result.stdout, result.stderr))
    assert [code for code, _, _ in in_process] == [0, 2, 2, 0, 0]
    assert in_process == separate


def test_bounds_requires_arguments():
    assert main(["bounds"]) == 2


def test_bounds_argument_conflicts_are_usage_errors(tmp_path, capsys):
    assert main(["bounds", "--x", "3", "--y", "3",
                 "--drawing", str(tmp_path / "absent.json")]) == 2
    g, _ = od.construct_extremal(3, 3)
    od.save_graph(g, tmp_path / "g.json")
    assert main(["bounds", "--graph", str(tmp_path / "g.json"), "--x", "9", "--y", "1"]) == 2
    assert main(["bounds", "--graph", str(tmp_path / "g.json"), "--y", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("bounds: ") == 3


def test_verify_huge_claimed_vertex_count(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge_claim_document()), encoding="utf-8")
    assert main(["verify", "--drawing", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"].startswith("IncompleteRotation")
    assert len(payload["reason"]) < 300


def test_search_json(tmp_path, capsys):
    witness = tmp_path / "w.json"
    rc = main(["search", "--x", "2", "--y", "2", "--json",
               "--out-witness", str(witness)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_edges"] == 4
    assert set(payload) == {"x", "y", "max_edges", "candidates", "witness_path",
                            "witness_crossings"}
    assert od.edge_count(od.load_drawing(witness).graph) == 4


def test_search_budget_exit_code(capsys):
    assert main(["search", "--x", "3", "--y", "3", "--budget", "1e-9"]) == 3


def test_usage_error_exit_code():
    assert main(["construct", "--x", "3"]) == 2
    assert main([]) == 2


def test_full_pipeline(tmp_path, capsys):
    g = tmp_path / "g.json"
    d = tmp_path / "d.json"
    dg = tmp_path / "dg.json"
    dd = tmp_path / "dd.json"
    svg = tmp_path / "fig.svg"
    assert main(["construct", "--x", "4", "--y", "6", "--out-graph", str(g),
                 "--out-drawing", str(d), "--svg", str(svg)]) == 0
    assert main(["verify", "--drawing", str(d)]) == 0
    assert main(["bounds", "--graph", str(g), "--drawing", str(d)]) == 0
    assert main(["double", "--drawing", str(d), "--out-graph", str(dg),
                 "--out-drawing", str(dd)]) == 0
    assert main(["verify", "--drawing", str(dd)]) == 0
    doubled = od.load_drawing(dd)
    assert od.edge_count(doubled.graph) == 36
    assert svg.exists()


def test_console_entry_point_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "onedisk.cli", "bounds", "--x", "3", "--y", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "one_disk" in result.stdout


def _missing_dir_path(tmp_path, name):
    return str(tmp_path / "absent" / name)


def test_unwritable_construct_outputs_exit_2(tmp_path, capsys):
    base = ["construct", "--x", "3", "--y", "3"]
    g, d = str(tmp_path / "g.json"), str(tmp_path / "d.json")
    bad = _missing_dir_path(tmp_path, "out")
    for argv in (
        base + ["--out-graph", bad, "--out-drawing", d],
        base + ["--out-graph", g, "--out-drawing", bad],
        base + ["--out-graph", g, "--out-drawing", d, "--svg", bad],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_unwritable_double_output_exit_2(tmp_path, capsys):
    d = tmp_path / "d.json"
    _, drawing = od.construct_extremal(3, 3)
    od.save_drawing(drawing, d)
    assert main(["double", "--drawing", str(d),
                 "--out-graph", _missing_dir_path(tmp_path, "g.json"),
                 "--out-drawing", str(tmp_path / "dd.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_witness_exit_2(tmp_path, capsys):
    assert main(["search", "--x", "2", "--y", "2",
                 "--out-witness", _missing_dir_path(tmp_path, "w.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_search_rejects_nonpositive_arguments(capsys):
    assert main(["search", "--x", "0", "--y", "3"]) == 2
    assert main(["search", "--x", "3", "--y", "-1"]) == 2
    assert main(["search", "--x", "2", "--y", "2", "--budget", "0"]) == 2
    assert main(["search", "--x", "2", "--y", "2", "--budget", "-5"]) == 2
    assert main(["search", "--x", "2", "--y", "2", "--budget", "nan"]) == 2
    assert "must be" in capsys.readouterr().err


def test_bounds_rejects_nonpositive_sizes(capsys):
    assert main(["bounds", "--x", "-5", "--y", "3"]) == 2
    assert main(["bounds", "--x", "0", "--y", "0"]) == 2
    assert main(["bounds", "--x", "3", "--y", "0", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be at least 1" in captured.err


# Run in order in one directory: later cases read the files earlier ones
# write.  Every case's exit code, stdout and stderr is pinned.
_PINNED_CASES = [
    "construct --x 4 --y 6 --out-graph g.json --out-drawing d.json --svg f.svg",
    "construct --x 4 --y 6 --out-graph gj.json --out-drawing dj.json --svg fj.svg --json",
    "construct --x 5 --y 9 --strategy zigzag --out-graph gz.json --out-drawing dz.json",
    "construct --x 5 --y 9 --strategy seed:3 --out-graph gs.json --out-drawing ds.json --json",
    "construct --x 2 --y 2 --out-graph g22.json --out-drawing d22.json",
    "construct --x 4 --y 4 --out-graph gu.json --out-drawing du.json",
    "construct --x 4 --y 4 --out-graph gu.json --out-drawing du.json --json",
    "construct --x 3 --y 3 --out-graph absent/g.json --out-drawing d3.json",
    "construct --x 3 --y 3 --out-graph g3.json --out-drawing absent/d.json --json",
    "construct --x 3 --y 3 --out-graph g3.json --out-drawing d3.json --svg absent/f.svg",
    "verify --drawing d.json",
    "verify --drawing d.json --json",
    "verify --drawing no_disk.json",
    "verify --drawing no_disk.json --json",
    "verify --drawing junk.json",
    "verify --drawing junk.json --json",
    "verify --drawing bad.json",
    "verify --drawing bad.json --json",
    "verify --drawing absent.json",
    "verify --drawing huge.json --json",
    "double --drawing d.json --out-graph dg.json --out-drawing dd.json",
    "double --drawing dz.json --out-graph dgz.json --out-drawing ddz.json --json",
    "double --drawing no_disk.json --out-graph nd_g.json --out-drawing nd_d.json",
    "double --drawing absent.json --out-graph ag.json --out-drawing ad.json --json",
    "double --drawing d.json --out-graph absent/g.json --out-drawing ddx.json",
    "verify --drawing dd.json",
    "verify --drawing ddz.json --json",
    "bounds --x 3 --y 3",
    "bounds --x 3 --y 3 --json",
    "bounds --x 4 --y 6",
    "bounds --x 5 --y 7 --json",
    "bounds --x 1 --y 1",
    "bounds --x 1 --y 1 --json",
    "bounds --x 2 --y 1",
    "bounds --x 2 --y 1 --json",
    "bounds --graph g.json --drawing d.json",
    "bounds --graph g.json --drawing d.json --json",
    "bounds --graph g.json",
    "bounds --graph g.json --json",
    "bounds --graph dg.json --drawing dd.json",
    "bounds --graph g.json --drawing dd.json --json",
    "bounds --graph k33.json --drawing no_disk.json",
    "bounds --x 3 --y 3 --drawing absent.json",
    "bounds --graph g.json --x 9 --y 1",
    "bounds --graph g.json --y 1 --json",
    "bounds",
    "bounds --x 3 --json",
    "bounds --graph junk.json",
    "bounds --graph d.json --json",
    "search --x 2 --y 2 --out-witness w22.json",
    "search --x 2 --y 3 --out-witness w23.json --json",
    "search --x 1 --y 3",
    "search --x 3 --y 3 --json",
    "search --x 3 --y 3 --budget 1e-9",
    "search --x 3 --y 3 --budget 1e-9 --json",
    "search --x 2 --y 2 --out-witness absent/w.json",
    "verify --drawing w23.json --json",
]

# Argparse words and wraps usage and help text differently across Python
# versions, so these cases are checked by exit code and stdout alone.
_USAGE_ERRORS = [
    "",
    "construct --x 3",
    "construct --x 3 --y 3 --strategy wat --out-graph g.json --out-drawing d.json",
    "verify",
    "double --drawing d.json",
    "bounds --x 0 --y 3",
    "bounds --x 2 --y 2 --n 8",
    "search --x 0 --y 3",
    "search --x 2 --y 2 --budget 0",
]
_HELP = ["--help", *(f"{name} --help" for name in
                     ("construct", "verify", "bounds", "double", "search"))]

# Witness documents list rotations in set order; WITNESS_SHA256 in
# test_search.py pins them instead.
_UNPINNED_FILES = {"w22.json", "w23.json"}

CLI_TRANSCRIPT_SHA256 = "58cc1c70bc7948cc8ee030a534eb26cf184e69683b44f9adb64d5a0a9421c792"


def test_cli_transcript_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    od.save_drawing(no_disk_k33_drawing(), "no_disk.json")
    od.save_graph(k33(), "k33.json")
    (tmp_path / "junk.json").write_text("not json at all", encoding="utf-8")
    (tmp_path / "huge.json").write_text(json.dumps(huge_claim_document()), encoding="utf-8")
    doc = drawing_to_document(od.construct_extremal(3, 3)[1])
    doc["crossings"][1] = doc["crossings"][0]
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")

    digest = hashlib.sha256()
    for case in _PINNED_CASES:
        code = main(case.split())
        captured = capsys.readouterr()
        digest.update(repr((case, code, captured.out, captured.err)).encode())
    for case in _USAGE_ERRORS:
        assert main(case.split()) == 2, case
        assert capsys.readouterr().out == "", case
    for case in _HELP:
        assert main(case.split()) == 0, case
        assert capsys.readouterr().out.startswith("usage: onedisk"), case
    for path in sorted(tmp_path.iterdir()):
        if path.is_file() and path.name not in _UNPINNED_FILES:
            digest.update(repr((path.name, path.read_bytes())).encode())
    assert digest.hexdigest() == CLI_TRANSCRIPT_SHA256
