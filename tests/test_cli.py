from __future__ import annotations

import json
import subprocess
import sys

import onedisk as od
from onedisk.cli import main

from conftest import FIXTURES, _count_traces, huge_claim_document, no_disk_k33_drawing


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
    rc = main(["construct", "--x", "3", "--y", "3", "--strategy", "wat",
               "--out-graph", str(tmp_path / "g.json"),
               "--out-drawing", str(tmp_path / "d.json")])
    assert rc == 2


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
