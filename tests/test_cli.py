from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import plesken
from plesken.cli import main
from plesken.cohomology import BilinearForm, form_from_json
from plesken.extensions import extension_from_json
from plesken.groups import group_from_json
from plesken.liealg import algebra_from_json
from plesken.scalars import Scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_then_algebra_flow(tmp_path, capsys):
    gpath = tmp_path / "q8.json"
    code, out, _ = run_cli(capsys, "group", "make", "--preset", "quaternion8",
                           "-o", str(gpath))
    assert code == 0
    assert "order        8" in out
    lpath = tmp_path / "L.json"
    code, out, _ = run_cli(capsys, "algebra", "plesken", "-g", str(gpath),
                           "-o", str(lpath))
    assert code == 0
    assert "dim        3" in out
    assert "semisimple true" in out
    algebra = algebra_from_json(json.loads(lpath.read_text()))
    assert algebra.dim == 3


def test_group_json_document_is_readable(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "group", "make", "--preset", "dihedral",
                           "--n", "4", "--json")
    assert code == 0
    group = group_from_json(json.loads(out))
    assert group.order == 8


def test_cohomology_h2_output(tmp_path, capsys):
    lpath = tmp_path / "ab2.json"
    lpath.write_text(json.dumps({"dim": 2, "labels": ["x1", "x2"],
                                 "brackets": []}))
    code, out, _ = run_cli(capsys, "cohomology", "h2", "-L", str(lpath))
    assert code == 0
    assert out.splitlines()[0] == "Z2=1 B2=0 H2=1"
    code, out, _ = run_cli(capsys, "cohomology", "h2", "-L", str(lpath), "--json")
    doc = json.loads(out)
    assert (doc["z2"], doc["b2"], doc["h2"]) == (1, 0, 1)
    rep = form_from_json(doc["representatives"][0])
    assert rep == BilinearForm.from_entries(2, {(0, 1): Scalar(1)})


def _write_ab2_and_alpha(tmp_path):
    lpath = tmp_path / "ab2.json"
    lpath.write_text(json.dumps({"dim": 2, "labels": ["x1", "x2"],
                                 "brackets": []}))
    apath = tmp_path / "alpha.json"
    apath.write_text(json.dumps({"dim": 2, "upper": [["1"]]}))
    return lpath, apath


def test_extension_flow(tmp_path, capsys):
    lpath, apath = _write_ab2_and_alpha(tmp_path)
    epath = tmp_path / "ext.json"
    code, out, _ = run_cli(capsys, "extension", "build", "-L", str(lpath),
                           "--alpha", str(apath), "-o", str(epath))
    assert code == 0
    ext = extension_from_json(json.loads(epath.read_text()))
    assert ext.total.dim == 3

    code, out, _ = run_cli(capsys, "extension", "cocycle", "-e", str(epath))
    assert code == 0
    assert "alpha(0,1) = 1" in out

    code, out, _ = run_cli(capsys, "extension", "split", "-e", str(epath))
    assert code == 0
    assert out.splitlines()[0] == "split: false"

    zpath = tmp_path / "alpha0.json"
    zpath.write_text(json.dumps({"dim": 2, "upper": [["0"]]}))
    e0path = tmp_path / "ext0.json"
    run_cli(capsys, "extension", "build", "-L", str(lpath),
            "--alpha", str(zpath), "-o", str(e0path))
    code, out, _ = run_cli(capsys, "extension", "split", "-e", str(e0path))
    assert out.splitlines()[0] == "split: true"

    code, out, _ = run_cli(capsys, "extension", "equiv",
                           "-e1", str(epath), "-e2", str(e0path), "--json")
    assert code == 0
    assert json.loads(out) == {"equivalent": False, "phi": None,
                               "verified": None}

    code, out, _ = run_cli(capsys, "extension", "equiv",
                           "-e1", str(epath), "-e2", str(epath), "--json")
    doc = json.loads(out)
    assert doc["equivalent"] and doc["verified"]


def _write_heis_rep(tmp_path):
    lpath = tmp_path / "heis3.json"
    lpath.write_text(json.dumps({
        "dim": 3, "labels": ["X", "Y", "Z"],
        "brackets": [{"i": 0, "j": 1, "c": ["0", "0", "1"]}]}))
    rpath = tmp_path / "rep.json"
    rpath.write_text(json.dumps({
        "dim": 3, "degree": 2,
        "matrices": [[["0", "1"], ["0", "0"]],
                     [["0", "0"], ["0", "0"]],
                     [["-1", "0"], ["0", "-1"]]],
        "alpha": {"dim": 3, "upper": [["1", "0"], ["0"]]}}))
    return lpath, rpath


def test_rep_flow(tmp_path, capsys):
    lpath, rpath = _write_heis_rep(tmp_path)
    code, out, _ = run_cli(capsys, "rep", "cocycle", "-L", str(lpath),
                           "-r", str(rpath), "--json")
    assert code == 0
    assert form_from_json(json.loads(out)["alpha"]).entry(0, 1) == Scalar(1)

    spath = tmp_path / "sigma.json"
    spath.write_text(json.dumps({"v": ["2", "0", "1/3"]}))
    tpath = tmp_path / "twisted.json"
    code, out, _ = run_cli(capsys, "rep", "twist", "-r", str(rpath),
                           "--sigma", str(spath), "-L", str(lpath),
                           "-o", str(tpath))
    assert code == 0
    twisted = json.loads(tpath.read_text())
    # alpha(X,Y) moved by sigma(Z) = 1/3
    assert twisted["alpha"]["upper"][0][0] == "4/3"

    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}))
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps({"v": ["-2", "0", "-1/3"]}))
    code, out, _ = run_cli(capsys, "rep", "verify-equiv", "-r1", str(rpath),
                           "-r2", str(tpath), "--f", str(fpath),
                           "--delta", str(dpath), "-L", str(lpath))
    assert code == 0
    assert "ok: true" in out


def test_rep_twist_without_algebra(tmp_path, capsys):
    _, rpath = _write_heis_rep(tmp_path)
    spath = tmp_path / "sigma.json"
    spath.write_text(json.dumps({"v": ["1", "0", "0"]}))
    code, out, _ = run_cli(capsys, "rep", "twist", "-r", str(rpath),
                           "--sigma", str(spath), "--json")
    assert code == 0
    doc = json.loads(out)["rep"]
    assert doc["alpha"] is None
    assert doc["matrices"][0][0][0] == "-1"


def test_domain_error_exit_code_and_json(capsys):
    code, out, err = run_cli(capsys, "group", "make", "--preset", "nosuch")
    assert code == 1
    assert "error: UnknownPreset" in err
    code, out, err = run_cli(capsys, "group", "make", "--preset", "nosuch",
                             "--json")
    assert code == 1
    assert json.loads(out) == {"error": "UnknownPreset", "witness": "nosuch"}


def test_missing_file_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "extension", "split", "-e", "no-such.json")
    assert code == 1
    assert "FileNotFound" in err


@pytest.mark.parametrize("raw,line,column", [
    (b'{"dim": 2, "brackets": [', 1, 25),
    (b'{"dim": 2,\n "labels": ["\xff"]}', 2, 14),
], ids=["truncated", "not-utf8"])
def test_malformed_document_is_domain_error(tmp_path, capsys, raw, line, column):
    path = tmp_path / "L.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "cohomology", "h2", "-L", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: BadDocument: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "cohomology", "h2", "-L", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"error": "BadDocument",
                               "witness": [str(path), line, column]}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["group", "bogus"])
    assert exc.value.code == 2


def test_verify_all_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-group-order", "9",
                           "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 10
    assert lines[-1] == "10/10 criteria passed"


def test_verify_all_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "all", "--max-group-order", "9",
                             "--seed", "7", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "all", "--max-group-order", "9",
                             "--seed", "7", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_passed"]


def test_console_entry_point(tmp_path):
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(plesken.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    result = subprocess.run(
        [sys.executable, "-m", "plesken.cli", "group", "make",
         "--preset", "cyclic", "--n", "5", "--json"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert result.returncode == 0
    assert json.loads(result.stdout)["order"] == 5
