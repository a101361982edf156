from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import plesken
from plesken import cli
from plesken.cli import main
from plesken.cohomology import BilinearForm, form_from_json, form_to_json
from plesken.extensions import (
    extension_from_cocycle,
    extension_from_json,
    extension_to_json,
)
from plesken.groups import group_from_json, preset
from plesken.liealg import algebra_from_json, algebra_to_json, plesken_algebra
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


@pytest.mark.parametrize("raw", [
    b"[]", b"3", b'"x"', b"null", None,
    b'{"labels": []}', b'{"dim": "x"}', b'{"dim": 1e999}',
    b'{"dim": 2, "brackets": [{"i": 0, "j": 1}]}',
    b'{"dim": 2, "brackets": [{"i": 0, "j": 1, "c": "ab"}]}',
    b'{"dim": 2, "brackets": [{"i": 0, "j": 1, "c": ["1/0", "0"]}]}',
    b'{"dim": 2, "brackets": [{"i": 0, "j": 1, "c": [1, 0]}]}',
], ids=["array", "number", "string", "null", "directory", "no-dim", "dim-not-int",
        "dim-infinite", "no-c", "c-string", "zero-denominator", "scalar-number"])
def test_unreadable_or_non_object_document_is_domain_error(tmp_path, capsys, raw):
    path = tmp_path / "L.json"
    if raw is None:
        path.mkdir()
    else:
        path.write_bytes(raw)
    code, out, err = run_cli(capsys, "cohomology", "h2", "-L", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: BadDocument: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "cohomology", "h2", "-L", str(path), "--json")
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out) == {"error": "BadDocument", "witness": [str(path)]}


@pytest.mark.parametrize("table", [
    [[0.0, 1.9], [1.2, 0.4]], [[False, True], [True, False]], [["0", "1"], ["1", "0"]],
], ids=["float", "bool", "string"])
def test_non_integer_group_table_is_domain_error(tmp_path, capsys, table):
    path = tmp_path / "G.json"
    path.write_text(json.dumps({"table": table}))
    code, out, err = run_cli(capsys, "algebra", "plesken", "-g", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: BadDocument: ") and err.count("\n") == 1
    assert "table[0][0]" in err
    code, out, err = run_cli(capsys, "algebra", "plesken", "-g", str(path), "--json")
    assert code == 1
    assert out == json.dumps({"error": "BadDocument", "witness": [str(path)]},
                             separators=(",", ":")) + "\n"


def test_non_associative_group_names_first_triple(tmp_path, capsys):
    path = tmp_path / "G.json"
    path.write_text(json.dumps({"table": [
        [0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}))
    code, out, err = run_cli(capsys, "algebra", "plesken", "-g", str(path))
    assert (code, out) == (1, "")
    assert err == "error: NotAssociative: (1*1)*2 != 1*(1*2)\n"
    code, out, err = run_cli(capsys, "algebra", "plesken", "-g", str(path), "--json")
    assert code == 1
    assert out == '{"error":"NotAssociative","witness":[1,1,2]}\n'


def test_broken_s5_names_the_first_failing_triple(tmp_path, capsys):
    # one entry of L(S5) changed, on a pair that holds no generator of the
    # Jacobi certificate: the read still names the lexicographically first
    # failing triple of the full walk, as it did when every triple was walked
    doc = algebra_to_json(plesken_algebra(preset("symmetric", 5))[0])
    entry = doc["brackets"][-1]
    assert (entry["i"], entry["j"], entry["c"][1]) == (45, 46, "0")
    entry["c"][1] = "1"
    lpath, apath = tmp_path / "L.json", tmp_path / "alpha.json"
    lpath.write_text(json.dumps(doc))
    apath.write_text(json.dumps(form_to_json(BilinearForm.zero(47))))
    argv = ["extension", "build", "-L", str(lpath), "--alpha", str(apath)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: JacobiViolation: Jacobi identity fails on basis triple (0,34,45)\n"
    code, out, err = run_cli(capsys, *argv, "--json")
    residual = ["0"] * 47
    residual[1] = "1"
    assert (code, err) == (1, "")
    assert out == json.dumps({"error": "JacobiViolation", "witness": [0, 34, 45, residual]},
                             separators=(",", ":")) + "\n"


HEIS3_DOC = {"dim": 3, "labels": ["X", "Y", "Z"],
             "brackets": [{"i": 0, "j": 1, "c": ["0", "0", "1"]}]}
ALPHA_DOC = {"dim": 3, "upper": [["1", "0"], ["0"]]}
READER_DOCS = {
    "group": {"order": 3, "identity": 0, "labels": ["e", "a", "b"],
              "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    "algebra": HEIS3_DOC,
    "alpha": ALPHA_DOC,
    "extension": extension_to_json(extension_from_cocycle(
        algebra_from_json(HEIS3_DOC), form_from_json(ALPHA_DOC))),
    "rep": {"dim": 3, "degree": 2,
            "matrices": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]],
                         [["-1", "0"], ["0", "-1"]]],
            "alpha": ALPHA_DOC},
    "sigma": {"v": ["2", "0", "1/3"]},
    "f": {"matrix": [["1", "0"], ["1+I", "1"]]},
}
READER_VERBS = [
    "algebra plesken -g {group}",
    "cohomology h2 -L {algebra}",
    "extension build -L {algebra} --alpha {alpha}",
    "extension cocycle -e {extension}",
    "extension equiv -e1 {extension} -e2 {extension}",
    "extension split -e {extension}",
    "rep cocycle -L {algebra} -r {rep}",
    "rep twist -r {rep} --sigma {sigma} -L {algebra}",
    "rep twist -r {rep} --sigma {sigma}",
    "rep verify-equiv -r1 {rep} -r2 {rep} --f {f} --delta {sigma} -L {algebra}",
    "rep verify-equiv -r1 {rep} -r2 {rep} --f {f} --delta {sigma}",
]


def _key_paths(value, prefix=()):
    """Every dict key and list index path inside a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


# small numbers only: a huge finite "dim" is a cost question, not a decoding one
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4)
    | st.sampled_from([float("inf"), float("-inf"), float("nan")])
    | st.text(max_size=4) | st.sampled_from(["1/0", "ab", "1/2+I", "-I", " "]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=8)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", READER_VERBS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_any_value_under_any_document_key_is_one_line(verb, tmp_path_factory, data):
    root = tmp_path_factory.mktemp("docs")
    names = sorted({name for name in READER_DOCS if "{" + name + "}" in verb})
    name = data.draw(st.sampled_from(names), label="document")
    doc = json.loads(json.dumps(READER_DOCS[name]))
    path = data.draw(st.sampled_from(list(_key_paths(doc))), label="key path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans(), label="drop key"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")
    paths = {}
    for other in names:
        paths[other] = str(root / f"{other}.json")
        with open(paths[other], "w", encoding="utf-8") as handle:
            json.dump(doc if other == name else READER_DOCS[other], handle)
    argv = verb.format(**paths).split()

    code, out, err = _run_main(argv + ["--json"])
    assert code in (0, 1) and err == "" and out.count("\n") == 1
    reply = json.loads(out)
    assert code == 0 or set(reply) == {"error", "witness"}
    code, out, err = _run_main(argv)
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _raw_document(name):
    """Arbitrary bytes, or a prefix of the valid document ``name``."""
    valid = json.dumps(READER_DOCS[name]).encode("utf-8")
    return st.binary(max_size=40) | st.integers(0, len(valid)).map(lambda k: valid[:k])


@pytest.mark.parametrize("verb", READER_VERBS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_any_bytes_as_a_document_are_one_line(verb, tmp_path_factory, data):
    root = tmp_path_factory.mktemp("raw")
    names = sorted({name for name in READER_DOCS if "{" + name + "}" in verb})
    name = data.draw(st.sampled_from(names), label="document")
    raw = data.draw(_raw_document(name), label="bytes")
    paths = {}
    for other in names:
        paths[other] = str(root / f"{other}.json")
        with open(paths[other], "wb") as handle:
            handle.write(raw if other == name
                         else json.dumps(READER_DOCS[other]).encode("utf-8"))
    argv = verb.format(**paths).split()

    code, out, err = _run_main(argv + ["--json"])
    assert code in (0, 1) and err == "" and out.count("\n") == 1
    assert code == 0 or set(json.loads(out)) == {"error", "witness"}
    code, out, err = _run_main(argv)
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _assert_bad_document(tmp_path, capsys, verb, name, doc, message):
    """``verb`` with ``doc`` as its document ``name`` exits 1 with a
    ``BadDocument`` that holds ``message``, witness the document's path."""
    paths = {}
    for other in READER_DOCS:
        paths[other] = str(tmp_path / f"{other}.json")
        with open(paths[other], "w", encoding="utf-8") as handle:
            json.dump(doc if other == name else READER_DOCS[other], handle)
    argv = verb.format(**paths).split()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: BadDocument: ") and err.count("\n") == 1
    assert message in err
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out) == {"error": "BadDocument", "witness": [paths[name]]}


# readers take JSON integers only: a float is not truncated, a bool not coerced
NON_INTEGER_FIELDS = [
    ("cohomology h2 -L {algebra}", "algebra",
     {"dim": 2.9, "brackets": [{"i": 0.7, "j": True, "c": ["0", "0"]}]}),
    ("cohomology h2 -L {algebra}", "algebra", {**HEIS3_DOC, "dim": 3.0}),
    ("cohomology h2 -L {algebra}", "algebra", {**HEIS3_DOC, "brackets": [
        {"i": 0, "j": True, "c": ["0", "0", "1"]}]}),
    ("extension build -L {algebra} --alpha {alpha}", "alpha", {**ALPHA_DOC, "dim": 3.0}),
    ("extension build -L {algebra} --alpha {alpha}", "alpha", {"dim": True}),
    ("rep cocycle -L {algebra} -r {rep}", "rep", {**READER_DOCS["rep"], "degree": 2.0}),
    ("rep cocycle -L {algebra} -r {rep}", "rep", {**READER_DOCS["rep"], "dim": 3.0}),
    ("rep twist -r {rep} --sigma {sigma}", "rep", {**READER_DOCS["rep"], "dim": 3.0}),
]


@pytest.mark.parametrize("verb,name,doc", NON_INTEGER_FIELDS, ids=[
    "float-dim-and-index", "algebra-float-dim", "bool-index", "form-float-dim", "form-bool-dim",
    "rep-float-degree", "rep-float-dim", "rep-float-dim-no-algebra"])
def test_non_integer_document_field_is_domain_error(tmp_path, capsys, verb, name, doc):
    _assert_bad_document(tmp_path, capsys, verb, name, doc, "is not an integer")


# a string where an array belongs is not read one character at a time
STRING_FOR_ARRAY = [
    ("cohomology h2 -L {algebra}", "algebra",
     {**HEIS3_DOC, "brackets": [{"i": 0, "j": 1, "c": "001"}]}),
    ("cohomology h2 -L {algebra}", "algebra", {**HEIS3_DOC, "labels": "XYZ"}),
    ("algebra plesken -g {group}", "group", {**READER_DOCS["group"], "labels": "eab"}),
    ("extension build -L {algebra} --alpha {alpha}", "alpha", {"dim": 3, "upper": ["10", "0"]}),
    ("rep twist -r {rep} --sigma {sigma}", "sigma", {"v": "201"}),
    ("rep cocycle -L {algebra} -r {rep}", "rep", {**READER_DOCS["rep"], "matrices": [
        ["01", "00"], *READER_DOCS["rep"]["matrices"][1:]]}),
    ("extension cocycle -e {extension}", "extension",
     {**READER_DOCS["extension"], "f": "0001"}),
    ("extension cocycle -e {extension}", "extension",
     {**READER_DOCS["extension"], "g": ["1000", "0100", "0010"]}),
    ("rep verify-equiv -r1 {rep} -r2 {rep} --f {f} --delta {sigma}", "f",
     {"matrix": ["10", "01"]}),
]


@pytest.mark.parametrize("verb,name,doc", STRING_FOR_ARRAY, ids=[
    "bracket-c", "algebra-labels", "group-labels", "upper-rows", "functional-v",
    "rep-matrix-rows", "extension-f", "extension-g-rows", "f-matrix-rows"])
def test_string_for_an_array_is_domain_error(tmp_path, capsys, verb, name, doc):
    _assert_bad_document(tmp_path, capsys, verb, name, doc, "is not an array")


# a label that is not a string is not coerced by str() into a name or a repr
NON_STRING_LABELS = [
    ("cohomology h2 -L {algebra}", "algebra", {"dim": 2, "labels": [1, {"x": 2}]}),
    ("extension build -L {algebra} --alpha {alpha}", "algebra",
     {"dim": 2, "labels": [1, {"x": 2}]}),
    ("algebra plesken -g {group}", "group",
     {**READER_DOCS["group"], "labels": [1, {"a": 1}, None]}),
]


@pytest.mark.parametrize("verb,name,doc", NON_STRING_LABELS, ids=[
    "h2-algebra-labels", "build-algebra-labels", "group-labels"])
def test_non_string_label_is_domain_error(tmp_path, capsys, verb, name, doc):
    _assert_bad_document(tmp_path, capsys, verb, name, doc, "labels entry 1 is not a string")


@pytest.mark.parametrize("entry,message,witness", [
    # the last entry for a pair does not silently win, even when it is zero
    ({"i": 0, "j": 1, "c": ["0", "0", "0"]}, "bracket (0,1) is given twice", "[0,1]"),
    ({"i": 0, "j": 2, "c": ["0", "1"]}, "bracket vector for (0,2) has length 2", "null"),
    ({"i": 2, "j": 1, "c": ["0", "0", "0"]},
     "bracket key (2,1) must satisfy 0 <= i < j < dim", "null"),
], ids=["given-twice", "wrong-length", "key-not-increasing"])
def test_bracket_pair_given_twice_is_domain_error(tmp_path, capsys, entry, message, witness):
    path = tmp_path / "L.json"
    path.write_text(json.dumps({**HEIS3_DOC, "brackets": HEIS3_DOC["brackets"] + [entry]}))
    code, out, err = run_cli(capsys, "cohomology", "h2", "-L", str(path))
    assert (code, out, err) == (1, "", f"error: BadParameter: {message}\n")
    code, out, err = run_cli(capsys, "cohomology", "h2", "-L", str(path), "--json")
    assert (code, out) == (1, f'{{"error":"BadParameter","witness":{witness}}}\n')


@pytest.mark.parametrize("key,value,failure", [
    ("f", ["0", "0", "1"], "injection has length 3, not 4"),
    ("g", [["1", "0", "0", "0"], ["0", "1", "0"], ["0", "0", "1", "0"]],
     "projection is not 3 x 4"),
    ("g", [["1", "0", "0", "0"], ["0", "1", "0", "0"]], "projection is not 3 x 4"),
    ("s", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
     "stored section is not 4 x 3"),
    ("s", [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]],
     "stored section is not 4 x 3"),
], ids=["f-short", "g-ragged", "g-short", "s-short", "s-narrow"])
def test_extension_shape_is_checked(tmp_path, capsys, key, value, failure):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({**READER_DOCS["extension"], key: value}))
    code, out, _ = run_cli(capsys, "extension", "cocycle", "-e", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"error": "DefectNotInKernel", "witness": [failure]}


def test_rep_degree_must_match_matrices(tmp_path, capsys):
    lpath, rpath = _write_heis_rep(tmp_path)
    rpath.write_text(json.dumps({**READER_DOCS["rep"], "degree": 5}))
    code, out, _ = run_cli(capsys, "rep", "cocycle", "-L", str(lpath),
                           "-r", str(rpath), "--json")
    assert code == 1
    assert json.loads(out)["error"] == "DimensionMismatch"
    code, _, err = run_cli(capsys, "rep", "cocycle", "-L", str(lpath), "-r", str(rpath))
    assert err == ("error: DimensionMismatch: document degree 5 does not match "
                   "2 x 2 matrices\n")


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


@pytest.mark.parametrize("name,n", [("heisenberg_p", "2305843009213693951"),
                                    ("cyclic", "10001")])
def test_group_make_past_the_order_cap_exits_1_at_once(tmp_path, name, n):
    # 2^61 - 1 is prime: testing it by trial division would not finish
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(plesken.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    result = subprocess.run(
        [sys.executable, "-m", "plesken", "group", "make", "--json",
         "--preset", name, "--n", n],
        capture_output=True, text=True, env=env, cwd=str(tmp_path), timeout=10)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "OrderLimitExceeded"
    assert "Traceback" not in result.stdout + result.stderr



def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    # a valid call, a usage error, --help and a golden case, one after another
    # in one process, each give the stdout, stderr and exit code they give
    # alone in a fresh interpreter, from one parser
    path = tmp_path / "heis3.json"
    path.write_text(json.dumps({"dim": 3, "labels": ["X", "Y", "Z"],
                                "brackets": [{"i": 0, "j": 1, "c": ["0", "0", "1"]}]}))
    calls = [["group", "make", "--preset", "cyclic", "--n", "5", "--json"],
             ["group", "bogus"],
             ["--help"],
             ["cohomology", "h2", "-L", str(path)]]
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(plesken.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir, COLUMNS="80")
    alone = [subprocess.run([sys.executable, "-m", "plesken", *argv], capture_output=True,
                            text=True, env=env, cwd=str(tmp_path))
             for argv in calls]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_PARSER", [])
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv, expected in zip(calls, alone):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (expected.returncode, expected.stdout, expected.stderr)
    assert [p.returncode for p in alone] == [0, 2, 0, 0]
    with open(os.path.join(os.path.dirname(__file__), "golden", "h2_heis3.txt"),
              encoding="utf-8") as handle:
        assert alone[3].stdout == handle.read()
    assert built == [1]


def _h2_into_a_closed_pipe(tmp_path, *flags, read=0, **environ):
    """Run `cohomology h2` on the zero-bracket algebra of dim 40 (C(40, 2) = 780
    representatives, 30 KB of text) with stdout a 4 KiB pipe, whose reader
    takes the first `read` bytes and closes it; return (exit code, the bytes
    read, stderr).  ``environ`` adds to the child's environment."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe size cannot be set on this platform")
    path = tmp_path / "abelian40.json"
    path.write_text('{"dim": 40}', encoding="utf-8")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(plesken.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir, **environ)
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "plesken", "cohomology", "h2", *flags, "-L", str(path)],
        stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=str(tmp_path))
    os.close(write_end)
    first = os.read(read_end, read) if read else b""
    os.close(read_end)
    stderr = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), first, stderr


def test_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # `plesken cohomology h2 -L abelian40.json | head -c 64`: the output is
    # far larger than the pipe and the stream buffers, so the writer is still
    # printing when the reader closes
    code, first, stderr = _h2_into_a_closed_pipe(tmp_path, read=64)
    head = b"Z2=780 B2=0 H2=780\nrepresentative 0:\n  alpha(0,1) = 1\nrepresentative 1:\n"
    assert first and head.startswith(first)
    assert (code, stderr) == (141, b"")


def test_json_into_a_closed_pipe_exits_141(tmp_path):
    # the JSON document is one write, into a pipe closed before it
    code, _, stderr = _h2_into_a_closed_pipe(tmp_path, "--json")
    assert (code, stderr) == (141, b"")


def test_unbuffered_json_cut_short_exits_141(tmp_path):
    # unbuffered, stdout writes to the raw pipe, where one write(2) of the
    # 2.5 MB document takes only what the 4 KiB pipe holds before its reader
    # closes it; the rest must still be written, so the run fails (141)
    # instead of exiting 0 with the document cut short
    code, first, stderr = _h2_into_a_closed_pipe(tmp_path, "--json", read=64,
                                                 PYTHONUNBUFFERED="1")
    assert first.startswith(b'{"b2":0,"h2":780,')
    assert (code, stderr) == (141, b"")
