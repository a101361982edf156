"""Byte-for-byte stdout of every CLI verb on small fixtures.

Each case runs one verb in-process, in text form and with ``--json``, and
compares stdout with ``tests/golden/<case>.txt`` and ``<case>.json``.  The
golden files are the reference output; a change that alters any output byte
fails here, so a refactor can be checked against them unchanged.  The error
cases exit 1; their text golden is the one stderr line and their ``--json``
golden the stdout document with the witness.
"""

from __future__ import annotations

import json
import os

import pytest

from plesken import cli
from plesken.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

HEIS3 = {"dim": 3, "labels": ["X", "Y", "Z"],
         "brackets": [{"i": 0, "j": 1, "c": ["0", "0", "1"]}]}
REP = {"dim": 3, "degree": 2,
       "matrices": [[["0", "1"], ["0", "0"]],
                    [["0", "0"], ["0", "0"]],
                    [["-1", "0"], ["0", "-1"]]],
       "alpha": {"dim": 3, "upper": [["1", "0"], ["0"]]}}
DOCS = {
    "heis3": HEIS3,
    "dim0": {"dim": 0},
    "rep": REP,
    "a01": {"dim": 3, "upper": [["1", "0"], ["0"]]},
    "a02": {"dim": 3, "upper": [["0", "1"], ["0"]]},
    "a02b": {"dim": 3, "upper": [["5", "1"], ["0"]]},
    "a12": {"dim": 3, "upper": [["0", "0"], ["1"]]},
    "sigma": {"v": ["2", "0", "1/3"]},
    "delta": {"v": ["-2", "0", "-1/3"]},
    "f_id": {"matrix": [["1", "0"], ["0", "1"]]},
    "f_shear": {"matrix": [["1", "0"], ["1+I", "1"]]},
    "f_singular": {"matrix": [["1", "1/2"], ["2", "1"]]},
    # [X, Y] - Z = diag(-1/3 + 1/2 I, -1/2 I): scalar at (0,0), not at (1,1)
    "rep_nonscalar": {"dim": 3, "degree": 2,
                      "matrices": [[["0", "1/2"], ["0", "0"]],
                                   [["0", "0"], ["I", "0"]],
                                   [["1/3", "0"], ["0", "0"]]],
                      "alpha": None},
    # alpha(0,1) and alpha(0,2) hold, alpha(1,2) = 1 does not
    "rep_wrong_alpha": {**REP, "alpha": {"dim": 3, "upper": [["1", "0"], ["1"]]}},
}

# (case, argv with {name} placeholders for the fixture files)
CASES = [
    ("group_make_q8", "group make --preset quaternion8"),
    # the trivial group: L(C1) = 0, semisimple by Cartan's criterion vacuously
    ("group_make_c1", "group make --preset cyclic --n 1"),
    ("algebra_plesken_c1", "algebra plesken -g {c1_group}"),
    ("h2_dim0", "cohomology h2 -L {dim0}"),
    ("algebra_plesken_heis27", "algebra plesken -g {heis27_group}"),
    ("algebra_plesken_q8", "algebra plesken -g {q8_group}"),
    ("h2_heis3", "cohomology h2 -L {heis3}"),
    ("h2_heis27", "cohomology h2 -L {L_heis27}"),
    ("h2_e25", "cohomology h2 -L {L_e25}"),
    ("extension_build", "extension build -L {heis3} --alpha {a02b}"),
    ("extension_cocycle", "extension cocycle -e {e02b}"),
    ("extension_equiv_true", "extension equiv -e1 {e02} -e2 {e02b}"),
    ("extension_equiv_false", "extension equiv -e1 {e02} -e2 {e12}"),
    ("extension_split_true", "extension split -e {e01}"),
    ("extension_split_false", "extension split -e {e02}"),
    ("rep_cocycle", "rep cocycle -L {heis3} -r {rep}"),
    ("rep_twist_with_algebra", "rep twist -r {rep} --sigma {sigma} -L {heis3}"),
    ("rep_twist_without_algebra", "rep twist -r {rep} --sigma {sigma}"),
    ("rep_verify_equiv_with_algebra",
     "rep verify-equiv -r1 {rep} -r2 {twisted} --f {f_id} --delta {delta} -L {heis3}"),
    ("rep_verify_equiv_without_algebra",
     "rep verify-equiv -r1 {rep} -r2 {twisted} --f {f_shear} --delta {delta}"),
    # delta has the wrong sign, so the witness fails where it is nonzero
    ("rep_verify_equiv_failing",
     "rep verify-equiv -r1 {rep} -r2 {twisted} --f {f_shear} --delta {sigma} -L {heis3}"),
    ("verify_all", "verify all --max-group-order 24 --seed 7"),
]

# (case, argv): verbs that exit 1 with a domain error
ERROR_CASES = [
    ("rep_cocycle_defect_not_scalar", "rep cocycle -L {heis3} -r {rep_nonscalar}"),
    ("rep_cocycle_bad_alpha", "rep cocycle -L {heis3} -r {rep_wrong_alpha}"),
    ("rep_verify_equiv_singular_f",
     "rep verify-equiv -r1 {rep} -r2 {twisted} --f {f_singular} --delta {delta} -L {heis3}"),
]


def build_paths(root) -> dict:
    """Write every fixture document under ``root``; return name -> path."""
    out = {name: str(root / f"{name}.json") for name in DOCS}
    for name, doc in DOCS.items():
        with open(out[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    for name in ("e01", "e02", "e02b", "e12", "twisted", "heis27_group",
                 "e25_group", "q8_group", "c1_group", "L_heis27", "L_e25"):
        out[name] = str(root / f"{name}.json")
    builds = [
        f"group make --preset heisenberg_p --n 3 -o {out['heis27_group']}",
        f"group make --preset elementary_abelian_p2 --n 5 -o {out['e25_group']}",
        f"group make --preset quaternion8 -o {out['q8_group']}",
        f"group make --preset cyclic --n 1 -o {out['c1_group']}",
        f"algebra plesken -g {out['heis27_group']} -o {out['L_heis27']}",
        f"algebra plesken -g {out['e25_group']} -o {out['L_e25']}",
        f"rep twist -r {out['rep']} --sigma {out['sigma']} -L {out['heis3']} "
        f"-o {out['twisted']}",
    ] + [f"extension build -L {out['heis3']} --alpha {out[alpha]} -o {out[ext]}"
         for ext, alpha in (("e01", "a01"), ("e02", "a02"), ("e02b", "a02b"),
                            ("e12", "a12"))]
    for argv in builds:
        assert main(argv.split()) == 0
    return out


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return build_paths(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case,argv", CASES, ids=[c for c, _ in CASES])
def test_stdout_matches_golden(case, argv, as_json, paths, capsys):
    capsys.readouterr()
    args = argv.format(**paths).split() + (["--json"] if as_json else [])
    assert main(args) == 0
    got = capsys.readouterr().out
    name = f"{case}.json" if as_json else f"{case}.txt"
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        assert got == handle.read()


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case,argv", ERROR_CASES, ids=[c for c, _ in ERROR_CASES])
def test_error_output_matches_golden(case, argv, as_json, paths, capsys):
    capsys.readouterr()
    args = argv.format(**paths).split() + (["--json"] if as_json else [])
    assert main(args) == 1
    captured = capsys.readouterr()
    got = captured.out if as_json else captured.err
    assert (captured.err if as_json else captured.out) == ""
    name = f"{case}.json" if as_json else f"{case}.txt"
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        assert got == handle.read()


def _materialised(doc):
    """``doc`` with every container the writer walks made a dict or a list."""
    if isinstance(doc, dict):
        return {key: _materialised(value) for key, value in doc.items()}
    if doc is None or isinstance(doc, (str, int)):
        return doc
    return list(doc)


def _lazy(doc):
    """``doc`` with every list the writer walks made an iterator."""
    if isinstance(doc, dict):
        return {key: _lazy(value) for key, value in doc.items()}
    return iter(doc) if isinstance(doc, list) else doc


@pytest.mark.parametrize("case,argv,code", [(c, a, 0) for c, a in CASES]
                         + [(c, a, 1) for c, a in ERROR_CASES],
                         ids=[c for c, _ in CASES + ERROR_CASES])
def test_json_writer_prints_what_json_dumps_prints(case, argv, code, paths, capsys,
                                                   monkeypatch):
    # each document is materialised, then written with every list it walks
    # turned into an iterator: the writer takes any iterable as a list, and
    # prints the bytes of one json.dumps of the whole document
    docs = []
    write_json = cli._write_json

    def spy(doc):
        docs.append(_materialised(doc))
        write_json(_lazy(docs[-1]))

    monkeypatch.setattr(cli, "_write_json", spy)
    capsys.readouterr()
    assert main(argv.format(**paths).split() + ["--json"]) == code
    got = capsys.readouterr().out
    assert len(docs) == 1
    assert got == json.dumps(docs[0], sort_keys=True, separators=(",", ":")) + "\n"
    with open(os.path.join(GOLDEN, f"{case}.json"), encoding="utf-8") as handle:
        assert got == handle.read()
