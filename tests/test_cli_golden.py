"""Byte-for-byte stdout of every CLI verb on small fixtures.

Each case runs one verb in-process, in text form and with ``--json``, and
compares stdout with ``tests/golden/<case>.txt`` and ``<case>.json``.  The
golden files are the reference output; a change that alters any output byte
fails here, so a refactor can be checked against them unchanged.
"""

from __future__ import annotations

import json
import os

import pytest

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
    "rep": REP,
    "a01": {"dim": 3, "upper": [["1", "0"], ["0"]]},
    "a02": {"dim": 3, "upper": [["0", "1"], ["0"]]},
    "a02b": {"dim": 3, "upper": [["5", "1"], ["0"]]},
    "a12": {"dim": 3, "upper": [["0", "0"], ["1"]]},
    "sigma": {"v": ["2", "0", "1/3"]},
    "delta": {"v": ["-2", "0", "-1/3"]},
    "f_id": {"matrix": [["1", "0"], ["0", "1"]]},
    "f_shear": {"matrix": [["1", "0"], ["1+I", "1"]]},
}

# (case, argv with {name} placeholders for the fixture files)
CASES = [
    ("group_make_q8", "group make --preset quaternion8"),
    ("algebra_plesken_heis27", "algebra plesken -g {heis27_group}"),
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
]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {name: str(root / f"{name}.json") for name in DOCS}
    for name, doc in DOCS.items():
        with open(out[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    for name in ("e01", "e02", "e02b", "e12", "twisted", "heis27_group",
                 "e25_group", "L_heis27", "L_e25"):
        out[name] = str(root / f"{name}.json")
    builds = [
        f"group make --preset heisenberg_p --n 3 -o {out['heis27_group']}",
        f"group make --preset elementary_abelian_p2 --n 5 -o {out['e25_group']}",
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
