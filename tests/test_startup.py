"""What a process loads: each CLI verb imports only the modules it runs, and
``import plesken`` resolves its exported names on first access.

The module sets are read in a fresh ``python3 -S`` interpreter without a
bytecode cache, as a CLI process or a benchmark worker starts.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys

import pytest

import plesken
from test_cli_golden import CASES, GOLDEN, build_paths

SRC = os.path.dirname(os.path.dirname(os.path.abspath(plesken.__file__)))

# runs ``plesken.cli.main(argv)`` and writes the plesken modules it loaded,
# and which of the standard modules WATCHED it loaded, to the file named first
PROBE = """
import sys
sys.path.insert(0, {src!r})
import plesken.cli
report, argv = sys.argv[1], sys.argv[2:]
code = 0
if argv:
    try:
        code = plesken.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
with open(report, "w") as handle:
    handle.write(repr((code, sorted(m for m in sys.modules if m.split(".")[0] == "plesken"),
                       [m for m in {watched!r} if m in sys.modules])))
"""

# ``random`` is for ``verify all`` alone; the package imports none of the rest:
# ``dataclasses``, ``inspect`` and ``typing`` cost about a fifth of ``import
# plesken.cli``, and ``importlib`` would hide the lazy loads from ``-X importtime``
WATCHED = ("dataclasses", "importlib", "inspect", "random", "typing")

CORE = ["plesken", "plesken.cli", "plesken.cohomology", "plesken.errors",
        "plesken.liealg", "plesken.linalg", "plesken.scalars"]
EVERY = sorted(CORE + ["plesken.extensions", "plesken.groups", "plesken.projreps",
                       "plesken.verify"])


def _probe(tmp_path, argv: list) -> tuple:
    """(exit code, stdout, loaded plesken modules, loaded WATCHED modules) of
    one CLI call in a fresh interpreter."""
    report = tmp_path / "modules.txt"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(src=SRC, watched=WATCHED), str(report), *argv],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert "Traceback" not in result.stderr, result.stderr
    code, modules, watched = ast.literal_eval(report.read_text())
    return code, result.stdout, modules, watched


@pytest.mark.parametrize("argv,code", [([], 0), (["--help"], 0), (["group", "bogus"], 2)],
                         ids=["import", "help", "usage-error"])
def test_cli_start_up_loads_only_the_core(tmp_path, argv, code):
    got, _, modules, watched = _probe(tmp_path, argv)
    assert (got, modules, watched) == (code, CORE, [])


def test_importtime_reports_every_core_module(tmp_path):
    # a submodule loaded on first attribute access goes through the import
    # statement, so ``-X importtime`` lists it with the rest
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c",
         f"import sys; sys.path.insert(0, {SRC!r}); import plesken.cli"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path), check=True)
    reported = [line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert sorted(m for m in reported if m.split(".")[0] == "plesken") == CORE


# (golden case, the modules its verb family loads beyond the core)
FAMILIES = [
    ("group_make_q8", ["plesken.groups"]),
    ("algebra_plesken_q8", ["plesken.groups"]),
    ("h2_heis3", []),
    ("extension_equiv_true", ["plesken.extensions"]),
    ("rep_twist_with_algebra", ["plesken.projreps"]),
    ("verify_all", EVERY),
]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return build_paths(tmp_path_factory.mktemp("startup"))


@pytest.mark.parametrize("case,extra", FAMILIES, ids=[c for c, _ in FAMILIES])
def test_each_verb_loads_only_its_family(tmp_path, paths, case, extra):
    argv = dict(CASES)[case].format(**paths).split()
    code, stdout, modules, watched = _probe(tmp_path, argv)
    assert code == 0
    assert modules == sorted(set(CORE + extra))
    assert watched == (["random"] if case == "verify_all" else [])
    with open(os.path.join(GOLDEN, f"{case}.txt"), encoding="utf-8") as handle:
        assert stdout == handle.read()


def test_import_plesken_loads_no_submodule():
    # the first access to h2 loads cohomology and what it imports; a submodule
    # that holds exported names resolves as an attribute
    script = (f"import sys; sys.path.insert(0, {SRC!r}); import plesken; "
              "loaded = lambda: sorted(m for m in sys.modules if m.startswith('plesken')); "
              "before = loaded(); plesken.h2; "
              "print(repr((before, loaded(), plesken.groups.__name__)))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, env=env, check=True).stdout
    before, after_h2, groups = ast.literal_eval(out)
    assert before == ["plesken"]
    assert after_h2 == [m for m in CORE if m != "plesken.cli"]
    assert groups == "plesken.groups"


# the names plesken/__init__.py exports, by defining submodule
EXPORTS = {
    "scalars": ["I", "ONE", "ZERO", "Scalar"],
    "groups": [
        "FiniteGroup",
        "from_cayley_table",
        "from_permutation_generators",
        "group_from_json",
        "group_to_json",
        "preset",
        "self_inverse_count",
    ],
    "liealg": [
        "GroupAlgebraElement",
        "LieAlgebra",
        "PleskenBasis",
        "algebra_from_json",
        "algebra_to_json",
        "bracket",
        "center",
        "derived_subalgebra",
        "from_structure_constants",
        "group_algebra_commutator",
        "hat_element",
        "is_semisimple",
        "killing_form",
        "plesken_algebra",
        "verify_lie_axioms",
    ],
    "linalg": ["Subspace"],
    "cohomology": [
        "BilinearForm",
        "H2Result",
        "LinearFunctional",
        "are_cohomologous",
        "b2_basis",
        "coboundary",
        "form_from_json",
        "form_to_json",
        "functional_from_json",
        "h2",
        "is_cocycle",
        "z2_basis",
    ],
    "extensions": [
        "CentralExtension",
        "SplitResult",
        "cocycle_from_extension",
        "equivalence_map",
        "extension_from_cocycle",
        "extension_from_json",
        "extension_to_json",
        "find_section",
        "is_split",
        "verify_central_extension",
        "verify_equivalence_map",
    ],
    "projreps": [
        "EquivalenceReport",
        "ProjectiveRep",
        "cocycle_from_rep",
        "cohomologous_witness_from_equivalence",
        "lift_linear",
        "projective_rep",
        "rep_from_json",
        "rep_to_json",
        "twist",
        "verify_projective_equivalence",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_exported_name_is_the_submodule_attribute(module, name):
    assert getattr(plesken, name) is getattr(importlib.import_module(f"plesken.{module}"), name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from plesken import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {name for _, name in NAMES} | {"errors"}
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"plesken.{module}"), name)
    assert namespace["errors"] is plesken.errors


def test_dir_lists_every_export():
    listed = dir(plesken)
    assert {name for _, name in NAMES} | {"errors", "__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(plesken, "no_such_name")
    assert not hasattr(plesken, "no_such_name")


def test_errors_is_the_module():
    assert plesken.errors is sys.modules["plesken.errors"]
    assert plesken.errors.BadDocument.__module__ == "plesken.errors"
    assert plesken.__version__ == "0.1.0"
