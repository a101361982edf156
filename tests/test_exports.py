"""The dead-export guard: every public module-level function or class of the
library, and every public method of a public class, is referenced by some
other code of the library, or is named in :data:`DOCUMENTED`.

A reference is read anywhere in a module of ``plesken`` other than
``__init__.py``, whose table of exports is not a use.  A function or class is
referenced by a bare name or an attribute of that name.  A method is
referenced only by an attribute ``x.name`` whose receiver ``x`` is not an
imported module, so ``operator.mul`` or a parameter ``mul`` is no use of a
method ``mul``; a method still shares its references with every other
attribute of that name, so :data:`SHARED` pins the method names that several
public classes define, :data:`FIELDS` the method names that are also fields
of a record or a namedtuple or attributes set by assignment, and
:data:`SHADOWED` lists the documented methods that another attribute of the
same name hides from the guard.
"""

from __future__ import annotations

import ast
import pathlib

import plesken

PACKAGE = pathlib.Path(plesken.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# public API kept on purpose with no caller in the library: README documents
# each of them as something the package computes or builds
DOCUMENTED = ("bracket", "killing_form", "from_permutation_generators", "Subspace.contains",
              "Scalar.im")
# documented methods the guard sees as called because another attribute
# shares the name: ``Scalar.im`` with the ``im`` field of projreps' packed
# Gaussian matrices
SHADOWED = ("Scalar.im",)
# public method names defined by more than one public class; a reference to
# any of them counts for all, so a new one is checked by hand before it joins
SHARED = ("dim", "is_zero", "zero")
# public method names that equal an annotated field of a ``Record`` subclass,
# a namedtuple field or an attribute set by assignment; a read of the field
# counts as a call of the method, so a new one is checked by hand before it
# joins
FIELDS = ("algebra", "dim", "im", "re")


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def _fields(tree: ast.Module):
    """The annotated fields of the classes deriving from ``Record``, the
    fields named in a ``namedtuple("Name", "field ...")`` call, and every
    attribute set by assignment, ``x.name = ...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
            yield from (item.target.id for item in node.body if isinstance(item, ast.AnnAssign))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "namedtuple"):
            yield from node.args[1].value.replace(",", " ").split()
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def _modules(tree: ast.Module) -> set[str]:
    """The names a module binds to imported modules: ``import m``, ``import m
    as n`` and ``from . import m``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module is None):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _uncalled(sources: list[tuple[str, str]]) -> list[str]:
    """The public definitions of ``sources``, (file name, text) pairs, that
    have no reference."""
    defined, names, methods = [], set(), set()
    for filename, text in sources:
        tree = ast.parse(text)
        defined += _public_definitions(tree)
        if filename != "__init__.py":
            modules = _modules(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                    if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                        methods.add(node.attr)
    return [name for name in defined
            if (name.split(".")[1] not in methods if "." in name else name not in names)]


def _sources() -> list[tuple[str, str]]:
    return [(path.name, path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))]


def test_every_public_name_has_a_caller_or_is_documented():
    # a name that gains a caller leaves DOCUMENTED too, so the tuple stays exact
    sources = _sources()
    defined = {name for _, text in sources for name in _public_definitions(ast.parse(text))}
    assert set(DOCUMENTED) <= defined
    expected = [name for name in DOCUMENTED if name not in SHADOWED]
    assert sorted(_uncalled(sources)) == sorted(expected)


def test_method_names_shared_by_public_classes_are_pinned():
    owners: dict[str, set[str]] = {}
    for _, text in _sources():
        for name in _public_definitions(ast.parse(text)):
            if "." in name:
                cls, method = name.split(".")
                owners.setdefault(method, set()).add(cls)
    assert sorted(m for m, classes in owners.items() if len(classes) > 1) == sorted(SHARED)


def test_method_names_that_are_also_fields_are_pinned():
    trees = [ast.parse(text) for _, text in _sources()]
    fields = {name for tree in trees for name in _fields(tree)}
    methods = {name.split(".")[1] for tree in trees
               for name in _public_definitions(tree) if "." in name}
    assert {"den", "terms", "total", "split"} <= fields
    # attributes set by assignment: an error's witness, a subspace's ambient
    # dimension and a scalar's real numerator
    assert {"witness", "ambient_dim", "a"} <= fields
    assert sorted(methods & fields) == sorted(FIELDS)


def test_a_module_attribute_or_a_bare_name_is_no_use_of_a_method():
    source = """
import operator
from . import linalg

class Group:
    def mul(self): ...
    def rank(self): ...
    def label(self): ...

def _product(mul, group):
    return Group, operator.mul, mul, linalg.rank, rank, group.label()
"""
    assert _uncalled([("groups.py", source)]) == ["Group.mul", "Group.rank"]
    # the table of exports in __init__.py is no use either
    assert _uncalled([("groups.py", source), ("__init__.py", "Group.mul\nGroup.rank\n")]) \
        == ["Group.mul", "Group.rank"]


def test_readme_names_each_documented_api():
    text = README.read_text(encoding="utf-8")
    for name in DOCUMENTED:
        assert f"`{name}`" in text, name
