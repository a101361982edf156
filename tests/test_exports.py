"""The dead-export guard: every public module-level function or class of the
library, and every public method of a public class, is referenced by some
other code of the library, or is named in :data:`DOCUMENTED`.

A reference is a name or an attribute read anywhere in a module of
``plesken`` other than ``__init__.py``, whose table of exports is not a use.
Methods are matched by attribute name alone, so a method shares its
references with every other attribute of that name.
"""

from __future__ import annotations

import ast
import pathlib

import plesken

PACKAGE = pathlib.Path(plesken.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# public API kept on purpose with no caller in the library: README documents
# each of them as something the package computes or builds
DOCUMENTED = ("bracket", "killing_form", "from_permutation_generators", "Subspace.contains")


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def _uncalled() -> list[str]:
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += _public_definitions(tree)
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return [name for name in defined if name.rsplit(".", 1)[-1] not in used]


def test_every_public_name_has_a_caller_or_is_documented():
    # a name that gains a caller leaves DOCUMENTED too, so the tuple stays exact
    assert sorted(_uncalled()) == sorted(DOCUMENTED)


def test_readme_names_each_documented_api():
    text = README.read_text(encoding="utf-8")
    for name in DOCUMENTED:
        assert f"`{name}`" in text, name
