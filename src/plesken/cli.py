"""Command-line front end.

Verbs mirror the library: ``group make``, ``algebra plesken``,
``cohomology h2``, ``extension build|cocycle|equiv|split``,
``rep cocycle|verify-equiv|twist``, and ``verify all``.  Output is aligned
text by default or canonical JSON with ``--json``; scalars always serialize
as exact strings, so identical inputs give byte-identical output.

Exit codes: 0 success, 1 domain error (one machine-parsable line), 2 usage,
141 when a write to stdout fails because its reader has closed it.

The module imports only the algebra core (``liealg``, ``cohomology`` and what
they import); each handler imports the rest of what its verb calls.  So a
process loads ``groups`` for ``group make`` and ``algebra plesken``,
``extensions`` for the ``extension`` verbs, ``projreps`` for the ``rep`` verbs
and every module for ``verify all``, and ``--help`` or a usage error loads the
core alone.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Sequence

# the algebra core, which every verb but ``group make`` runs
from .cohomology import (
    BilinearForm,
    _pairs,
    form_from_json,
    form_to_json,
    functional_from_json,
    h2,
)
from .errors import BadDocument, DimensionMismatch, DomainError, _json_int
from .liealg import (
    _json_matrix,
    algebra_from_json,
    algebra_to_json,
    center,
    derived_subalgebra,
    from_structure_constants,
    is_semisimple,
    plesken_algebra,
)


def _write_doc(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_doc(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise
    except OSError as err:
        raise BadDocument(f"{path}: {err.strerror}", witness=[path]) from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        column = err.start - raw.rfind(b"\n", 0, err.start)
        raise BadDocument(f"{path}: not UTF-8 at line {line} column {column}",
                          witness=[path, line, column]) from None
    except json.JSONDecodeError as err:
        raise BadDocument(f"{path}: {err.msg} at line {err.lineno} column {err.colno}",
                          witness=[path, err.lineno, err.colno]) from None
    if not isinstance(doc, dict):
        raise BadDocument(f"{path}: top-level value is not an object", witness=[path])
    return doc


def _load(path: str, reader, *args):
    """``reader(*args, doc)`` on the document at ``path``; a missing key or a
    value of the wrong type, shape or form is a :class:`BadDocument`."""
    doc = _read_doc(path)
    try:
        return reader(*args, doc)
    except KeyError as err:
        raise BadDocument(f"{path}: missing key {err}", witness=[path]) from None
    except (ValueError, TypeError, IndexError, OverflowError) as err:
        raise BadDocument(f"{path}: {err}", witness=[path]) from None


def _write(text: str) -> None:
    """Write ``text`` to stdout in full.  Unbuffered (``python -u``), stdout
    sits on the raw file, whose one write(2) into a pipe may take only part of
    the bytes, and the text layer drops that count; so write until every byte
    is taken, and a reader that has closed the pipe raises
    :class:`BrokenPipeError` on the next write."""
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[raw.write(data):]


# one C-encoder call per value, in the form of
# json.dumps(value, sort_keys=True, separators=(",", ":"))
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_chunks(doc):
    """The text of ``doc`` in pieces: a dict key by key in sorted order, any
    other container (a list, a tuple or any iterable) element by element,
    each element and each other value by one C-encoder call.  Keys are str,
    as in every document the CLI prints."""
    if isinstance(doc, dict):
        sep = "{"
        for key in sorted(doc):
            yield sep + _encode(key) + ":"
            yield from _json_chunks(doc[key])
            sep = ","
        yield "{}" if sep == "{" else "}"
    elif doc is None or isinstance(doc, (str, int, float)):
        yield _encode(doc)
    else:
        sep = "["
        for item in doc:
            yield sep + _encode(item)
            sep = ","
        yield "[]" if sep == "[" else "]"


def _write_json(doc) -> None:
    """Write ``doc`` to stdout as ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` and a newline, as it is encoded: the pieces of
    :func:`_json_chunks` go out in writes of at least
    ``io.DEFAULT_BUFFER_SIZE`` characters, the last excepted.  json's C
    encoder holds one str per value of a document until it joins them: on
    the 0.31 MiB ``cohomology h2 --json`` document of L(E49), json.dumps
    peaked 3.2 MiB above the 1.0 MiB of the document's text lists.  Here
    only one list element's strs live at a time, and a generator of
    elements is never held whole."""
    pending, size = [], 0
    for chunk in _json_chunks(doc):
        pending.append(chunk)
        size += len(chunk)
        if size >= io.DEFAULT_BUFFER_SIZE:
            _write("".join(pending))
            pending, size = [], 0
    pending.append("\n")
    _write("".join(pending))


def _emit(args, json_doc, text_lines) -> None:
    """Write ``json_doc`` with ``--json``, else each of the iterable
    ``text_lines``; either may be lazy, since only the one written is read."""
    if args.json:
        _write_json(json_doc)
    else:
        for line in text_lines:
            _write(line + "\n")


def _form_lines(form: BilinearForm) -> list[str]:
    lines = [f"alpha({i},{j}) = {v}" for (i, j), v in zip(_pairs(form.dim), form.flat) if v]
    return lines or ["zero form"]


def _load_rep(path: str, algebra=None):
    """Load a representation document; without an algebra, matrices are
    wrapped over a zero-bracket stand-in and any stored cocycle is ignored."""
    from .projreps import rep_from_json
    if algebra is None:
        return _load(path, lambda doc: rep_from_json(
            from_structure_constants(_json_int(doc, "dim"), {}), {**doc, "alpha": None}))
    return _load(path, rep_from_json, algebra)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_group_make(args) -> int:
    from .groups import group_to_json, preset, self_inverse_count
    group = preset(args.preset, args.n)
    doc = group_to_json(group)
    if args.output:
        _write_doc(args.output, doc)
    _emit(args, doc, [
        f"order        {group.order}",
        f"identity     {group.identity}",
        f"self-inverse {self_inverse_count(group)}",
        f"abelian      {str(group.is_abelian()).lower()}",
    ])
    return 0


def _cmd_algebra_plesken(args) -> int:
    from .groups import group_from_json
    group = _load(args.group, group_from_json)
    algebra, _ = plesken_algebra(group)
    doc = algebra_to_json(algebra)
    if args.output:
        _write_doc(args.output, doc)
    summary = {
        "dim": algebra.dim,
        "center_dim": center(algebra).dim,
        "derived_dim": derived_subalgebra(algebra).dim,
        "semisimple": is_semisimple(algebra),
    }
    _emit(args, {"algebra": doc, **summary}, [
        f"dim        {summary['dim']}",
        f"center     {summary['center_dim']}",
        f"derived    {summary['derived_dim']}",
        f"semisimple {str(summary['semisimple']).lower()}",
    ])
    return 0


def _cmd_cohomology_h2(args) -> int:
    algebra = _load(args.algebra, algebra_from_json)
    result = h2(algebra)
    # one representative's document or lines at a time
    _emit(args, {
        "z2": result.z2.dim,
        "b2": result.b2.dim,
        "h2": result.dimension,
        "representatives": map(form_to_json, result.representatives),
    }, _h2_lines(result))
    return 0


def _h2_lines(result):
    yield f"Z2={result.z2.dim} B2={result.b2.dim} H2={result.dimension}"
    for idx, rep in enumerate(result.representatives):
        yield f"representative {idx}:"
        for line in _form_lines(rep):
            yield "  " + line


def _cmd_extension_build(args) -> int:
    from .extensions import extension_from_cocycle, extension_to_json
    algebra = _load(args.algebra, algebra_from_json)
    alpha = _load(args.alpha, form_from_json)
    ext = extension_from_cocycle(algebra, alpha)
    doc = extension_to_json(ext)
    if args.output:
        _write_doc(args.output, doc)
    _emit(args, {"extension": doc}, [
        f"base dim  {ext.base.dim}",
        f"total dim {ext.total.dim}",
    ])
    return 0


def _cmd_extension_cocycle(args) -> int:
    from .extensions import cocycle_from_extension, extension_from_json, find_section
    ext = _load(args.extension, extension_from_json)
    alpha = cocycle_from_extension(ext, find_section(ext))
    doc = form_to_json(alpha)
    if args.output:
        _write_doc(args.output, doc)
    _emit(args, {"alpha": doc}, _form_lines(alpha))
    return 0


def _cmd_extension_equiv(args) -> int:
    from .extensions import equivalence_map, extension_from_json, verify_equivalence_map
    ext1 = _load(args.e1, extension_from_json)
    ext2 = _load(args.e2, extension_from_json)
    phi = equivalence_map(ext1, ext2)
    if phi is None:
        _emit(args, {"equivalent": False, "phi": None, "verified": None},
              ["equivalent: false"])
        return 0
    failures = verify_equivalence_map(ext1, ext2, phi)
    doc = {
        "equivalent": True,
        "phi": [[str(x) for x in row] for row in phi],
        "verified": not failures,
    }
    lines = ["equivalent: true", "phi:"]
    lines.extend("  " + "  ".join(str(x) for x in row) for row in phi)
    _emit(args, doc, lines)
    return 0


def _cmd_extension_split(args) -> int:
    from .extensions import extension_from_json, is_split
    ext = _load(args.extension, extension_from_json)
    result = is_split(ext)
    doc = {"split": result.split,
           "section": ([[str(x) for x in row] for row in result.section]
                       if result.section is not None else None)}
    lines = [f"split: {str(result.split).lower()}"]
    if result.section is not None:
        lines.append("homomorphic section:")
        lines.extend("  " + "  ".join(str(x) for x in row)
                     for row in result.section)
    _emit(args, doc, lines)
    return 0


def _cmd_rep_cocycle(args) -> int:
    from .projreps import cocycle_from_rep
    algebra = _load(args.algebra, algebra_from_json)
    rep = _load_rep(args.rep, algebra)
    alpha = cocycle_from_rep(rep)
    doc = form_to_json(alpha)
    if args.output:
        _write_doc(args.output, doc)
    _emit(args, {"alpha": doc}, _form_lines(alpha))
    return 0


def _cmd_rep_verify_equiv(args) -> int:
    from .projreps import verify_projective_equivalence
    algebra = _load(args.algebra, algebra_from_json) if args.algebra else None
    rep1 = _load_rep(args.r1, algebra)
    rep2 = _load_rep(args.r2, algebra)
    f = _load(args.f, lambda doc: _json_matrix(doc["matrix"], "matrix"))
    delta = _load(args.delta, functional_from_json)
    report = verify_projective_equivalence(rep1, rep2, f, delta)
    doc = {
        "ok": report.ok,
        "linearly_equivalent": report.linearly_equivalent,
        "failures": [i for i, _ in report.failures],
    }
    lines = [f"ok: {str(report.ok).lower()}",
             f"linearly equivalent: {str(report.linearly_equivalent).lower()}"]
    for i, residual in report.failures:
        lines.append(f"failure at basis vector {i}")
    _emit(args, doc, lines)
    return 0


def _cmd_rep_twist(args) -> int:
    from .projreps import _shift_diagonal, projective_rep, rep_to_json, twist
    sigma = _load(args.sigma, functional_from_json)
    if args.algebra:
        algebra = _load(args.algebra, algebra_from_json)
        twisted = twist(_load_rep(args.rep, algebra), sigma)
    else:
        # without bracket data the cocycle cannot be tracked; shift matrices only
        rep = _load_rep(args.rep, None)
        if sigma.dim != rep.algebra.dim:
            raise DimensionMismatch(
                f"functional of dim {sigma.dim} for rep of dim {rep.algebra.dim}")
        twisted = projective_rep(rep.algebra, [
            _shift_diagonal(m, s) for m, s in zip(rep.matrices, sigma.vector)])
    doc = rep_to_json(twisted)
    if args.output:
        _write_doc(args.output, doc)
    lines = [f"degree {twisted.degree}"]
    if twisted.cocycle is not None:
        lines.append("cocycle:")
        lines.extend("  " + s for s in _form_lines(twisted.cocycle))
    _emit(args, {"rep": doc}, lines)
    return 0


def _cmd_verify_all(args) -> int:
    from .verify import run_all
    report = run_all(max_group_order=args.max_group_order, seed=args.seed)
    criteria = report["criteria"]
    lines = []
    for c in criteria:
        line = f"{'PASS' if c['passed'] else 'FAIL'} {c['id']:2d} {c['name']}"
        if not c["passed"]:
            line += f"  ({c['details'].get('reason', 'failed')})"
        lines.append(line)
    lines.append(f"{sum(1 for c in criteria if c['passed'])}/{len(criteria)} criteria passed")
    _emit(args, report, lines)
    return 0 if report["all_passed"] else 1


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plesken",
        description="Exact Plesken Lie algebra computations: cohomology, "
                    "central extensions, projective representations.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit canonical JSON instead of text")

    group = sub.add_parser("group", help="construct groups")
    group_sub = group.add_subparsers(dest="subverb", required=True)
    g_make = group_sub.add_parser("make", help="build a preset group")
    g_make.add_argument("--preset", required=True,
                        help="cyclic, dihedral, symmetric, quaternion8, "
                             "heisenberg_p, or elementary_abelian_p2")
    g_make.add_argument("--n", type=int, default=0, help="preset parameter")
    g_make.add_argument("-o", "--output", help="write the group JSON here")
    common(g_make)
    g_make.set_defaults(func=_cmd_group_make)

    algebra = sub.add_parser("algebra", help="construct Lie algebras")
    algebra_sub = algebra.add_subparsers(dest="subverb", required=True)
    a_plesken = algebra_sub.add_parser("plesken",
                                       help="Plesken algebra of a group file")
    a_plesken.add_argument("-g", "--group", required=True)
    a_plesken.add_argument("-o", "--output", help="write the algebra JSON here")
    common(a_plesken)
    a_plesken.set_defaults(func=_cmd_algebra_plesken)

    cohomology = sub.add_parser("cohomology", help="cocycles and cohomology")
    cohomology_sub = cohomology.add_subparsers(dest="subverb", required=True)
    c_h2 = cohomology_sub.add_parser("h2", help="dim Z2, B2, H2 and representatives")
    c_h2.add_argument("-L", "--algebra", required=True)
    common(c_h2)
    c_h2.set_defaults(func=_cmd_cohomology_h2)

    extension = sub.add_parser("extension", help="central extensions")
    extension_sub = extension.add_subparsers(dest="subverb", required=True)
    e_build = extension_sub.add_parser("build", help="extension from a cocycle")
    e_build.add_argument("-L", "--algebra", required=True)
    e_build.add_argument("--alpha", required=True)
    e_build.add_argument("-o", "--output")
    common(e_build)
    e_build.set_defaults(func=_cmd_extension_build)
    e_cocycle = extension_sub.add_parser("cocycle",
                                         help="extract the cocycle of an extension")
    e_cocycle.add_argument("-e", "--extension", required=True)
    e_cocycle.add_argument("-o", "--output")
    common(e_cocycle)
    e_cocycle.set_defaults(func=_cmd_extension_cocycle)
    e_equiv = extension_sub.add_parser("equiv", help="decide equivalence")
    e_equiv.add_argument("-e1", required=True)
    e_equiv.add_argument("-e2", required=True)
    common(e_equiv)
    e_equiv.set_defaults(func=_cmd_extension_equiv)
    e_split = extension_sub.add_parser("split", help="decide splitness")
    e_split.add_argument("-e", "--extension", required=True)
    common(e_split)
    e_split.set_defaults(func=_cmd_extension_split)

    rep = sub.add_parser("rep", help="projective representations")
    rep_sub = rep.add_subparsers(dest="subverb", required=True)
    r_cocycle = rep_sub.add_parser("cocycle", help="extract the defect cocycle")
    r_cocycle.add_argument("-L", "--algebra", required=True)
    r_cocycle.add_argument("-r", "--rep", required=True)
    r_cocycle.add_argument("-o", "--output")
    common(r_cocycle)
    r_cocycle.set_defaults(func=_cmd_rep_cocycle)
    r_verify = rep_sub.add_parser("verify-equiv",
                                  help="verify a projective equivalence witness")
    r_verify.add_argument("-r1", required=True)
    r_verify.add_argument("-r2", required=True)
    r_verify.add_argument("--f", required=True, help="matrix JSON {'matrix': [[..]]}")
    r_verify.add_argument("--delta", required=True, help="functional JSON {'v': [..]}")
    r_verify.add_argument("-L", "--algebra", help="optional algebra for validation")
    common(r_verify)
    r_verify.set_defaults(func=_cmd_rep_verify_equiv)
    r_twist = rep_sub.add_parser("twist", help="twist by a linear functional")
    r_twist.add_argument("-r", "--rep", required=True)
    r_twist.add_argument("--sigma", required=True)
    r_twist.add_argument("-L", "--algebra",
                         help="algebra file; required to track the cocycle")
    r_twist.add_argument("-o", "--output")
    common(r_twist)
    r_twist.set_defaults(func=_cmd_rep_twist)

    verify = sub.add_parser("verify", help="bundled theorem-verification suites")
    verify_sub = verify.add_subparsers(dest="subverb", required=True)
    v_all = verify_sub.add_parser("all", help="run every acceptance criterion")
    v_all.add_argument("--max-group-order", type=int, default=24)
    v_all.add_argument("--seed", type=int, default=7)
    common(v_all)
    v_all.set_defaults(func=_cmd_verify_all)

    return parser


# The exit code when a write to stdout fails because its reader has closed
# it: what a shell reports for a process killed by SIGPIPE, 128 + 13.
EXIT_CLOSED_PIPE = 141


# main builds the parser once and reuses it, since parsing leaves it as it
# was; a list, so no module name is rebound after import
_PARSER: list[argparse.ArgumentParser] = []


def main(argv: Sequence[str] | None = None) -> int:
    if not _PARSER:
        _PARSER.append(build_parser())
    args = _PARSER[0].parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # e.g. `plesken ... | head -1`: point stdout at devnull, so the flush
        # at exit has nowhere to fail, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def _run(args) -> int:
    try:
        return args.func(args)
    except DomainError as err:
        if getattr(args, "json", False):
            _write_json({"error": err.code, "witness": err.witness})
        else:
            print(f"error: {err.code}: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        if getattr(args, "json", False):
            _write_json({"error": "FileNotFound", "witness": err.filename})
        else:
            print(f"error: FileNotFound: {err.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
