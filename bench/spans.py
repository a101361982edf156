"""Spans and counters recorded from outside the ``plesken`` package.

:class:`Tracer` wraps every public module-level function of the library's
modules (plus a few private stages the roadmap names) and rebinds every name
that refers to the original, including the names other modules imported with
``from .x import y`` and the function table ``verify.CRITERIA``.  Each call
appends a span ``(name, start, end, parent, job, attrs)`` to an in-memory list.
:class:`Counter` wraps the ``Scalar`` arithmetic and ``linalg.rref`` to count
operations and matrix shapes; it slows a pass too much to time anything
under it.

Both restore every name they rebound on :meth:`restore`, so the library is
left exactly as it was imported.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("cli", "groups", "liealg", "cohomology", "linalg", "extensions",
          "projreps", "verify")

# private stages that get spans of their own
EXTRA = {"cohomology": ("_constraint_rows",), "groups": ("_closure",),
         "projreps": ("_defect",)}

# cheap per-span attributes, computed from arguments or result
ATTRS = {
    "groups.from_cayley_table": lambda args, kwargs, result: len(args[0]) ** 3,
    "liealg.verify_lie_axioms": lambda args, kwargs, result: math.comb(args[0].dim, 3),
    "cohomology._constraint_rows": lambda args, kwargs, result: len(result),
}


def _modules() -> dict:
    return {layer: importlib.import_module(f"plesken.{layer}") for layer in LAYERS}


def _package_namespaces() -> list:
    """Every namespace that may hold a reference to a library function."""
    return [m for name, m in sorted(sys.modules.items())
            if (name == "plesken" or name.startswith("plesken.")) and m is not None]


class _Rebinder:
    """Set attributes and remember the originals, to put back in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """In-memory spans around every library function call."""

    def __init__(self) -> None:
        self.spans: list = []
        self.job = None
        self._stack: list[int] = []
        self._rebinder = _Rebinder()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attr = ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job, None)
            if attr is not None:
                spans[sid] = (name, start, end, parent, self.job,
                              attr(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, module in _modules().items():
            for name, obj in vars(module).items():
                public = not name.startswith("_") or name in EXTRA.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for namespace in _package_namespaces():
            for name, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._rebinder.set(namespace, name, wrappers[id(obj)])
        verify = sys.modules["plesken.verify"]
        self._rebinder.set(verify, "CRITERIA", tuple(
            (cid, name, self._wrap(f"verify.c{cid:02d}", func))
            for cid, name, func in verify.CRITERIA))
        fixture_init = verify.FixtureSet.__dict__["__init__"]
        self._rebinder.set(verify.FixtureSet, "__init__",
                           self._wrap("verify.FixtureSet", fixture_init))

    def restore(self) -> None:
        self._rebinder.restore()


class Counter:
    """Exact operation counts: Scalar arithmetic and rref matrix shapes."""

    SCALAR_METHODS = {
        "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
        "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
        "__rtruediv__": "div", "_make": "normalize", "parse": "parse",
        "__str__": "format",
    }

    def __init__(self) -> None:
        self.counts = dict.fromkeys(
            [f"scalars.{key}" for key in dict.fromkeys(self.SCALAR_METHODS.values())]
            + ["linalg.rref_cells", "linalg.rref_nnz_in", "linalg.rref_nnz_out",
               "linalg.rref_max_bits", "cohomology.constraint_nnz"], 0)
        self._rebinder = _Rebinder()

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _rref(self, fn):
        counts = self.counts

        def rref(rows, ncols):
            rows = [list(r) for r in rows]
            counts["linalg.rref_cells"] += len(rows) * ncols
            counts["linalg.rref_nnz_in"] += sum(1 for r in rows for x in r if x)
            out, pivots = fn(rows, ncols)
            counts["linalg.rref_nnz_out"] += sum(1 for r in out for x in r if x)
            bits = max((max(abs(x.a).bit_length(), abs(x.b).bit_length(),
                            x.d.bit_length()) for r in out for x in r if x), default=0)
            counts["linalg.rref_max_bits"] = max(counts["linalg.rref_max_bits"], bits)
            return out, pivots

        return rref

    def _constraint_rows(self, fn):
        counts = self.counts

        def constraint_rows(algebra):
            rows = fn(algebra)
            counts["cohomology.constraint_nnz"] += sum(1 for r in rows for x in r if x)
            return rows

        return constraint_rows

    def install(self) -> None:
        from plesken.scalars import Scalar
        for method, key in self.SCALAR_METHODS.items():
            raw = Scalar.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._count(f"scalars.{key}", raw.__func__))
            else:
                wrapped = self._count(f"scalars.{key}", raw)
            self._rebinder.set(Scalar, method, wrapped)
        modules = _modules()
        originals = {id(modules["linalg"].rref): self._rref(modules["linalg"].rref),
                     id(modules["cohomology"]._constraint_rows):
                         self._constraint_rows(modules["cohomology"]._constraint_rows)}
        for namespace in _package_namespaces():
            for name, obj in list(vars(namespace).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    self._rebinder.set(namespace, name, originals[id(obj)])

    def restore(self) -> None:
        self._rebinder.restore()


# -- per-layer metrics ------------------------------------------------------------

# (metric, unit, source, argument).  Sources: "time" and "calls" sum the
# spans of the named functions, "attr" sums their attributes, "self" is their
# exclusive time (span minus child spans), "layer" the exclusive time of all
# spans of a layer, "count" a Counter value, "reps" the h2 span time outside
# z2_basis and b2_basis, and "pass" a figure of the traced pass itself.
PER_LAYER = (
    ("cli.self_s", "s", "layer", "cli"),
    ("cli.out_bytes", "bytes", "pass", "out_bytes"),
    ("groups.self_s", "s", "layer", "groups"),
    ("groups.validate_s", "s", "time", ("groups.from_cayley_table",)),
    ("groups.validate_calls", "count", "calls", ("groups.from_cayley_table",)),
    ("groups.assoc_triples", "count", "attr", ("groups.from_cayley_table",)),
    ("groups.closure_s", "s", "time", ("groups._closure",)),
    ("liealg.self_s", "s", "layer", "liealg"),
    ("liealg.plesken_s", "s", "time", ("liealg.plesken_algebra",)),
    ("liealg.commutators", "count", "calls", ("liealg.group_algebra_commutator",)),
    ("liealg.center_s", "s", "time", ("liealg.center",)),
    ("liealg.derived_s", "s", "time", ("liealg.derived_subalgebra",)),
    ("liealg.semisimple_s", "s", "time", ("liealg.is_semisimple",)),
    ("liealg.jacobi_s", "s", "time", ("liealg.verify_lie_axioms",)),
    ("liealg.jacobi_triples", "count", "attr", ("liealg.verify_lie_axioms",)),
    ("liealg.bracket_s", "s", "time", ("liealg.bracket",)),
    ("liealg.bracket_calls", "count", "calls", ("liealg.bracket",)),
    ("liealg.json_s", "s", "self", ("liealg.algebra_to_json", "liealg.algebra_from_json")),
    ("cohomology.self_s", "s", "layer", "cohomology"),
    ("cohomology.h2_s", "s", "time", ("cohomology.h2",)),
    ("cohomology.constraints_s", "s", "time", ("cohomology._constraint_rows",)),
    ("cohomology.constraint_rows", "count", "attr", ("cohomology._constraint_rows",)),
    ("cohomology.constraint_nnz", "count", "count", "cohomology.constraint_nnz"),
    ("cohomology.z2_s", "s", "time", ("cohomology.z2_basis",)),
    ("cohomology.b2_s", "s", "time", ("cohomology.b2_basis",)),
    ("cohomology.reps_s", "s", "reps", None),
    ("cohomology.is_cocycle_s", "s", "time", ("cohomology.is_cocycle",)),
    ("cohomology.is_cocycle_calls", "count", "calls", ("cohomology.is_cocycle",)),
    ("cohomology.cohomologous_s", "s", "time", ("cohomology.are_cohomologous",)),
    ("cohomology.json_s", "s", "self", (
        "cohomology.form_to_json", "cohomology.form_from_json",
        "cohomology.functional_to_json", "cohomology.functional_from_json")),
    ("linalg.self_s", "s", "layer", "linalg"),
    ("linalg.rref_s", "s", "time", ("linalg.rref",)),
    ("linalg.rref_calls", "count", "calls", ("linalg.rref",)),
    ("linalg.rref_cells", "count", "count", "linalg.rref_cells"),
    ("linalg.rref_nnz_in", "count", "count", "linalg.rref_nnz_in"),
    ("linalg.rref_nnz_out", "count", "count", "linalg.rref_nnz_out"),
    ("linalg.rref_max_bits", "bits", "count", "linalg.rref_max_bits"),
    ("linalg.nullspace_s", "s", "time", ("linalg.nullspace",)),
    ("linalg.solve_s", "s", "time", ("linalg.solve",)),
    ("linalg.solve_calls", "count", "calls", ("linalg.solve",)),
    ("linalg.invert_s", "s", "time", ("linalg.invert",)),
    ("linalg.det_s", "s", "time", ("linalg.det",)),
    ("linalg.matmul_s", "s", "time", ("linalg.mat_mul",)),
    ("linalg.matmul_calls", "count", "calls", ("linalg.mat_mul",)),
    ("linalg.reduce_s", "s", "time", ("linalg.reduce_against",)),
    ("scalars.mul", "count", "count", "scalars.mul"),
    ("scalars.add", "count", "count", "scalars.add"),
    ("scalars.sub", "count", "count", "scalars.sub"),
    ("scalars.div", "count", "count", "scalars.div"),
    ("scalars.normalize", "count", "count", "scalars.normalize"),
    ("scalars.parse", "count", "count", "scalars.parse"),
    ("scalars.format", "count", "count", "scalars.format"),
    ("extensions.self_s", "s", "layer", "extensions"),
    ("extensions.build_s", "s", "time", ("extensions.extension_from_cocycle",)),
    ("extensions.cocycle_s", "s", "time", ("extensions.cocycle_from_extension",)),
    ("extensions.equiv_s", "s", "time", ("extensions.equivalence_map",)),
    ("extensions.verify_equiv_s", "s", "time", ("extensions.verify_equivalence_map",)),
    ("extensions.split_s", "s", "time", ("extensions.is_split",)),
    ("extensions.section_s", "s", "time", ("extensions.find_section",)),
    ("extensions.validate_s", "s", "time", ("extensions.verify_central_extension",)),
    ("extensions.json_s", "s", "self", (
        "extensions.extension_to_json", "extensions.extension_from_json")),
    ("projreps.self_s", "s", "layer", "projreps"),
    ("projreps.cocycle_s", "s", "time", ("projreps.cocycle_from_rep",)),
    ("projreps.twist_s", "s", "time", ("projreps.twist",)),
    ("projreps.verify_equiv_s", "s", "time", ("projreps.verify_projective_equivalence",)),
    ("projreps.validate_s", "s", "time", ("projreps.validate_alpha_rep",)),
    ("projreps.defects", "count", "calls", ("projreps._defect",)),
    ("verify.self_s", "s", "layer", "verify"),
    ("verify.fixtures_s", "s", "time", ("verify.FixtureSet",)),
) + tuple((f"verify.c{cid:02d}_s", "s", "time", (f"verify.c{cid:02d}",))
          for cid in range(1, 11)) + (
    ("trace.spans", "count", "pass", "spans"),
    ("trace.pass_s", "s", "pass", "traced_pass_s"),
    ("trace.untraced_pass_s", "s", "pass", "untraced_pass_s"),
    ("trace.overhead_s", "s", "pass", "overhead_s"),
)


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def layer_metrics(spans: list, counts: dict, passes: dict) -> dict:
    """Every PER_LAYER metric from one traced pass's spans, one counting
    pass's counts and the figures of the passes themselves."""
    total, calls, attrs, exclusive, layer_self = {}, {}, {}, {}, {}
    children = [0.0] * len(spans)
    h2_inner = {}
    for name, start, end, parent, _job, attr in spans:
        if parent >= 0:
            children[parent] += end - start
            if spans[parent][0] == "cohomology.h2" and name in (
                    "cohomology.z2_basis", "cohomology.b2_basis"):
                h2_inner[parent] = h2_inner.get(parent, 0.0) + end - start
    for sid, (name, start, end, _parent, _job, attr) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if attr is not None:
            attrs[name] = attrs.get(name, 0) + attr
        own = end - start - children[sid]
        exclusive[name] = exclusive.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    reps = sum(end - start - h2_inner.get(sid, 0.0)
               for sid, (name, start, end, *_rest) in enumerate(spans)
               if name == "cohomology.h2")
    out = {}
    for metric, unit, source, arg in PER_LAYER:
        if source == "layer":
            value = layer_self.get(arg, 0.0)
        elif source == "time":
            value = sum(total.get(n, 0.0) for n in arg)
        elif source == "calls":
            value = sum(calls.get(n, 0) for n in arg)
        elif source == "attr":
            value = sum(attrs.get(n, 0) for n in arg)
        elif source == "self":
            value = sum(exclusive.get(n, 0.0) for n in arg)
        elif source == "count":
            value = counts[arg]
        elif source == "reps":
            value = reps
        else:
            value = passes[arg]
        out[metric] = {"value": value, "unit": unit}
    return out
