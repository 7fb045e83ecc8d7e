"""Span tracing of fsind's layers, installed from outside the package.

The tracer replaces chosen functions and methods of the fsind modules with
wrappers and puts the originals back on uninstall. A plain function is
patched under every name that refers to it in any fsind module (for
example both ``linalg.kernel_intersection`` and ``pivotal.kernel_intersection``),
because ``from .linalg import kernel_intersection`` copies the reference.

Each wrapped call records a span ``(name, start, end, parent)`` in memory;
``parent`` is the index of the enclosing span, or -1. Spans of one command
are folded into totals by ``end_command``, which runs outside the timed
region, so nothing is written while a command runs.

Besides spans, a wrapper adds its duration to one or more metric groups
(``pivotal.validate`` covers three functions). A group counts only its
outermost span, so nested or recursive calls are not counted twice.
Scalar arithmetic is far too frequent for spans: those methods only add to
an op count and a time, again counting the outermost op only.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

perf = time.perf_counter

MARK = "__bench_wrapped__"

# (module, attribute, span name, metric groups). A dotted attribute names a
# method on a class of that module.
SPANNED = [
    ("cli", "main", "cli.main", ("cli.command",)),
    ("documents", "load_document", "documents.load_document",
     ("documents.load",)),
    ("constructors", "group_algebra", "constructors.group_algebra",
     ("constructors.build",)),
    ("constructors", "scheme_to_grouplike", "constructors.scheme_to_grouplike",
     ("constructors.build",)),
    ("constructors", "dualize_coalgebra", "constructors.dualize_coalgebra",
     ("constructors.build",)),
    ("constructors", "group_involution", "constructors.group_involution",
     ("constructors.build",)),
    ("constructors", "scheme_involution", "constructors.scheme_involution",
     ("constructors.build",)),
    ("constructors", "coalgebra_regular_module",
     "constructors.coalgebra_regular_module", ("constructors.build",)),
    ("constructors", "coalgebra_regular_indicator",
     "constructors.coalgebra_regular_indicator", ()),
    ("pivotal", "validate_pivotal", "pivotal.validate_pivotal",
     ("pivotal.validate", "pivotal.validate_pivotal")),
    ("pivotal", "validate_module", "pivotal.validate_module",
     ("pivotal.validate",)),
    ("pivotal", "validate_algebra_involution",
     "pivotal.validate_algebra_involution", ("pivotal.validate",)),
    ("pivotal", "fs_indicator", "pivotal.fs_indicator",
     ("pivotal.fs_indicator",)),
    ("pivotal", "invariant_form_space", "pivotal.invariant_form_space",
     ("pivotal.form_space",)),
    ("pivotal", "hom_space", "pivotal.hom_space", ("pivotal.hom_space",)),
    ("pivotal", "span_contains_invertible", "pivotal.span_contains_invertible",
     ("pivotal.self_dual",)),
    ("pivotal", "transposition_on_forms", "pivotal.transposition_on_forms",
     ("pivotal.transposition",)),
    ("pivotal", "twist_algebra", "pivotal.twist_algebra", ()),
    ("pivotal", "dual_module", "pivotal.dual_module", ()),
    ("formulas", "hopf_integral_idempotent", "formulas.hopf_integral_idempotent",
     ("formulas.separability",)),
    ("formulas", "fs_via_separability", "formulas.fs_via_separability",
     ("formulas.separability",)),
    ("formulas", "symmetric_form_data", "formulas.symmetric_form_data",
     ("formulas.symmetric",)),
    ("formulas", "fs_via_symmetric", "formulas.fs_via_symmetric",
     ("formulas.symmetric",)),
    ("formulas", "doi_grouplike_indicator", "formulas.doi_grouplike_indicator",
     ("formulas.doi",)),
    ("formulas", "fs_regular_trace_q", "formulas.fs_regular_trace_q",
     ("formulas.trace_checks",)),
    ("formulas", "trace_S_global", "formulas.trace_S_global",
     ("formulas.trace_checks",)),
    ("linalg", "kernel_intersection", "linalg.kernel_intersection",
     ("linalg.kernel_intersection",)),
    ("linalg", "kernel_basis", "linalg.kernel_basis", ()),
    ("linalg", "_rref_in_place", "linalg.rref", ("linalg.rref",)),
    ("linalg", "Matrix.apply", "linalg.apply", ("linalg.apply",)),
    ("linalg", "Matrix.__mul__", "linalg.matmul", ("linalg.matmul",)),
    ("linalg", "det", "linalg.det", ("linalg.det",)),
    ("linalg", "inverse", "linalg.inverse", ()),
    ("linalg", "solve_in_span", "linalg.solve_in_span", ()),
    ("qsl2", "build_vl", "qsl2.build_vl", ("qsl2.build",)),
    ("qsl2", "verify_relations", "qsl2.verify_relations", ("qsl2.build",)),
    ("qsl2", "qsl2_indicator", "qsl2.qsl2_indicator", ("qsl2.indicator",)),
    ("scalars", "parse_scalar", "scalars.parse_scalar", ()),
    ("scalars", "scalar_to_string", "scalars.scalar_to_string", ()),
]

# Arithmetic methods counted as scalar ops, per field class.
SCALAR_OPS = {
    "Cyclotomic": "scalars.cyclotomic",
    "RatFun": "scalars.ratfun",
}
_OP_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
               "__pow__", "inverse")


def _fsind_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "fsind" or name.startswith("fsind.")) and m is not None]


def wrapped_names():
    """Every fsind attribute that currently holds a tracer wrapper."""
    found = []
    for mod in _fsind_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append("%s.%s" % (mod.__name__, key))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append("%s.%s.%s" % (mod.__name__, key, attr))
    return found


class Tracer:
    """Install with ``install()``; fold each command with ``end_command()``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self.group_s = defaultdict(float)
        self.group_calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.span_calls = defaultdict(int)
        self.span_total_s = defaultdict(float)
        self.span_self_s = defaultdict(float)
        self.commands = []  # (argv, wall seconds, seconds covered by children)
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, groups, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        group_s, group_calls = self.group_s, self.group_calls

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, None, None, parent))
            stack.append(idx)
            for g in groups:
                depth[g] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                for g in groups:
                    depth[g] -= 1
                    group_calls[g] += 1
                    if not depth[g]:
                        group_s[g] += t1 - t0
        return wrapper

    def _op(self, group, fn):
        depth, group_s, group_calls = self._depth, self.group_s, self.group_calls

        def wrapper(*args):
            if depth[group]:
                return fn(*args)
            depth[group] = 1
            t0 = perf()
            try:
                return fn(*args)
            finally:
                group_s[group] += perf() - t0
                group_calls[group] += 1
                depth[group] = 0
        return wrapper

    def _kernel_intersection(self, fn):
        counts = self.counts

        def counted(constraints):
            for c in constraints:
                counts["linalg.constraints"] += 1
                counts["linalg.constraint_cells"] += c.nrows * c.ncols
                yield c

        def wrapper(tag, constraints, ncols):
            return fn(tag, counted(constraints), ncols)
        return wrapper

    def _kernel_basis(self, fn):
        counts, spans, stack = self.counts, self.spans, self._stack

        def wrapper(m):
            out = fn(m)
            # runs inside this call's own span; shrinkage is counted only
            # when the caller is kernel_intersection consuming a constraint
            parent = spans[stack[-1]][3]
            if parent >= 0 and spans[parent][0] == "linalg.kernel_intersection":
                counts["linalg.kernel_steps"] += 1
                if len(out) < m.ncols:
                    counts["linalg.kernel_shrinks"] += 1
            return out
        return wrapper

    def _rref(self, fn):
        counts = self.counts

        def wrapper(rows, ncols):
            counts["linalg.rref_cells"] += len(rows) * ncols
            return fn(rows, ncols)
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, groups in SPANNED:
            mod = importlib.import_module("fsind." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                fn = vars(owner)[meth]
                self._patch_attr(owner, meth, fn,
                                 self._wrap(name, attr, groups, fn))
            else:
                fn = getattr(mod, attr)
                self._patch_everywhere(fn, self._wrap(name, attr, groups, fn))
        for cls_name, group in SCALAR_OPS.items():
            cls = getattr(importlib.import_module("fsind.scalars"), cls_name)
            for meth in _OP_METHODS:
                fn = vars(cls)[meth]
                self._patch_attr(cls, meth, fn, self._op(group, fn))

    def _wrap(self, name, attr, groups, fn):
        inner = fn
        if attr == "kernel_intersection":
            inner = self._kernel_intersection(fn)
        elif attr == "kernel_basis":
            inner = self._kernel_basis(fn)
        elif attr == "_rref_in_place":
            inner = self._rref(fn)
        return self._span(name, groups, inner)

    def _patch_attr(self, owner, attr, original, wrapper):
        setattr(wrapper, MARK, True)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _patch_everywhere(self, original, wrapper):
        setattr(wrapper, MARK, True)
        for mod in _fsind_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- folding -----------------------------------------------------------

    def end_command(self, argv):
        """Fold the spans of the command just run into the totals."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            self.span_calls[name] += 1
            self.span_total_s[name] += t1 - t0
            self.span_self_s[name] += t1 - t0 - child_s[i]
            if parent < 0:
                self.commands.append((list(argv), t1 - t0, child_s[i]))
        del spans[:]

    def table(self):
        """(name, calls, inclusive seconds, self seconds), slowest self first."""
        rows = [(n, self.span_calls[n], self.span_total_s[n],
                 self.span_self_s[n]) for n in self.span_calls]
        return sorted(rows, key=lambda r: -r[3])
