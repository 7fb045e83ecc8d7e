"""Command-line front end.

Subcommands:

* check FILE            validate a document, print every violation
* indicator FILE --module NAME [--twist NAME] [--method M] [--json]
* table FILE [--json]   all modules x all twists, every applicable method
* qsl2 TWO_ELL [--twisted] [--max N] [--json]
* catalog               list the builtin examples
* example NAME [-o FILE]

Exit codes: 0 success, 1 validation failure or method discrepancy, 2 usage
and parse errors. All reports are assembled in a fixed order from exact
scalars printed canonically, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, cached_property

from .constructors import (
    builtin_description,
    builtin_document,
    builtin_names,
    coalgebra_regular_indicator,
    coalgebra_regular_module,
)
from .documents import Document, DocumentError, load_document
from .formulas import (
    IncompleteSimplesList,
    NotAbsolutelySimple,
    NotAnIntegral,
    NotSeparable,
    ZeroValency,
    ZeroVolumeCharacter,
    doi_grouplike_indicator,
    fs_regular_trace_q,
    fs_via_separability,
    fs_via_symmetric,
    hopf_integral_idempotent,
    symmetric_form_data,
    trace_S_global,
)
from .pivotal import (
    MissingData,
    ValidationError,
    fs_indicator,
    twist_algebra,
)
from .qsl2 import DEFAULT_MAX_TWO_ELL, qsl2_indicator
from .scalars import scalar_to_string

_METHOD_NAMES = {"def": "definition", "sep": "separability",
                 "sym": "symmetric"}


def _s(x):
    return scalar_to_string(x)


def _matrix_json(m):
    if m is None:
        return None
    return [[_s(x) for x in row] for row in m.rows]


def _render_rows(headers, rows):
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0))
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return out


def _report_json(rep):
    return {
        "nu": _s(rep.nu),
        "dim_bil": rep.dim_bil,
        "dim_plus": rep.dim_plus,
        "dim_minus": rep.dim_minus,
        "end_dim": rep.end_dim,
        "self_dual": rep.self_dual,
        "abs_simple": rep.abs_simple,
        "canonical_form": _matrix_json(rep.canonical_form),
    }


def _reason(e):
    if isinstance(e, ValidationError):
        return "; ".join(e.violations)
    return str(e) or type(e).__name__


class MethodRunner:
    """Per-document caches for the formula routes.

    The idempotent and the symmetric data come from the untwisted algebra,
    each computed when a route first asks for it; each route then runs over
    the twisted algebra of its cell.
    """

    def __init__(self, doc: Document):
        self.doc = doc
        self.A = doc.algebra

    @cached_property
    def idempotent(self):
        """(E, None), or (None, the reason the route is unavailable)."""
        try:
            return hopf_integral_idempotent(self.A), None
        except (MissingData, NotAnIntegral, NotSeparable) as e:
            return None, _reason(e)

    @cached_property
    def symdata(self):
        """(data, None), or (None, the reason the route is unavailable)."""
        try:
            return symmetric_form_data(self.A), None
        except (MissingData, ValidationError) as e:
            return None, _reason(e)

    def twists(self):
        """(name, twisted algebra) pairs, untwisted first."""
        return [(None, self.A)] + [(name, twist_algebra(self.A, T))
                                   for name, T in self.A.involutions.items()]

    def cell(self, V, twist_name, At, methods=("def", "sep", "sym")):
        """(cell, report): the cell of V over the twisted algebra At, and
        the definition route's IndicatorReport (None without "def")."""
        rep = fs_indicator(At, V) if "def" in methods else None
        out = {
            "module": V.name,
            "twist": twist_name,
            "nu": None,
            "report": _report_json(rep) if rep is not None else None,
            "methods": {},
            "discrepancy": False,
        }
        values = []
        if rep is not None:
            out["methods"]["definition"] = {"nu": _s(rep.nu)}
            values.append(rep.nu)
        if "sep" in methods:
            E, err = self.idempotent
            if E is None:
                out["methods"]["separability"] = {"skipped": err}
            else:
                nu = fs_via_separability(At, V, E)
                out["methods"]["separability"] = {"nu": _s(nu)}
                values.append(nu)
        if "sym" in methods:
            entry, value = self._symmetric_entry(V, At, rep)
            out["methods"]["symmetric"] = entry
            if value is not None:
                values.append(value)
        if self.A.grouplike is not None and "def" in methods:
            entry, value = self._doi_entry(
                V.character_on_basis, V.dim, At, rep)
            out["methods"]["doi"] = entry
            if value is not None:
                values.append(value)
        out["nu"] = _s(values[0]) if values else None
        out["discrepancy"] = any(v != values[0] for v in values[1:])
        return out, rep

    def _symmetric_entry(self, V, At, rep):
        data, err = self.symdata
        if data is None:
            return {"skipped": err}, None
        if rep is not None and not rep.abs_simple:
            return {"skipped": "module is not absolutely simple"}, None
        try:
            r = fs_via_symmetric(At, V, data)
        except (NotAbsolutelySimple, ZeroVolumeCharacter) as e:
            return {"skipped": str(e)}, None
        return {"nu": _s(r.nu), "schur": _s(r.schur)}, r.nu

    def _doi_entry(self, chi, dim, At, rep=None):
        if rep is not None and not rep.abs_simple:
            return {"skipped": "module is not absolutely simple"}, None
        try:
            nu = doi_grouplike_indicator(At, chi, dim)
        except (ZeroValency, ZeroVolumeCharacter) as e:
            return {"skipped": str(e)}, None
        return {"nu": _s(nu)}, nu


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args):
    try:
        doc = load_document(args.file)
    except ValidationError as e:
        for v in e.violations:
            print("invalid: %s" % v)
        return 1
    print("ok: %s (%s, dim %d, field %s)"
          % (doc.name, doc.kind, doc.algebra.dim, doc.algebra.tag))
    if doc.modules:
        print("modules: %s" % ", ".join(doc.modules))
    if doc.algebra.involutions:
        print("involutions: %s" % ", ".join(doc.algebra.involutions))
    if doc.simples:
        print("declared complete simples: %s" % ", ".join(doc.simples))
    return 0


def _resolve_twist(doc, name):
    if name is None:
        return None, None
    if name not in doc.algebra.involutions:
        raise DocumentError(
            "unknown involution %r (known: %s)"
            % (name, ", ".join(doc.algebra.involutions) or "none"))
    return name, doc.algebra.involutions[name]


def cmd_indicator(args):
    doc = load_document(args.file)
    if args.module not in doc.modules:
        raise DocumentError("unknown module %r (known: %s)"
                            % (args.module, ", ".join(doc.modules) or "none"))
    V = doc.modules[args.module]
    twist_name, T = _resolve_twist(doc, args.twist)
    runner = MethodRunner(doc)
    methods = (("def", "sep", "sym") if args.method == "all"
               else (args.method,))
    cell, _ = runner.cell(V, twist_name, twist_algebra(doc.algebra, T),
                          methods=methods)
    if args.method != "all":
        label = _METHOD_NAMES[args.method]
        entry = cell["methods"][label]
        if "skipped" in entry:
            print("error: method %r unavailable: %s"
                  % (args.method, entry["skipped"]), file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps({"document": doc.name, **cell}, indent=2))
    else:
        _print_cell_human(doc, cell)
    if cell["discrepancy"]:
        print("DISCREPANCY: methods disagree", file=sys.stderr)
        return 1
    return 0


def _print_cell_human(doc, cell):
    print("document: %s" % doc.name)
    print("module:   %s" % cell["module"])
    print("twist:    %s" % (cell["twist"] or "(none)"))
    print("nu:       %s" % cell["nu"])
    rep = cell["report"]
    if rep is not None:
        print("invariant forms: dim %d (+%d, -%d); End dim %d;"
              " self-dual %s; absolutely simple %s"
              % (rep["dim_bil"], rep["dim_plus"], rep["dim_minus"],
                 rep["end_dim"], _yn(rep["self_dual"]),
                 _yn(rep["abs_simple"])))
        if rep["canonical_form"] is not None:
            print("canonical form:")
            for line in _string_matrix_lines(rep["canonical_form"]):
                print(line)
    print("methods:")
    for name, entry in cell["methods"].items():
        if "skipped" in entry:
            print("  %-13s skipped: %s" % (name, entry["skipped"]))
        elif "schur" in entry:
            print("  %-13s nu = %s   (schur element %s)"
                  % (name, entry["nu"], entry["schur"]))
        else:
            print("  %-13s nu = %s" % (name, entry["nu"]))


def _string_matrix_lines(rows, indent="  "):
    widths = [max(len(rows[r][c]) for r in range(len(rows)))
              for c in range(len(rows[0]))]
    return [indent + "[ "
            + "  ".join(rows[r][c].ljust(widths[c])
                        for c in range(len(rows[0]))).rstrip() + " ]"
            for r in range(len(rows))]


def _yn(b):
    return "yes" if b else "no"


def cmd_table(args):
    doc = load_document(args.file)
    runner = MethodRunner(doc)
    twists = runner.twists()
    out = {
        "document": doc.name,
        "kind": doc.kind,
        "field": str(doc.algebra.tag),
        "dim": doc.algebra.dim,
        "cells": [],
        "regular": [],
        "doi_rows": [],
        "coalgebra": None,
        "trace_s_checks": [],
        "discrepancy": False,
    }
    nus = {}
    for V in doc.modules.values():
        for twist_name, At in twists:
            cell, rep = runner.cell(V, twist_name, At)
            out["cells"].append(cell)
            nus[V.name, twist_name] = rep.nu

    for twist_name, At in twists:
        out["regular"].append({
            "twist": twist_name,
            "trace_q": _s(fs_regular_trace_q(At)),
        })

    if doc.algebra.grouplike is not None and not doc.modules:
        for twist_name, At in twists:
            entry, _ = runner._doi_entry(doc.algebra.grouplike.eps, 1, At)
            out["doi_rows"].append({"module": "(valency)",
                                    "twist": twist_name, **entry})

    if doc.coalgebra is not None:
        coreg = coalgebra_regular_module(doc.coalgebra)
        rep = fs_indicator(doc.algebra, coreg)
        reg_ind = coalgebra_regular_indicator(doc.coalgebra)
        agree = (_s(reg_ind) == out["regular"][0]["trace_q"]
                 == _s(rep.nu))
        out["coalgebra"] = {
            "regular_indicator": _s(reg_ind),
            "coregular_definition_nu": _s(rep.nu),
            "agree": agree,
        }
        if not agree:
            out["discrepancy"] = True

    if doc.simples:
        simples = [doc.modules[n] for n in doc.simples]
        for twist_name, At in twists:
            chk = trace_S_global(At, simples, [nus[n, twist_name]
                                               for n in doc.simples])
            out["trace_s_checks"].append({
                "twist": twist_name,
                "lhs": _s(chk.lhs),
                "rhs": _s(chk.rhs),
                "equal": chk.equal,
                "per_module": [[n, _s(nu), _s(chig)]
                               for n, nu, chig in chk.per_module],
            })
            if not chk.equal:
                out["discrepancy"] = True

    if any(c["discrepancy"] for c in out["cells"]):
        out["discrepancy"] = True

    if args.json:
        print(json.dumps(out, indent=2))
    else:
        _print_table_human(out)
    if out["discrepancy"]:
        print("DISCREPANCY: methods disagree", file=sys.stderr)
        return 1
    return 0


def _print_table_human(out):
    print("document %s (%s, dim %d, field %s)"
          % (out["document"], out["kind"], out["dim"], out["field"]))
    if out["cells"]:
        print()
        headers = ["module", "twist", "nu", "dim(B)", "(+,-)", "End",
                   "self-dual", "methods"]
        rows = []
        for c in out["cells"]:
            rep = c["report"]
            agreed = []
            for mname, entry in c["methods"].items():
                if "nu" in entry:
                    agreed.append("%s=%s" % (mname[:3], entry["nu"]))
            rows.append([
                c["module"],
                c["twist"] or "-",
                c["nu"],
                str(rep["dim_bil"]),
                "(%d,%d)" % (rep["dim_plus"], rep["dim_minus"]),
                str(rep["end_dim"]),
                _yn(rep["self_dual"]),
                " ".join(agreed) + (" DISCREPANCY" if c["discrepancy"]
                                    else ""),
            ])
        for line in _render_rows(headers, rows):
            print(line)
    if out["doi_rows"]:
        print()
        for entry in out["doi_rows"]:
            twist = entry["twist"] or "-"
            if "nu" in entry:
                print("doi %s twist=%s: nu = %s"
                      % (entry["module"], twist, entry["nu"]))
            else:
                print("doi %s twist=%s: skipped (%s)"
                      % (entry["module"], twist, entry["skipped"]))
    print()
    for entry in out["regular"]:
        print("regular module trace(Q)%s: %s"
              % ("" if entry["twist"] is None
                 else " twist=%s" % entry["twist"], entry["trace_q"]))
    if out["coalgebra"] is not None:
        print("coalgebra regular indicator: %s (definition path %s, %s)"
              % (out["coalgebra"]["regular_indicator"],
                 out["coalgebra"]["coregular_definition_nu"],
                 "agree" if out["coalgebra"]["agree"] else "DISCREPANCY"))
    for chk in out["trace_s_checks"]:
        print("trace(S)%s: lhs = %s, rhs = %s (%s)"
              % ("" if chk["twist"] is None else " twist=%s" % chk["twist"],
                 chk["lhs"], chk["rhs"],
                 "equal" if chk["equal"] else "DISCREPANCY"))


def cmd_qsl2(args):
    try:
        rep = qsl2_indicator(args.two_ell, twisted=args.twisted,
                             max_two_ell=args.max)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "two_ell": args.two_ell,
            "twisted": args.twisted,
            **_report_json(rep),
        }, indent=2))
        return 0
    print("V with 2l = %d (dim %d), %s"
          % (args.two_ell, args.two_ell + 1,
             "twisted" if args.twisted else "untwisted"))
    print("nu = %s" % _s(rep.nu))
    print("End dim = %d; invariant form space dim = %d"
          % (rep.end_dim, rep.dim_bil))
    print("canonical invariant form:")
    for line in _string_matrix_lines(_matrix_json(rep.canonical_form)):
        print(line)
    return 0


def cmd_catalog(args):
    for name in builtin_names():
        print("%-18s %s" % (name, builtin_description(name)))
    return 0


def cmd_example(args):
    try:
        doc = builtin_document(args.name)
    except KeyError as e:
        print("error: %s" % e.args[0], file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------

@cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="fsind",
        description="Exact indicators of duality for modules over pivotal"
                    " algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate an input document")
    c.add_argument("file")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("indicator", help="indicator of one module")
    c.add_argument("file")
    c.add_argument("--module", required=True)
    c.add_argument("--twist", default=None)
    c.add_argument("--method", choices=("def", "sep", "sym", "all"),
                   default="all")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_indicator)

    c = sub.add_parser("table", help="all modules x all twists")
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_table)

    c = sub.add_parser("qsl2", help="quantum sl2 simple module indicator")
    c.add_argument("two_ell", type=int)
    c.add_argument("--twisted", action="store_true")
    c.add_argument("--max", type=int, default=DEFAULT_MAX_TWO_ELL)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_qsl2)

    c = sub.add_parser("catalog", help="list builtin examples")
    c.set_defaults(func=cmd_catalog)

    c = sub.add_parser("example", help="write a builtin example document")
    c.add_argument("name")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=cmd_example)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except DocumentError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except IncompleteSimplesList as e:
        print("invalid: %s" % e, file=sys.stderr)
        return 1
    except ValidationError as e:
        for v in e.violations:
            print("invalid: %s" % v, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
