#!/usr/bin/env python3
"""Survey every builtin document: per-module indicators on all available
routes, regular-module traces, and the global Trace(S) check where a
complete simples list is declared. The per-module cells come from the
same MethodRunner that `fsind table` uses.

Handy for eyeballing the whole catalog at once:

    python3 scripts/survey_builtins.py
    python3 scripts/survey_builtins.py --only Q8 S3-grouplike
"""

import argparse
import time

from fsind.cli import MethodRunner
from fsind.constructors import (
    builtin_document,
    builtin_names,
    coalgebra_regular_indicator,
    coalgebra_regular_module,
)
from fsind.documents import document_from_dict
from fsind.formulas import fs_regular_trace_q, trace_S_global
from fsind.pivotal import fs_indicator
from fsind.scalars import scalar_to_string


def survey(name):
    doc = document_from_dict(builtin_document(name), name=name)
    A = doc.algebra
    print("%s  (%s, dim %d, field %s)" % (name, doc.kind, A.dim, A.tag))
    runner = MethodRunner(doc)
    for V in doc.modules.values():
        cell = runner.cell(V, None, None)
        rep = cell["report"]
        values = ["%s=%s" % (method[:3], entry["nu"])
                  for method, entry in cell["methods"].items()
                  if "nu" in entry]
        flags = "".join((
            "s" if rep["self_dual"] else "-",
            "a" if rep["abs_simple"] else "-",
        ))
        print("  %-12s dim %-3d [%s]  %s" % (V.name, V.dim, flags,
                                             "  ".join(values)))

    print("  regular trace(Q) = %s" %
          scalar_to_string(fs_regular_trace_q(A)))
    for tname in A.involutions:
        print("  regular trace(Q), twist %-8s = %s" % (
            tname, scalar_to_string(fs_regular_trace_q(A, twist=tname))))
    if doc.simples:
        chk = trace_S_global(A, [doc.modules[n] for n in doc.simples])
        print("  trace(S): lhs = %s, rhs = %s (%s)" % (
            scalar_to_string(chk.lhs), scalar_to_string(chk.rhs),
            "equal" if chk.equal else "DISCREPANCY"))
    if doc.coalgebra is not None:
        nu = coalgebra_regular_indicator(doc.coalgebra)
        got = fs_indicator(A, coalgebra_regular_module(doc.coalgebra)).nu
        print("  coregular indicator = %s (definition path %s)" % (
            scalar_to_string(nu), scalar_to_string(got)))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="*", metavar="NAME",
                    help="survey just these builtins")
    args = ap.parse_args()
    names = args.only if args.only else builtin_names()
    t0 = time.perf_counter()
    for name in names:
        survey(name)
    print("surveyed %d documents in %.2fs" % (len(names),
                                              time.perf_counter() - t0))


if __name__ == "__main__":
    main()
