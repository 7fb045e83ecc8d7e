"""The benchmark's workloads: inputs made from a seed, commands, output checks.

This module does not import fsind, so the orchestrator can build inputs
and the worker can check outputs against closed forms that do not come
from the program under test.

* ``catalog``: ``fsind table FILE --json`` on each builtin document, stored
  under ``data/catalog`` as ``fsind example NAME`` wrote them. Mostly
  document loading, validation and the formula routes; elimination is
  small. Outputs must be byte-identical to ``expected/catalog``.
* ``regular``: ``fsind indicator FILE --module reg --json`` on the regular
  module of D5 (order 10) over Q, Q8 over Q(i) and S3 = D3 over Q(z_3).
  Sparse constraint systems of 36 to 100 unknowns, so the solver
  dominates. The seed draws a relabelling of the group elements, which
  permutes the Cayley table and the action matrices. Solver cost depends
  strongly on the labelling (the constraints are taken in basis order):
  one labelling can cost 50% more than another. So every pass uses fresh
  labellings, drawn from the seed, and a run's median pass averages over
  many of them.
* ``qsl2``: ``fsind qsl2 L --max 10 --json``, untwisted and twisted, for
  2l = 0..10. The same solver over Q(q): few but expensive scalar ops. No
  documents are loaded.

Within a run, every pass issues the workload's commands in an order the
seed shuffles afresh for that pass.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
EXPECTED = os.path.join(HERE, "expected")

NAMES = ("catalog", "regular", "qsl2")
QSL2_MAX = 10


# ---------------------------------------------------------------------------
# group tables, built here rather than taken from fsind

def dihedral_table(n):
    """Dihedral group of order 2n; element a + n*b stands for r^a s^b."""
    elements = [(a, b) for b in range(2) for a in range(n)]
    index = {e: i for i, e in enumerate(elements)}

    def mul(x, y):
        (a, b), (c, d) = x, y
        return ((a + (c if b == 0 else -c)) % n, (b + d) % 2)

    return [[index[mul(x, y)] for y in elements] for x in elements]


def quaternion_table():
    """The quaternion units +-1, +-i, +-j, +-k under Hamilton's product."""
    units = []
    for axis in range(4):
        for sign in (1, -1):
            q = [0, 0, 0, 0]
            q[axis] = sign
            units.append(tuple(q))
    index = {u: i for i, u in enumerate(units)}

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    return [[index[mul(p, q)] for q in units] for p in units]


# name, field, group table
# Their costs per command (about 0.5, 1.0 and 0.35 s) do not overlap, so
# the median command is always a D5 one.
REGULAR_GROUPS = (
    ("D5", "rational", dihedral_table(5)),
    ("Q8", "cyclotomic(4)", quaternion_table()),
    ("S3", "cyclotomic(3)", dihedral_table(3)),
)
# distinct labellings per group in one run; passes beyond this reuse them
REGULAR_LABELLINGS = 32


def relabel(table, perm):
    """The same group with element i renamed perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def involution_count(table):
    """#{g : g^2 = 1}, the indicator of the regular module."""
    n = len(table)
    e = next(i for i in range(n) if table[i] == list(range(n)))
    return sum(1 for g in range(n) if table[g][g] == e)


def regular_document(name, field, table):
    """Input document with the left regular module 'reg'."""
    n = len(table)
    action = []
    for g in range(n):
        m = [["0"] * n for _ in range(n)]
        for h in range(n):
            m[table[g][h]][h] = "1"
        action.append(m)
    return {
        "name": name,
        "field": field,
        "group": {"table": table},
        "modules": [{"name": "reg", "dim": n, "action": action}],
    }


# ---------------------------------------------------------------------------
# plans

def catalog_names():
    return sorted(f[:-len(".json")]
                  for f in os.listdir(os.path.join(DATA, "catalog"))
                  if f.endswith(".json"))


def make_plan(workload, seed, workdir):
    """Commands of each pass, their output checks and the set-up inputs.

    ``passes`` holds the command lists that successive passes cycle
    through; only ``regular`` has more than one. Documents that the seed
    generates are written into workdir.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "catalog":
        docs, commands = [], []
        for name in catalog_names():
            path = os.path.join(DATA, "catalog", name + ".json")
            docs.append(path)
            commands.append({
                "argv": ["table", path, "--json"],
                "check": {"kind": "catalog",
                          "expected": os.path.join(EXPECTED, "catalog",
                                                   name + ".json")},
            })
        passes = [commands]
        setup = {"documents": docs}
    elif workload == "regular":
        passes = []
        for k in range(REGULAR_LABELLINGS):
            commands = []
            for name, field, table in REGULAR_GROUPS:
                perm = list(range(len(table)))
                rng.shuffle(perm)
                path = os.path.join(workdir, "%s-reg-%d.json" % (name, k))
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(regular_document("%s-reg" % name, field,
                                               relabel(table, perm)), fh)
                commands.append({
                    "argv": ["indicator", path, "--module", "reg", "--json"],
                    "check": {"kind": "regular", "order": len(table),
                              "nu": involution_count(table)},
                })
            passes.append(commands)
        # what a caller pays before the first indicator: each group once
        setup = {"documents": [c["argv"][1] for c in passes[0]]}
    elif workload == "qsl2":
        commands = []
        for two_ell in range(QSL2_MAX + 1):
            for twisted in (False, True):
                argv = ["qsl2", str(two_ell), "--max", str(QSL2_MAX), "--json"]
                if twisted:
                    argv.append("--twisted")
                commands.append({
                    "argv": argv,
                    "check": {"kind": "qsl2",
                              "nu": 1 if twisted or two_ell % 2 == 0 else -1,
                              "expected": qsl2_expected_path(two_ell,
                                                             twisted)},
                })
        passes = [commands]
        setup = {"qsl2": list(range(QSL2_MAX + 1))}
    else:
        raise ValueError("unknown workload %r" % workload)
    return {"workload": workload, "seed": seed, "passes": passes,
            "setup": setup, "order_seed": rng.randrange(2 ** 32)}


def qsl2_expected_path(two_ell, twisted):
    return os.path.join(EXPECTED, "qsl2", "%d%s.json"
                        % (two_ell, "-twisted" if twisted else ""))


# ---------------------------------------------------------------------------
# output checks

def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_output(check, code, stdout):
    """None when the output is right, else the reason it is not."""
    if code != 0:
        return "exit code %r" % (code,)
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    kind = check["kind"]
    if kind == "catalog":
        if out.get("discrepancy") is not False or any(
                c.get("discrepancy") is not False for c in out["cells"]):
            return "routes disagree"
        if stdout != _read(check["expected"]):
            return "output differs from %s" % os.path.basename(
                check["expected"])
    elif kind == "regular":
        rep = out.get("report") or {}
        order = check["order"]
        if out.get("nu") != str(check["nu"]):
            return "nu %r, expected #{g : g^2 = 1} = %d" % (out.get("nu"),
                                                           check["nu"])
        if rep.get("dim_bil") != order or rep.get("end_dim") != order:
            return "dim_bil %r / end_dim %r, expected |G| = %d" % (
                rep.get("dim_bil"), rep.get("end_dim"), order)
        sep = out.get("methods", {}).get("separability", {})
        if sep.get("nu") != out["nu"]:
            return "separability route gives %r" % (sep,)
        if out.get("discrepancy") is not False:
            return "routes disagree"
    elif kind == "qsl2":
        if out.get("nu") != str(check["nu"]):
            return "nu %r, expected %d" % (out.get("nu"), check["nu"])
        if out.get("end_dim") != 1:
            return "end_dim %r, expected 1" % (out.get("end_dim"),)
        if stdout != _read(check["expected"]):
            return "output differs from %s" % os.path.basename(
                check["expected"])
    else:
        return "unknown check %r" % kind
    return None
