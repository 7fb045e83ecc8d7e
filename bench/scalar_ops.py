"""Per-field timing of one scalar multiply and one add.

Operands come from the workloads' own data, so the timings reflect the
values fsind actually meets:

* Q: the nonzero values in the catalog outputs of rational documents;
* Q(z_n): the irrational action entries of the catalog inputs over
  Q(z_3), Q(z_4) and Q(z_6), each paired only with entries of its field;
* Q(q): the nonzero entries of the qsl2 2l = 10 invariant form, each
  paired with the next one along the antidiagonal (an op on two of these
  takes milliseconds, so all pairs would take too long).

Each figure is the median over five rounds of the mean time per op, where
a round runs through all operand pairs, repeating until at least
``ROUND_S`` has passed.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from fractions import Fraction

import workloads

ROUNDS = 5
ROUND_S = 0.05


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, list):
        for x in obj:
            yield from _strings(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _strings(x)


def _is_nonzero_rational(text):
    try:
        return Fraction(text) != 0
    except ValueError:
        return False


def operand_pairs():
    """field -> list of (a, b) operand pairs, parsed with fsind's parser."""
    from fsind.scalars import field_tag_from_string, parse_scalar

    def parse_all(field, texts):
        tag = field_tag_from_string(field)
        return [parse_scalar(t, tag) for t in sorted(texts)]

    rational = set()
    cyclotomic = {}
    for name in workloads.catalog_names():
        with open(os.path.join(workloads.EXPECTED, "catalog",
                               name + ".json"), encoding="utf-8") as fh:
            out = json.load(fh)
        if out["field"] == "rational":
            rational.update(s for s in _strings(out) if _is_nonzero_rational(s))
        with open(os.path.join(workloads.DATA, "catalog", name + ".json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["field"].startswith("cyclotomic"):
            cyclotomic.setdefault(doc["field"], set()).update(
                s for s in _strings(doc["modules"]) if "z" in s)
    with open(workloads.qsl2_expected_path(10, False), encoding="utf-8") as fh:
        form = json.load(fh)["canonical_form"]
    ratfun = [parse_scalar(s, field_tag_from_string("rational_function"))
              for s in _strings(form) if s != "0"]

    def pairs(values):
        return [(a, b) for a in values for b in values]

    cyc = []
    for field, texts in sorted(cyclotomic.items()):
        cyc.extend(pairs(parse_all(field, texts)))
    return {
        "rational": pairs(parse_all("rational", rational)),
        "cyclotomic": cyc,
        "ratfun": list(zip(ratfun, ratfun[1:] + ratfun[:1])),
    }


def _per_op_us(pairs, op):
    rounds = []
    for _ in range(ROUNDS):
        n = 0
        t0 = time.perf_counter()
        while True:
            for a, b in pairs:
                op(a, b)
            n += len(pairs)
            elapsed = time.perf_counter() - t0
            if elapsed >= ROUND_S:
                break
        rounds.append(elapsed / n * 1e6)
    return statistics.median(rounds)


def measure():
    """{"scalars.<field>.mul_us": ..., "scalars.<field>.add_us": ...}."""
    out = {}
    for field, pairs in operand_pairs().items():
        out["scalars.%s.mul_us" % field] = _per_op_us(pairs,
                                                      lambda a, b: a * b)
        out["scalars.%s.add_us" % field] = _per_op_us(pairs,
                                                      lambda a, b: a + b)
    return out
