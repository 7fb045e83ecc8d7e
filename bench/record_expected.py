#!/usr/bin/env python3
"""Write the catalog inputs and the expected outputs the benchmark checks.

    python3 bench/record_expected.py

Run from the repository root. It writes ``data/catalog/NAME.json`` with
``fsind example NAME`` for every builtin, then records the stdout of
``fsind table FILE --json`` on each of them and of ``fsind qsl2 L --max 10
--json`` (untwisted and twisted) for 2l = 0..10 under ``expected/``. The
files in the repository were recorded at the commit that introduced the
benchmark; re-recording them after a change to fsind defeats the
byte-stability check, so do it only when an output change is intended.
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fsind.cli import main  # noqa: E402
from fsind.constructors import builtin_names  # noqa: E402

import workloads  # noqa: E402


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit("fsind %s exited %d" % (" ".join(argv), code))
    return buf.getvalue()


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def record():
    for name in builtin_names():
        doc = os.path.join(workloads.DATA, "catalog", name + ".json")
        write(doc, run(["example", name]))
        write(os.path.join(workloads.EXPECTED, "catalog", name + ".json"),
              run(["table", doc, "--json"]))
    plan = workloads.make_plan("qsl2", 0, None)
    for command in plan["passes"][0]:
        write(command["check"]["expected"], run(command["argv"]))


if __name__ == "__main__":
    record()
