"""The golden corpus: exit code, stdout and stderr of a fixed list of CLI
commands, run in-process.

The list covers:

* ``check``, ``table`` and ``table --json`` on every builtin;
* ``indicator`` on every builtin (module, twist, method), with and without
  ``--json``;
* ``qsl2`` for 2l = 0..10 with ``--max 10``, twisted or not, with and
  without ``--json``, and for 2l = 16 and 20 with ``--max 20 --json``,
  twisted or not;
* ``indicator --json`` on the ``regular`` benchmark documents of seed 1,
  and ``indicator`` with and without ``--json`` on the regular module of
  S4;
* ``table --json`` on S3 with a top-level ``trace_form`` of 2 delta_e,
  of zeros and of delta_r (r not central), and with a top-level
  ``integral`` of delta_e, so that each rebuilds the algebra the group
  constructor made;
* the malformed inputs that tests/test_cli.py builds, and usage errors.

Documents are written into a scratch directory, whose path each output
shows as ``<dir>``. tests/test_golden_corpus.py reruns the list and names
the first command whose output differs from the recorded one. Record the
corpus again, only when an output is meant to change, with

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
import tempfile
from pathlib import Path

from fsind.cli import main
from fsind.constructors import builtin_document, builtin_names
from small_algebras import s4_table

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().parent / "golden_corpus.json.gz"
REGULAR_SEED = 1
QSL2_MAX = 10
QSL2_LARGE = (16, 20)
DIR = "<dir>"

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def _write(workdir, name, raw):
    path = Path(workdir) / name
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw),
                    encoding="utf-8")
    return str(path)


def _mutated(name, mutate):
    raw = builtin_document(name)
    mutate(raw)
    return raw


def _set(*keys, value):
    """A mutation that sets raw[keys[0]]...[keys[-1]] to value."""
    def mutate(raw):
        target = raw
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
    return mutate


def _repeat_literal(literal):
    def mutate(raw):
        action = raw["modules"][2]["action"]
        action[1][0][1] = action[1][1][0] = action[3][0][0] = literal
    return mutate


def _malformed(workdir):
    """Documents that test_cli.py refuses, by file name."""
    docs = {
        "absent.json": None,
        "bad.json": "{ nope",
        "c2-table.json": _mutated(
            "C2", _set("group", "table", value=[[0, 1], [1, 1]])),
        "c2-digit.json": _mutated(
            "C2", lambda raw: raw["modules"][0].update(
                action=[[["1"]], [["²"]]])),
        "k3-digit.scheme": "3 2\n0 1 ²\n1 0 1\n1 1 0\n",
        "c2-modules.json": _mutated("C2", _set("modules", value=5)),
        "c2-involutions.json": _mutated("C2", _set("involutions", value=5)),
        "c2-module-a.json": _mutated("C2", lambda raw: (
            raw.update(modules=[{"name": "a", "dim": 1,
                                 "action": [[["1"]], [["2"]]]}]),
            raw.pop("simples", None))),
        "coalg-c2-empty.json": _mutated(
            "coalg-C2", lambda raw: raw["coalgebra"].update(
                labels=[], comult=[], counit=[], S=[], gamma=[])),
        "coalg-c3-both.json": _mutated("coalg-C3", lambda raw: (
            raw["coalgebra"].update(gamma=["1", "2", "2"]),
            raw.update(modules=[{"name": "a", "dim": 1,
                                 "action": [[["1"]], [["1"]], [["1"]]]}]))),
    }
    for k, literal in enumerate(("1/0", "2 +", "z")):
        docs["s3-literal-%d.json" % k] = _mutated("S3",
                                                  _repeat_literal(literal))
    for k, cell in enumerate((True, 1.5, "1.5")):
        docs["s3-cell-%d.json" % k] = _mutated("S3", _set(
            "modules", 2, "action", 1, value=[[1, "1"], [cell, "0"]]))
    paths = []
    for name, raw in docs.items():
        paths.append(str(Path(workdir) / name) if raw is None
                     else _write(workdir, name, raw))
    return paths


def _overridden():
    """S3 documents whose top-level trace_form or integral replaces the one
    group_algebra builds, by file name."""
    def delta(k, x="1"):
        return [x if i == k else "0" for i in range(6)]

    edits = (("trace_form", "2e", delta(0, "2")),
             ("trace_form", "zero", delta(0, "0")),
             ("trace_form", "r", delta(1)),
             ("integral", "e", delta(0)))
    return {"s3-%s-%s.json" % (key, tag): _mutated("S3", _set(key, value=v))
            for key, tag, v in edits}


def commands(workdir):
    """The command list, writing the documents it reads into workdir."""
    out = []
    for name in builtin_names():
        raw = builtin_document(name)
        path = _write(workdir, name + ".json", raw)
        out += [["check", path], ["table", path], ["table", path, "--json"]]
        twists = [None] + [t["name"] for t in raw.get("involutions", ())]
        for module in raw.get("modules", ()):
            for twist in twists:
                for method in ("all", "def", "sep", "sym"):
                    argv = ["indicator", path, "--module", module["name"],
                            "--method", method]
                    if twist is not None:
                        argv += ["--twist", twist]
                    out += [argv, argv + ["--json"]]
    for two_ell in range(QSL2_MAX + 1):
        for twisted in ((), ("--twisted",)):
            argv = ["qsl2", str(two_ell), "--max", str(QSL2_MAX), *twisted]
            out += [argv, argv + ["--json"]]
    for two_ell in QSL2_LARGE:
        for twisted in ((), ("--twisted",)):
            out.append(["qsl2", str(two_ell), "--max", str(max(QSL2_LARGE)),
                        "--json", *twisted])
    plan = workloads.make_plan("regular", REGULAR_SEED, workdir)
    out += [c["argv"] for commands in plan["passes"] for c in commands]
    s4 = _write(workdir, "S4-reg.json", workloads.regular_document(
        "S4-reg", "rational", [list(row) for row in s4_table().table]))
    out += [["indicator", s4, "--module", "reg"],
            ["indicator", s4, "--module", "reg", "--json"]]
    out += [["table", _write(workdir, name, raw), "--json"]
            for name, raw in _overridden().items()]
    for path in _malformed(workdir):
        out += [["check", path], ["table", path, "--json"]]
    out += [[], ["indicator"], ["qsl2", "9"], ["nonesuch"],
            ["indicator", _write(workdir, "S3-again.json",
                                 builtin_document("S3")), "--module", "nope"]]
    return out


def run(argv, workdir):
    """(argv, exit code, stdout, stderr) of one in-process command, with
    workdir written as <dir>."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [[a.replace(workdir, DIR) for a in argv], code,
            out.getvalue().replace(workdir, DIR),
            err.getvalue().replace(workdir, DIR)]


def record():
    """Every command's output, in list order."""
    with tempfile.TemporaryDirectory() as workdir:
        return [run(argv, workdir) for argv in commands(workdir)]


def load():
    with gzip.open(CORPUS, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write(entries, path=CORPUS):
    """Write the corpus as gzipped JSON, one command a line, with no
    timestamp in the gzip header so that equal outputs give equal bytes."""
    text = "[\n%s\n]\n" % ",\n".join(json.dumps(e, ensure_ascii=False)
                                     for e in entries)
    with open(path, "wb") as raw, \
            gzip.GzipFile(filename="", fileobj=raw, mode="wb",
                          mtime=0) as fh:
        fh.write(text.encode("utf-8"))


if __name__ == "__main__":
    entries = record()
    write(entries)
    print("%d commands recorded in %s" % (len(entries), CORPUS))
