"""End-to-end runs of the fsind command line."""

import collections
import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

from fsind import cli, formulas, linalg, pivotal
from fsind.cli import main
from fsind.constructors import builtin_document, builtin_names
from fsind.documents import document_from_dict
from fsind.scalars import RATIONAL

from small_algebras import s4_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

K3_TEXT = "3 2\n0 1 1\n1 0 1\n1 1 0\n"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_builtin(tmp_path, name, mutate=None):
    raw = builtin_document(name)
    if mutate:
        mutate(raw)
    path = tmp_path / ("%s.json" % name.lower())
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


# --- check ---------------------------------------------------------------------

def test_check_group_document(tmp_path, capsys):
    path = write_builtin(tmp_path, "S3")
    code, out, err = run(capsys, "check", path)
    assert code == 0 and err == ""
    assert out.startswith("ok: S3 (group, dim 6")
    assert "modules: triv, sign, std" in out
    assert "declared complete simples" in out


def test_check_scheme_text(tmp_path, capsys):
    path = tmp_path / "k3.scheme"
    path.write_text(K3_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    assert "(scheme, dim 2" in out


def test_check_invalid_table(tmp_path, capsys):
    path = write_builtin(
        tmp_path, "C2",
        mutate=lambda raw: raw["group"].update(table=[[0, 1], [1, 1]]))
    code, out, err = run(capsys, "check", path)
    assert code == 1
    assert "invalid:" in out + err


def test_check_unreadable_and_unparseable(tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "invalid JSON" in err


def _check_in_subprocess(path):
    src = str(PYPROJECT.parent / "src")
    return subprocess.run([sys.executable, "-m", "fsind.cli", "check", path],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_non_ascii_digit_in_a_matrix_entry_is_exit_2(tmp_path):
    # "²".isdigit() is True, but int("²") raises ValueError
    path = write_builtin(
        tmp_path, "C2",
        mutate=lambda raw: raw["modules"][0].update(action=[[["1"]], [["²"]]]))
    out = _check_in_subprocess(path)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "unexpected '²'" in out.stderr


def test_non_ascii_digit_in_scheme_text_is_exit_2(tmp_path):
    path = tmp_path / "k3.scheme"
    path.write_text(K3_TEXT.replace("0 1 1\n", "0 1 ²\n"), encoding="utf-8")
    out = _check_in_subprocess(str(path))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "non-negative integers" in out.stderr


@pytest.mark.parametrize("key", ["modules", "involutions"])
def test_non_list_section_is_exit_2(tmp_path, key):
    path = write_builtin(tmp_path, "C2", mutate=lambda raw: raw.update({key: 5}))
    out = _check_in_subprocess(path)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr == "error: %s: expected a list of objects\n" % key


def test_module_violation_names_the_module_once(tmp_path, capsys):
    def mutate(raw):
        raw["modules"] = [{"name": "a", "dim": 1, "action": [[["1"]], [["2"]]]}]
        raw.pop("simples", None)

    path = write_builtin(tmp_path, "C2", mutate=mutate)
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert out == "invalid: module 'a': action breaks at (1, 1)\n"
    code, _, err = run(capsys, "table", path)
    assert code == 1
    assert err == "invalid: module 'a': action breaks at (1, 1)\n"


def test_empty_coalgebra_is_exit_2(tmp_path, capsys):
    def mutate(raw):
        raw["coalgebra"].update(labels=[], comult=[], counit=[], S=[],
                                gamma=[])

    path = write_builtin(tmp_path, "coalg-C2", mutate=mutate)
    for command in ("check", "table"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, "")
        assert err == "error: coalgebra.counit: expected a non-empty list\n"


def test_coalgebra_and_module_violations_are_reported_together(tmp_path,
                                                               capsys):
    def mutate(raw):
        raw["coalgebra"]["gamma"] = ["1", "2", "2"]
        raw["modules"] = [{"name": "a", "dim": 1,
                           "action": [[["1"]], [["1"]], [["1"]]]}]

    path = write_builtin(tmp_path, "coalg-C3", mutate=mutate)
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "invalid: S(g) is not the inverse of g\n" in out
    assert "invalid: module 'a': action breaks at (0, 1)\n" in out


@pytest.mark.parametrize("literal, message", [
    ("1/0", "division by zero at position 1 (column 1 in '1/0')"),
    ("2 +", "unexpected end of input at position 3 (column 3 in '2 +')"),
    ("z", "'z' is only valid over a cyclotomic field"),
])
def test_a_repeated_bad_literal_names_its_first_cell(tmp_path, capsys,
                                                     literal, message):
    def mutate(raw):
        action = raw["modules"][2]["action"]
        action[1][0][1] = action[1][1][0] = action[3][0][0] = literal

    code, _, err = run(capsys, "check", write_builtin(tmp_path, "S3", mutate))
    assert code == 2
    assert err == "error: modules[2].action[1][0][1]: %s\n" % message


@pytest.mark.parametrize("cell, message", [
    (True, "scalars must be integers or grammar strings, got True"),
    (1.5, "scalars must be integers or grammar strings, got 1.5"),
    ("1.5", "unexpected '.' at position 1 (column 1 in '1.5')"),
])
def test_a_bad_cell_after_a_good_repeat_is_refused(tmp_path, capsys, cell,
                                                   message):
    def mutate(raw):
        raw["modules"][2]["action"][1] = [[1, "1"], [cell, "0"]]

    code, _, err = run(capsys, "check", write_builtin(tmp_path, "S3", mutate))
    assert code == 2
    assert err == "error: modules[2].action[1][1][0]: %s\n" % message


def test_bad_usage_is_exit_2(capsys):
    assert main([]) == 2
    assert main(["indicator"]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main() reuses the parser it built first; a usage error must leave
    # nothing behind that changes the next command's output
    path = write_builtin(tmp_path, "S3")
    commands = [("indicator",), ("indicator", path, "--module", "std")]

    def fresh(argv):
        cli.build_parser.cache_clear()
        return run(capsys, *argv)

    expected = [fresh(argv) for argv in commands]
    assert expected[0][0] == 2 and expected[1][0] == 0
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in commands] == expected


# --- indicator -------------------------------------------------------------------

def test_indicator_json_all_methods(tmp_path, capsys):
    path = write_builtin(tmp_path, "Q8")
    code, out, err = run(capsys, "indicator", path, "--module", "twodim",
                         "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["document"] == "Q8"
    assert payload["nu"] == "-1"
    assert payload["report"]["dim_bil"] == 1
    assert payload["report"]["dim_minus"] == 1
    assert payload["methods"]["definition"]["nu"] == "-1"
    assert payload["methods"]["separability"]["nu"] == "-1"
    assert payload["methods"]["symmetric"]["nu"] == "-1"
    assert payload["methods"]["symmetric"]["schur"] == "4"
    assert payload["discrepancy"] is False


def test_indicator_on_the_regular_module_of_s4(tmp_path, capsys):
    """The order-24 definition route through the loader: nu of the regular
    module is #{g : g^2 = 1} = 10."""
    table = [list(row) for row in s4_table().table]
    action = [[["1" if table[g][h] == r else "0" for h in range(24)]
               for r in range(24)] for g in range(24)]
    path = tmp_path / "s4-reg.json"
    path.write_text(json.dumps({
        "field": "rational", "group": {"table": table},
        "modules": [{"name": "reg", "dim": 24, "action": action}]}),
        encoding="utf-8")
    code, out, err = run(capsys, "indicator", str(path), "--module", "reg",
                         "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["nu"] == "10"
    assert payload["report"]["dim_bil"] == payload["report"]["end_dim"] == 24
    assert payload["discrepancy"] is False


# The whole `indicator --module reg --json` output for a regular module:
# it does not depend on how the group elements are labelled.
REGULAR_REPORT = """{
  "document": "%(group)s-reg",
  "module": "reg",
  "twist": null,
  "nu": "%(nu)d",
  "report": {
    "nu": "%(nu)d",
    "dim_bil": %(order)d,
    "dim_plus": %(plus)d,
    "dim_minus": %(minus)d,
    "end_dim": %(order)d,
    "self_dual": true,
    "abs_simple": false,
    "canonical_form": null
  },
  "methods": {
    "definition": {
      "nu": "%(nu)d"
    },
    "separability": {
      "nu": "%(nu)d"
    },
    "symmetric": {
      "skipped": "module is not absolutely simple"
    }
  },
  "discrepancy": false
}
"""


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("group, nu, plus, minus", [
    ("D5", 6, 8, 2), ("Q8", 2, 5, 3), ("S3", 4, 5, 1)])
def test_regular_indicator_output_is_pinned(tmp_path, capsys, group, nu,
                                            plus, minus, seed):
    """D5 over Q, Q8 over Q(i) and S3 over Q(z_3), relabelled by a seeded
    permutation as in the benchmark's regular workload."""
    _, field, table = next(g for g in workloads.REGULAR_GROUPS
                           if g[0] == group)
    perm = list(range(len(table)))
    random.Random(seed).shuffle(perm)
    assert perm != sorted(perm)
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(workloads.regular_document(
        group + "-reg", field, workloads.relabel(table, perm))))
    code, out, err = run(capsys, "indicator", str(path), "--module", "reg",
                         "--json")
    assert (code, err) == (0, "")
    assert out == REGULAR_REPORT % {"group": group, "nu": nu,
                                    "order": len(table), "plus": plus,
                                    "minus": minus}


def test_indicator_twist(tmp_path, capsys):
    path = write_builtin(tmp_path, "C3-inv")
    code, out, _ = run(capsys, "indicator", path, "--module", "chi1", "--json")
    assert code == 0 and json.loads(out)["nu"] == "0"
    code, out, _ = run(capsys, "indicator", path, "--module", "chi1",
                       "--twist", "inv", "--json")
    assert code == 0 and json.loads(out)["nu"] == "1"


def test_indicator_human_output(tmp_path, capsys):
    path = write_builtin(tmp_path, "S3")
    code, out, _ = run(capsys, "indicator", path, "--module", "std")
    assert code == 0
    assert "nu:       1" in out
    assert "canonical form:" in out
    assert "methods:" in out


def test_indicator_unknown_names(tmp_path, capsys):
    path = write_builtin(tmp_path, "S3")
    code, _, err = run(capsys, "indicator", path, "--module", "ghost")
    assert code == 2 and "unknown module" in err
    code, _, err = run(capsys, "indicator", path, "--module", "std",
                       "--twist", "ghost")
    assert code == 2 and "unknown involution" in err


def test_indicator_single_method_unavailable(tmp_path, capsys):
    raw = {
        "field": "rational",
        "algebra": {
            "labels": ["1", "x"],
            "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]],
            "unit": [1, 0],
            "S": [[1, 0], [0, 1]],
            "g": [1, 0],
        },
        "modules": [{"name": "triv", "dim": 1, "action": [[[1]], [[0]]]}],
    }
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run(capsys, "indicator", str(path), "--module", "triv",
                       "--method", "sep")
    assert code == 2 and "unavailable" in err
    # but the definition route has nothing to complain about
    code, out, _ = run(capsys, "indicator", str(path), "--module", "triv",
                       "--method", "def", "--json")
    assert code == 0 and json.loads(out)["nu"] == "1"


def test_symmetric_method_refuses_a_non_simple_module(tmp_path, capsys):
    path = write_builtin(tmp_path, "S3-grouplike")
    code, out, err = run(capsys, "indicator", path, "--module", "standard",
                         "--method", "sym")
    assert code == 2 and out == ""
    assert err == ("error: method 'sym' unavailable: module 'standard' is"
                   " not absolutely simple; the dual-basis formula is"
                   " heuristic here\n")


def test_indicator_discrepancy_path(tmp_path, capsys, monkeypatch):
    path = write_builtin(tmp_path, "S3")
    monkeypatch.setattr(cli, "fs_via_separability",
                        lambda A, V, E: A.tag.coerce(7))
    code, out, err = run(capsys, "indicator", path, "--module", "std",
                         "--json")
    assert code == 1
    assert "DISCREPANCY" in err
    assert json.loads(out)["discrepancy"] is True


# --- table ----------------------------------------------------------------------

def test_table_s3_json(tmp_path, capsys):
    path = write_builtin(tmp_path, "S3")
    code, out, _ = run(capsys, "table", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "group"
    assert [c["module"] for c in payload["cells"]] == ["triv", "sign", "std"]
    assert all(c["nu"] == "1" for c in payload["cells"])
    assert payload["regular"] == [{"twist": None, "trace_q": "4"}]
    chk = payload["trace_s_checks"][0]
    assert chk["lhs"] == "4" and chk["rhs"] == "4" and chk["equal"]
    assert payload["discrepancy"] is False


def test_table_runs_twists(tmp_path, capsys):
    path = write_builtin(tmp_path, "C3-inv")
    code, out, _ = run(capsys, "table", path, "--json")
    assert code == 0
    payload = json.loads(out)
    twists = {(c["module"], c["twist"]): c["nu"] for c in payload["cells"]}
    assert twists[("chi1", None)] == "0"
    assert twists[("chi1", "inv")] == "1"
    regular = {e["twist"]: e["trace_q"] for e in payload["regular"]}
    assert regular == {None: "1", "inv": "3"}


def test_table_computes_each_indicator_once(tmp_path, capsys, monkeypatch):
    # C3-inv: 3 modules x 2 twists, and the trace(S) checks reuse the cells
    original = pivotal.fs_indicator
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("fsind")
                and getattr(mod, "fs_indicator", None) is original):
            monkeypatch.setattr(mod, "fs_indicator", counting)
    path = write_builtin(tmp_path, "C3-inv")
    code, out, _ = run(capsys, "table", path, "--json")
    assert code == 0
    assert len(json.loads(out)["trace_s_checks"]) == 2
    assert len(calls) == 6


def test_doi_runs_under_a_matrix_involution(tmp_path, capsys):
    # R1 -> R0 - R1 swaps the two characters of K3; it is no permutation
    swap = {"name": "swap", "matrix": [["1", "1"], ["0", "-1"]]}
    path = write_builtin(tmp_path, "scheme-K3",
                         mutate=lambda raw: raw.update(involutions=[swap]))
    code, out, _ = run(capsys, "table", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["discrepancy"] is False
    cells = {c["module"]: c for c in payload["cells"] if c["twist"] == "swap"}
    assert sorted(cells) == ["chi1", "valency"]
    for c in cells.values():
        assert c["nu"] == "0" and not c["discrepancy"]
        assert c["methods"]["definition"] == {"nu": "0"}
        assert c["methods"]["symmetric"]["nu"] == "0"
        assert c["methods"]["doi"] == {"nu": "0"}


def test_table_coalgebra_cross_check(tmp_path, capsys):
    path = write_builtin(tmp_path, "coalg-C3")
    code, out, _ = run(capsys, "table", path, "--json")
    assert code == 0
    block = json.loads(out)["coalgebra"]
    assert block["agree"] is True
    assert block["regular_indicator"] == "1"
    assert block["coregular_definition_nu"] == "1"


def test_table_doi_rows_for_bare_scheme(tmp_path, capsys):
    path = tmp_path / "k3.scheme"
    path.write_text(K3_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "table", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["doi_rows"] == [
        {"module": "(valency)", "twist": None, "nu": "1"}]


def test_table_human_output(tmp_path, capsys):
    path = write_builtin(tmp_path, "Q8")
    code, out, _ = run(capsys, "table", path)
    assert code == 0
    assert "regular module trace(Q): 2" in out
    assert "trace(S): lhs = 2, rhs = 2 (equal)" in out
    assert "DISCREPANCY" not in out


def test_table_catches_wrong_simples_list(tmp_path, capsys):
    def mutate(raw):
        triv = next(m for m in raw["modules"] if m["name"] == "triv")
        chi2 = next(m for m in raw["modules"] if m["name"] == "chi2")
        raw["modules"] = [triv, dict(triv, name="trivb"),
                          chi2, dict(chi2, name="chi2b")]
        raw["simples"] = ["triv", "trivb", "chi2", "chi2b"]
        raw.pop("involutions", None)

    path = write_builtin(tmp_path, "C4", mutate=mutate)
    code, out, err = run(capsys, "table", path, "--json")
    assert code == 1
    assert "DISCREPANCY" in err
    payload = json.loads(out)
    assert payload["trace_s_checks"][0]["equal"] is False


def test_table_json_is_reproducible(tmp_path, capsys):
    for name in ("S3", "Q8", "scheme-K3", "coalg-C4"):
        path = write_builtin(tmp_path, name)
        _, first, _ = run(capsys, "table", path, "--json")
        _, second, _ = run(capsys, "table", path, "--json")
        assert first == second


# --- qsl2, catalog, example --------------------------------------------------------

def test_qsl2_json(capsys):
    code, out, _ = run(capsys, "qsl2", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["two_ell"] == 1 and payload["twisted"] is False
    assert payload["nu"] == "-1"
    assert payload["canonical_form"] == [["0", "1"], ["-q", "0"]]
    code, out, _ = run(capsys, "qsl2", "1", "--twisted", "--json")
    assert json.loads(out)["nu"] == "1"


def test_qsl2_bound(capsys):
    code, _, err = run(capsys, "qsl2", "9")
    assert code == 2 and "bound" in err
    code, out, _ = run(capsys, "qsl2", "9", "--max", "9", "--json")
    assert code == 0 and json.loads(out)["nu"] == "-1"


def test_qsl2_human_output(capsys):
    code, out, err = run(capsys, "qsl2", "2")
    assert code == 0 and err == ""
    assert out == (
        "V with 2l = 2 (dim 3), untwisted\n"
        "nu = 1\n"
        "End dim = 1; invariant form space dim = 1\n"
        "canonical invariant form:\n"
        "  [ 0    0               1 ]\n"
        "  [ 0    (-q^2 - 1)/(q)  0 ]\n"
        "  [ q^2  0               0 ]\n")


CATALOG = Path(__file__).resolve().parents[1] / "bench" / "expected" / "catalog"


@pytest.mark.parametrize("name", builtin_names())
def test_table_json_matches_the_recorded_catalog(name, tmp_path, capsys):
    path = str(tmp_path / ("%s.json" % name))
    assert main(["example", name, "-o", path]) == 0
    assert main(["table", path, "--json"]) == 0
    assert capsys.readouterr().out == \
        (CATALOG / ("%s.json" % name)).read_text(encoding="utf-8")


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in builtin_names():
        assert name in out


def test_example_round_trip(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run(capsys, "example", "q8", "-o", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == builtin_document("Q8")
    code, out, _ = run(capsys, "example", "S3")
    assert code == 0 and json.loads(out) == builtin_document("S3")
    code, _, err = run(capsys, "example", "nonesuch")
    assert code == 2 and "nonesuch" in err


def test_skip_validation_env(tmp_path, capsys, monkeypatch):
    raw = {
        "field": "rational",
        "algebra": {
            "labels": ["1", "x"],
            "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]],
            "unit": [1, 0],
            "S": [[0, 1], [1, 0]],
            "g": [1, 0],
        },
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, _, _ = run(capsys, "check", str(path))
    assert code == 1
    monkeypatch.setenv("FSIND_SKIP_VALIDATION", "1")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and out.startswith("ok:")


def test_inconsistent_unvalidated_data_is_exit_1(tmp_path, capsys,
                                                monkeypatch):
    """kC2 (x x = 1) with S(1) = 0, S(x) = 1 and g = x, loaded unchecked:
    the transposed regular forms leave the form span. The core names that
    check as a violation, where it used to end in a traceback."""
    raw = {
        "field": "rational",
        "algebra": {
            "dim": 2,
            "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
            "unit": [1, 0],
            "S": [[0, 1], [0, 0]],
            "g": [0, 1],
        },
        "modules": [{"name": "reg", "dim": 2,
                     "action": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}],
    }
    path = tmp_path / "kc2.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setenv("FSIND_SKIP_VALIDATION", "1")
    for argv in (("indicator", str(path), "--module", "reg"),
                 ("table", str(path))):
        assert run(capsys, *argv) == (
            1, "", "invalid: transposed form outside the form span\n")


def test_reports_reach_no_dense_product_or_solve(tmp_path, capsys,
                                                 monkeypatch):
    """table --json on every builtin and qsl2 2l = 0..10, twisted or not,
    call no dense product, dense inverse or dense span solve: algebra data
    stay sparse from the loader to the report."""
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for attr in ("__mul__", "apply"):
        monkeypatch.setattr(linalg.Matrix, attr, counted(
            "Matrix." + attr, getattr(linalg.Matrix, attr)))
    for attr in ("inverse", "_rref_in_place", "solve_in_span"):
        original = getattr(linalg, attr)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "fsind" and \
                    getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, counted(attr, original))
    for name in builtin_names():
        path = write_builtin(tmp_path, name)
        assert main(["table", path, "--json"]) == 0, name
    for two_ell in range(11):
        for twisted in ([], ["--twisted"]):
            assert main(["qsl2", str(two_ell), "--max", "10", "--json"]
                        + twisted) == 0
    capsys.readouterr()
    assert calls == {}
    # the wrappers are live: inverse eliminates through _rref_in_place
    linalg.inverse(linalg.Matrix.identity(RATIONAL, 1))
    assert calls == {"inverse": 1, "_rref_in_place": 1}


def test_data_stay_sparse_from_document_to_report(tmp_path, capsys,
                                                  monkeypatch):
    """Loading every builtin and the D5, Q8 and S3 regular documents builds
    no Matrix, and calls pivotal._sparse only where the dual of a coalgebra
    takes its unit and g from the counit and gamma covectors. Over
    table --json on every builtin, indicator --json on those regular
    documents and qsl2 2l = 0..10, Matrix.from_sparse runs only for a
    canonical form or for a self-duality pencil's sum. Structural counts
    only, no clock."""
    calls = collections.Counter()

    def by_caller(name, f):
        def wrapper(*args, **kwargs):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg.Matrix, "__init__",
                        by_caller("Matrix", linalg.Matrix.__init__))
    sparse = pivotal._sparse
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fsind" and \
                getattr(mod, "_sparse", None) is sparse:
            monkeypatch.setattr(mod, "_sparse", by_caller("_sparse", sparse))
    paths = [write_builtin(tmp_path, name) for name in builtin_names()]
    regular = []
    for name, field, table in workloads.REGULAR_GROUPS:
        path = tmp_path / ("%s-reg.json" % name)
        path.write_text(json.dumps(workloads.regular_document(
            name, field, table)), encoding="utf-8")
        regular.append(str(path))
    for path in paths + regular:
        assert main(["check", path]) == 0, path
    capsys.readouterr()
    coalgebras = sum("coalgebra" in builtin_document(name)
                     for name in builtin_names())
    assert coalgebras and calls == {("_sparse", "dualize_coalgebra"):
                                    2 * coalgebras}

    calls.clear()
    monkeypatch.setattr(linalg.Matrix, "from_sparse", staticmethod(
        by_caller("from_sparse", linalg.Matrix.from_sparse)))
    core, forms = pivotal.indicator_from_presentation, [0]

    def counted_core(*args):
        rep = core(*args)
        forms[0] += rep.canonical_form is not None
        return rep
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fsind" and \
                getattr(mod, "indicator_from_presentation", None) is core:
            monkeypatch.setattr(mod, "indicator_from_presentation",
                                counted_core)
    for path in paths:
        assert main(["table", path, "--json"]) == 0, path
    for path in regular:
        assert main(["indicator", path, "--module", "reg", "--json"]) == 0
    for two_ell in range(11):
        assert main(["qsl2", str(two_ell), "--max", "10", "--json"]) == 0
    capsys.readouterr()
    assert forms[0] > 0
    assert calls[("from_sparse", "indicator_from_presentation")] == forms[0]
    assert {caller for name, caller in calls if name == "from_sparse"} <= {
        "indicator_from_presentation", "span_contains_invertible"}


def test_group_documents_reach_no_scalar_check(tmp_path, capsys,
                                               monkeypatch):
    """Group documents cost index arithmetic where their constructor already
    proves the facts: loading a regular-module document compares its
    permutation actions by index maps, calling no pivotal._times, and
    table --json on every group builtin takes the idempotent group_algebra
    handed over, calling no formulas.validate_separability. Structural
    counts only, no clock."""
    calls = collections.Counter()

    def counted(mod, attr):
        original = getattr(mod, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(mod, attr, wrapper)

    counted(pivotal, "_times")
    counted(formulas, "validate_separability")
    for name, field, table in workloads.REGULAR_GROUPS:
        path = tmp_path / ("%s-reg.json" % name)
        path.write_text(json.dumps(workloads.regular_document(
            name, field, table)), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert main(["indicator", str(path), "--module", "reg",
                     "--json"]) == 0
    assert calls == {}
    for name in builtin_names():
        if "group" in builtin_document(name):
            assert main(["table", write_builtin(tmp_path, name), "--json"]) \
                == 0, name
    capsys.readouterr()
    assert calls["validate_separability"] == 0
    calls.clear()
    # the wrappers are live: S3's 2-dim simple is no permutation module, and
    # an edited integral is checked
    doc = document_from_dict(builtin_document("S3"))
    pivotal.validate_module(doc.algebra, doc.modules["std"])
    formulas.hopf_integral_idempotent(dataclasses.replace(doc.algebra))
    assert calls["_times"] > 0 and calls["validate_separability"] == 1


def script_target():
    """The `module:attr` target of `fsind` in [project.scripts] of pyproject.toml.

    Python 3.10, the oldest supported, has no tomllib, so the entry's line is
    read directly; where tomllib exists, it must read the same target.
    """
    text = PYPROJECT.read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text,
                      re.M | re.S)
    assert table, "pyproject.toml has no [project.scripts] table"
    line = re.search(r'^fsind\s*=\s*"([^"]+)"\s*$', table.group(1), re.M)
    assert line, "[project.scripts] has no fsind entry"
    if tomllib is not None:
        assert tomllib.loads(text)["project"]["scripts"]["fsind"] == line.group(1)
    return line.group(1)


def run_script_target(*argv):
    """Run the `fsind` entry point as the installed console script runs it."""
    module, attr = script_target().split(":")
    wrapper = "import sys\nfrom %s import %s\nsys.exit(%s())" % (
        module, attr, attr)
    return subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True)


def test_console_script():
    out = subprocess.run([sys.executable, "-m", "fsind.cli", "catalog"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "S3" in out.stdout
    script = run_script_target("qsl2", "0", "--json")
    assert script.returncode == 0, script.stderr
    assert json.loads(script.stdout)["nu"] == "1"
    # sys.exit(None) also exits 0: only a failing command shows a target
    # that drops main's exit code
    assert run_script_target("qsl2", "9").returncode == 2


@pytest.mark.skipif(shutil.which("fsind") is None,
                    reason="no fsind script on PATH; pip install -e . adds one")
def test_installed_script_matches_entry_point():
    argv = ("qsl2", "0", "--json")
    installed = subprocess.run(["fsind", *argv], capture_output=True)
    assert installed.returncode == 0, installed.stderr
    assert installed.stdout == run_script_target(*argv).stdout


def test_import_loads_no_installed_package():
    """fsind is stdlib-only (pyproject `dependencies = []`): importing it,
    CLI included, loads nothing from site-packages. Modules that site's
    .pth hooks load at start-up are set aside."""
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "import fsind, fsind.cli\n"
             "print(json.dumps(sorted(\n"
             "    getattr(sys.modules[m], '__file__', None) or ''\n"
             "    for m in set(sys.modules) - before)))\n")
    src = str(PYPROJECT.parent / "src")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    files = json.loads(out.stdout)
    assert any(f.startswith(src) for f in files)
    assert [f for f in files if "site-packages" in Path(f).parts] == []
