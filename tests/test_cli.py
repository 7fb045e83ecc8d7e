"""End-to-end runs of the fsind command line."""

import json
import os
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

from fsind import cli
from fsind.cli import main
from fsind.constructors import builtin_document, builtin_names

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


def test_bad_usage_is_exit_2(capsys):
    assert main([]) == 2
    assert main(["indicator"]) == 2
    capsys.readouterr()


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


def test_indicator_discrepancy_path(tmp_path, capsys, monkeypatch):
    path = write_builtin(tmp_path, "S3")
    monkeypatch.setattr(cli, "fs_via_separability",
                        lambda A, V, E, twist=None: A.tag.coerce(7))
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
