"""Smoke runs of the helper scripts under scripts/."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from fsind.cli import main
from fsind.constructors import builtin_document

ROOT = Path(__file__).resolve().parents[1]
MODULE_LINE = re.compile(r"^  (\S+)\s+dim \d+\s+\[[s-][a-]\]\s+(.*)$")


def test_survey_builtins_matches_table(tmp_path, capsys):
    names = ["S3", "coalg-C2"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "survey_builtins.py"),
         "--only", *names],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr

    surveyed = {}  # document -> {module: def= value}
    document = None
    for line in proc.stdout.splitlines():
        if line and not line.startswith(" ") and "  (" in line:
            document = line.split()[0]
            surveyed[document] = {}
            continue
        match = MODULE_LINE.match(line)
        if match:
            values = dict(v.split("=", 1) for v in match.group(2).split())
            surveyed[document][match.group(1)] = values["def"]
    assert list(surveyed) == names

    for name in names:
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(builtin_document(name)), encoding="utf-8")
        assert main(["table", str(path), "--json"]) == 0
        table = json.loads(capsys.readouterr().out)
        expected = {c["module"]: c["methods"]["definition"]["nu"]
                    for c in table["cells"] if c["twist"] is None}
        assert surveyed[name] == expected, name
