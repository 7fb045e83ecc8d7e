"""Tests of the benchmark harness itself (not of fsind)."""

import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Loop  # noqa: E402


def _snapshot():
    """Every attribute of every fsind module and of its classes."""
    import fsind.cli  # noqa: F401
    snap = {}
    for mod in tracer._fsind_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(mod.__name__, key, attr)] = member
    return snap


def _small_plan(workload, tmp_path):
    """The workload's plan cut to its cheaper commands."""
    plan = workloads.make_plan(workload, 7, str(tmp_path))
    commands = plan["passes"][0]
    if workload == "regular":
        commands = [c for c in commands if "Q8-reg" not in c["argv"][1]]
    elif workload == "qsl2":
        commands = [c for c in commands if int(c["argv"][1]) <= 5]
    plan["passes"] = [commands]
    return plan


def test_uninstall_restores_every_attribute():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert "fsind.linalg.kernel_intersection" in tracer.wrapped_names()
        assert "fsind.pivotal.kernel_intersection" in tracer.wrapped_names()
        assert "fsind.qsl2.kernel_intersection" in tracer.wrapped_names()
    finally:
        t.uninstall()
    assert tracer.wrapped_names() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_untraced_loop_runs_without_wrappers(tmp_path):
    loop = Loop(_small_plan("qsl2", tmp_path))
    loop.run_pass(None)
    assert tracer.wrapped_names() == []
    assert loop.failures == []


def _squares(n):
    return sum(i * i for i in range(n))


def test_speedometer_scales_by_the_probes_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with speed.Speedometer() as sp:
        result, raw, scaled = sp.time_call(_squares, 10 ** 6)
    wall = time.perf_counter() - t0
    assert result == _squares(10 ** 6)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # probes before, inside and after the call; their time is not the call's
    assert len(sp.probes) >= 3
    assert 0 < raw <= wall - sp.spent
    assert scaled == pytest.approx(
        raw * speed.REFERENCE_S / statistics.harmonic_mean(sp.probes))


def test_untraced_run_scales_command_times(tmp_path):
    loop = Loop(_small_plan("catalog", tmp_path))
    with speed.Speedometer() as sp:
        scaled = loop.run_pass(None, sp)
    assert loop.failures == []
    assert len(scaled) == len(loop.raw_passes[0]) == len(loop.passes[0])
    assert scaled != loop.raw_passes[0]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_spans_cover_each_command(workload, tmp_path):
    """Child spans cover at least 90% of every command's wall time.

    The CLI's fixed cost (building the argument parser, rendering JSON) is
    its own time, about a millisecond; commands that take only a few
    milliseconds may leave up to 5 ms uncovered.
    """
    loop = Loop(_small_plan(workload, tmp_path))
    t = tracer.Tracer()
    t.install()
    try:
        loop.run_pass(t)
    finally:
        t.uninstall()
    assert loop.failures == []
    assert len(t.commands) == len(loop.passes[0])
    for argv, wall, covered in t.commands:
        assert wall - covered <= max(0.1 * wall, 0.005), (argv, wall, covered)


def test_kernel_counters_read_from_kernel_intersection():
    from fsind.qsl2 import qsl2_indicator
    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            qsl2_indicator(3)
    finally:
        t.uninstall()
    # two systems of three constraints each: invariant forms and End(V)
    assert t.group_calls["linalg.kernel_intersection"] == 2
    assert t.counts["linalg.constraints"] == 6
    assert t.counts["linalg.kernel_steps"] == 6
    assert 0 < t.counts["linalg.kernel_shrinks"] <= 6
    assert t.counts["linalg.constraint_cells"] == 6 * 16 * 16


@pytest.mark.parametrize("check, stdout, expect_ok", [
    ({"kind": "regular", "order": 8, "nu": 2},
     {"nu": "2", "report": {"dim_bil": 8, "end_dim": 8},
      "methods": {"separability": {"nu": "2"}}, "discrepancy": False}, True),
    ({"kind": "regular", "order": 8, "nu": 2},
     {"nu": "6", "report": {"dim_bil": 8, "end_dim": 8},
      "methods": {"separability": {"nu": "6"}}, "discrepancy": False}, False),
    ({"kind": "regular", "order": 8, "nu": 2},
     {"nu": "2", "report": {"dim_bil": 8, "end_dim": 8},
      "methods": {"separability": {"nu": "0"}}, "discrepancy": True}, False),
    ({"kind": "regular", "order": 8, "nu": 2},
     {"nu": "2", "report": {"dim_bil": 7, "end_dim": 8},
      "methods": {"separability": {"nu": "2"}}, "discrepancy": False}, False),
])
def test_regular_check(check, stdout, expect_ok):
    reason = workloads.check_output(check, 0, json.dumps(stdout))
    assert (reason is None) == expect_ok


def test_byte_checks_reject_changed_output():
    path = workloads.qsl2_expected_path(3, False)
    with open(path, encoding="utf-8") as fh:
        good = fh.read()
    check = {"kind": "qsl2", "nu": -1, "expected": path}
    assert workloads.check_output(check, 0, good) is None
    assert workloads.check_output(check, 0, good.replace("  ", " ")) \
        is not None
    assert workloads.check_output(check, 1, good) is not None


def test_regular_inputs_follow_the_seed(tmp_path):
    def documents(seed, sub):
        os.mkdir(tmp_path / sub)
        plan = workloads.make_plan("regular", seed, str(tmp_path / sub))
        texts = []
        for commands in plan["passes"]:
            assert [c["check"]["nu"] for c in commands] == [6, 2, 4]
            for command in commands:
                with open(command["argv"][1], encoding="utf-8") as fh:
                    texts.append(fh.read())
        return texts

    a = documents(3, "a")
    assert a == documents(3, "b")
    assert a != documents(4, "c")
    # passes get their own labellings (S3 has only 120 distinct tables, so
    # a few repeats are expected)
    assert len(set(a)) > 0.9 * len(a)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py")] + list(args),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


@pytest.mark.parametrize("trace, names", [
    ("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_one_command_prints_every_metric(trace, names):
    proc = _run_bench("--workload", "catalog", "--seed", "0",
                      "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 14
    assert list(result["metrics"]) == list(names)
    for name, entry in result["metrics"].items():
        unit = names[name] if trace == "0" else names[name][0]
        assert entry["unit"] == unit
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines[:-1]), name
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench("--workload", "catalog", "--seed", "0", "--seconds",
                      "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
