#!/usr/bin/env python3
"""Benchmark of fsind: set-up, pass and per-command times, memory, layers.

    python3 bench/run.py --workload catalog|regular|qsl2|all --seed N \\
        --seconds S --trace 0|1 [--out FILE]

Run from the repository root. Uses the standard library only and imports
fsind from ``src/``. For each workload it writes the seeded inputs into a
temporary directory of the checkout. An untraced run times the set-up in
five fresh processes. Then the workload runs in one more fresh process as
a closed loop (one caller, commands back to back, one thread) for S
seconds, and every output is checked. Workloads and checks are described
in workloads.py.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs a third of the time untraced and the rest with every layer wrapped
(tracer.py), and reports per-layer metrics, the tracing overhead and the
scalar microbench (scalar_ops.py). Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--out`` also writes the full record, with
machine info and sample counts, as JSON. With ``--workload all`` the three
workloads run one after the other and metric names get the workload as a
prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads  # noqa: E402

SETUP_RUNS = 5
TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, tracer group or count, what is read from it)
PER_LAYER = {
    "documents.load_s": ("s", "documents.load", "time"),
    "documents.load_calls": ("count", "documents.load", "calls"),
    "constructors.build_s": ("s", "constructors.build", "time"),
    "pivotal.validate_s": ("s", "pivotal.validate", "time"),
    "pivotal.validate_pivotal_s": ("s", "pivotal.validate_pivotal", "time"),
    "pivotal.fs_indicator_s": ("s", "pivotal.fs_indicator", "time"),
    "pivotal.fs_indicator_calls": ("count", "pivotal.fs_indicator", "calls"),
    "pivotal.form_space_s": ("s", "pivotal.form_space", "time"),
    "pivotal.hom_space_s": ("s", "pivotal.hom_space", "time"),
    "pivotal.self_dual_s": ("s", "pivotal.self_dual", "time"),
    "pivotal.transposition_s": ("s", "pivotal.transposition", "time"),
    "linalg.kernel_intersection_s": ("s", "linalg.kernel_intersection",
                                     "time"),
    "linalg.kernel_intersection_calls": ("count",
                                         "linalg.kernel_intersection",
                                         "calls"),
    "linalg.constraints": ("count", "linalg.constraints", "count"),
    "linalg.constraint_cells": ("count", "linalg.constraint_cells", "count"),
    "linalg.kernel_shrink_ratio": ("ratio", None, None),
    "linalg.rref_s": ("s", "linalg.rref", "time"),
    "linalg.rref_calls": ("count", "linalg.rref", "calls"),
    "linalg.rref_cells": ("count", "linalg.rref_cells", "count"),
    "linalg.apply_s": ("s", "linalg.apply", "time"),
    "linalg.apply_calls": ("count", "linalg.apply", "calls"),
    "linalg.matmul_s": ("s", "linalg.matmul", "time"),
    "linalg.det_s": ("s", "linalg.det", "time"),
    "linalg.det_calls": ("count", "linalg.det", "calls"),
    "scalars.cyclotomic_ops": ("count", "scalars.cyclotomic", "calls"),
    "scalars.cyclotomic_s": ("s", "scalars.cyclotomic", "time"),
    "scalars.ratfun_ops": ("count", "scalars.ratfun", "calls"),
    "scalars.ratfun_s": ("s", "scalars.ratfun", "time"),
    "formulas.separability_s": ("s", "formulas.separability", "time"),
    "formulas.symmetric_s": ("s", "formulas.symmetric", "time"),
    "formulas.doi_s": ("s", "formulas.doi", "time"),
    "formulas.trace_checks_s": ("s", "formulas.trace_checks", "time"),
    "formulas.routes_run": ("count", None, None),
    "formulas.routes_skipped": ("count", None, None),
    "qsl2.build_s": ("s", "qsl2.build", "time"),
    "qsl2.indicator_s": ("s", "qsl2.indicator", "time"),
    "cli.self_s": ("s", None, None),
    "trace.overhead": ("ratio", None, None),
    "scalars.rational.mul_us": ("us", None, None),
    "scalars.rational.add_us": ("us", None, None),
    "scalars.cyclotomic.mul_us": ("us", None, None),
    "scalars.cyclotomic.add_us": ("us", None, None),
    "scalars.ratfun.mul_us": ("us", None, None),
    "scalars.ratfun.add_us": ("us", None, None),
}


def machine_info():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def child_env():
    # a fixed hash seed keeps the iteration order of str-keyed sets, and so
    # the work fsind does, the same from run to run
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, timeout):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")]
                          + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout,
                          env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("worker %s failed (exit %d):\n%s"
                         % (args[0], proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def shown(argv):
    """argv with paths relative to the checkout, for records and messages."""
    return [os.path.relpath(a, ROOT) if os.path.isabs(a) else a
            for a in argv]


def tail(samples):
    """Highest of p50, p90, p99, p99.9, ... with ten samples beyond it.

    Returns (value, percentile). The percentile steps by decades rather
    than following the sample count exactly: a workload's commands differ
    in cost by up to 500 times, so an order statistic that moved with the
    count of passes would jump from one kind of command to another between
    runs. Below 20 samples it is the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    d = 2  # one sample in d lies beyond the percentile
    for step in (10, 100, 1000, 10000, 100000):
        if n // step >= 10:
            d = step
    return ordered[n - 1 - n // d], 100.0 * (1 - 1 / d)


def measure(workload, seed, seconds, trace, workdir):
    """Run one workload; returns its record."""
    plan = workloads.make_plan(workload, seed, workdir)
    plan.update(seconds=seconds, trace=trace)
    plan_path = os.path.join(workdir, "%s-plan.json" % workload)
    out_path = os.path.join(workdir, "%s-result.json" % workload)
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    setups = [] if trace else [
        json.loads(worker(["setup", plan_path], 60))
        for _ in range(SETUP_RUNS)]
    worker(["run", plan_path, out_path], TIMEOUT_S)
    with open(out_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": raw["attempted"],
        "failed": len(raw["failures"]),
        "failed_frac": len(raw["failures"]) / raw["attempted"],
        "failures": [dict(f, argv=shown(f["argv"]))
                     for f in raw["failures"][:20]],
        "setup_samples": [s["setup_s"] for s in setups],
        "setup_raw_samples": [s["setup_raw_s"] for s in setups],
    }
    if trace:
        record.update(per_layer(raw))
    else:
        record.update(end_to_end(raw, setups))
    return record


def time_metrics(setups, passes):
    ops = [t for p in passes for t in p]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(sum(p) for p in passes),
        "op_s.p50": statistics.median(ops),
        "op_s.tail": tail(ops)[0],
    }


def end_to_end(raw, setups):
    """Metrics from scaled times (see speed.py); raw times go to ``raw``."""
    passes = raw["passes"]
    ops = [t for p in passes for t in p]
    values = time_metrics([s["setup_s"] for s in setups], passes)
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    tail_pct = tail(ops)[1]
    return {
        "raw": time_metrics([s["setup_raw_s"] for s in setups],
                            raw["raw_passes"]),
        "probes": raw["probes"],
        "probe_s": raw["probe_s"],
        "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in values.items()},
        "passes": len(passes),
        "samples": len(ops),
        "tail_percentile": tail_pct,
    }


def per_layer(raw):
    traced = raw["traced_passes"]
    n = len(traced)
    groups, counts = raw["groups"], raw["counts"]
    values = {}
    for name, (unit, key, kind) in PER_LAYER.items():
        if kind == "time":
            values[name] = groups.get(key, [0.0, 0])[0] / n
        elif kind == "calls":
            values[name] = groups.get(key, [0.0, 0])[1] / n
        elif kind == "count":
            values[name] = counts.get(key, 0) / n
    steps = counts.get("linalg.kernel_steps", 0)
    values["linalg.kernel_shrink_ratio"] = (
        counts.get("linalg.kernel_shrinks", 0) / steps if steps else 0.0)
    values["formulas.routes_run"] = raw["routes_run"] / n
    values["formulas.routes_skipped"] = raw["routes_skipped"] / n
    values["cli.self_s"] = sum(w - c for _, w, c in raw["commands"]) / n
    # pass k of both phases ran the same commands in the same order
    pairs = list(zip(traced, raw["untraced_passes"]))
    values["trace.overhead"] = (sum(sum(t) for t, _ in pairs)
                                / sum(sum(u) for _, u in pairs))
    values.update(raw["scalar_ops"])
    worst = min(raw["commands"], key=lambda c: c[2] / c[1])
    return {
        "metrics": {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                    for k in PER_LAYER},
        "passes": n,
        "untraced_passes": len(raw["untraced_passes"]),
        "samples": len(raw["commands"]),
        "lowest_coverage": {"argv": shown(worst[0]), "wall_s": worst[1],
                            "covered_s": worst[2]},
        "spans": [{"name": s[0], "calls": s[1], "total_s": s[2],
                   "self_s": s[3]} for s in raw["spans"]],
    }


def print_record(rec):
    print("workload %s  seed %d  seconds %g  trace %d"
          % (rec["workload"], rec["seed"], rec["seconds"], rec["trace"]))
    m = rec["metrics"]
    if not rec["trace"]:
        notes = {
            "setup_s": "median of %d set-ups" % len(rec["setup_samples"]),
            "pass_s": "median of %d passes" % rec["passes"],
            "op_s.p50": "%d commands" % rec["samples"],
            "op_s.tail": "p%g of %d commands" % (rec["tail_percentile"],
                                                   rec["samples"]),
        }
        for name, value in rec["raw"].items():
            notes[name] += "; %.6g s unscaled" % value
    else:
        notes = {"trace.overhead": "%d traced / %d untraced passes"
                 % (rec["passes"], rec["untraced_passes"])}
    for name, entry in m.items():
        print("  %-34s %14.6g %-5s %s" % (name, entry["value"],
                                          entry["unit"], notes.get(name, "")))
    print("  %-34s %14.6g %-5s %d of %d commands"
          % ("failed_frac", rec["failed_frac"], "", rec["failed"],
             rec["attempted"]))
    for f in rec["failures"][:5]:
        print("  FAILED %s: %s" % (" ".join(f["argv"]), f["reason"]))
    if rec["trace"]:
        low = rec["lowest_coverage"]
        print("  lowest span coverage: %.3f of %.4f s (%s)"
              % (low["covered_s"] / low["wall_s"], low["wall_s"],
                 " ".join(low["argv"])))
        print("  %-36s %9s %11s %11s" % ("span", "calls", "total_s",
                                        "self_s"))
        for s in rec["spans"][:15]:
            print("  %-36s %9d %11.4f %11.4f" % (s["name"], s["calls"],
                                                s["total_s"], s["self_s"]))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", default=None,
                   help="also write the full record to this JSON file")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fsind", "__init__.py")):
        print("error: no fsind sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        records = [measure(name, args.seed, args.seconds, args.trace,
                           workdir) for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine: %(nproc)d cores, Python %(python)s, %(platform)s"
          % machine_info())
    for rec in records:
        print_record(rec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine_info(), "records": records}, fh,
                      indent=1)
            fh.write("\n")
    prefix = len(records) > 1
    metrics = {}
    for rec in records:
        for name, entry in rec["metrics"].items():
            key = "%s.%s" % (rec["workload"], name) if prefix else name
            metrics[key] = entry
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
