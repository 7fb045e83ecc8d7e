#!/usr/bin/env python3
"""One benchmark process, started fresh by run.py for each measurement.

    worker.py setup PLAN        time import + loading every input once
    worker.py run PLAN OUT      closed loop of fsind commands, results to OUT

PLAN is a JSON file written by run.py (see workloads.make_plan). fsind is
imported from the ``src`` directory of the checkout this file sits in and
driven in-process through ``fsind.cli.main`` with stdout captured. One
caller issues the commands back to back on one thread.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402

perf = time.perf_counter


def import_fsind():
    import fsind
    if not os.path.abspath(fsind.__file__).startswith(SRC + os.sep):
        raise SystemExit("fsind was imported from %s, not from %s"
                         % (fsind.__file__, SRC))


# ---------------------------------------------------------------------------
# set-up

def setup(plan):
    """Seconds for import fsind plus loading every distinct input once.

    Returns (raw seconds, seconds at the probe's reference speed).
    """
    with Speedometer() as speed:
        _, raw, scaled = speed.time_call(_setup, plan)
    return raw, scaled


def _setup(plan):
    import_fsind()
    from fsind.documents import load_document
    from fsind.qsl2 import build_vl, verify_relations
    for path in plan["setup"].get("documents", ()):
        load_document(path, validate=True)
    for two_ell in plan["setup"].get("qsl2", ()):
        bad = verify_relations(build_vl(two_ell))
        if bad:
            raise SystemExit("V with 2l = %d breaks: %s" % (two_ell, bad))


# ---------------------------------------------------------------------------
# closed loop

class Loop:
    """Runs passes over the plan's commands and checks every output.

    Pass k issues the commands of ``plan["passes"][k]`` (cycling) in an
    order shuffled from the seed. With a Speedometer, command times are
    scaled to its reference speed, and the raw ones go to ``raw_passes``.
    """

    def __init__(self, plan):
        from fsind import cli
        self.cli = cli
        self.passes = plan["passes"]
        self.order_seed = plan["order_seed"]
        self.restart()
        self.raw_passes = []
        self.attempted = 0
        self.failures = []
        self.routes_run = 0
        self.routes_skipped = 0

    def restart(self):
        """Make the next passes repeat the commands and orders from pass 0."""
        self.rng = random.Random(self.order_seed)
        self.done = 0

    def run_passes(self, budget, tracer=None, speed=None):
        """Passes until another one would end past ``budget`` seconds.

        At least one pass runs. Returns one list of command seconds per
        pass; a pass's time is the sum of its commands, so output checks
        are not counted.
        """
        passes = []
        start = perf()
        last = 0.0
        while not passes or perf() - start + last <= budget:
            began = perf()
            passes.append(self.run_pass(tracer, speed))
            last = perf() - began
        return passes

    def run_pass(self, tracer, speed=None):
        order = list(self.passes[self.done % len(self.passes)])
        self.done += 1
        self.rng.shuffle(order)
        times, raws = [], []
        for command in order:
            out, err = io.StringIO(), io.StringIO()
            argv = command["argv"]
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if speed is None:
                    t0 = perf()
                    code = self._call(argv)
                    raw = scaled = perf() - t0
                else:
                    code, raw, scaled = speed.time_call(self._call, argv)
            times.append(scaled)
            raws.append(raw)
            if tracer is not None:
                tracer.end_command(argv)
                self._count_routes(out.getvalue())
            self.attempted += 1
            reason = workloads.check_output(command["check"], code,
                                            out.getvalue())
            if reason is not None:
                self.failures.append({"argv": argv, "reason": reason,
                                      "stderr": err.getvalue()[-500:]})
        self.raw_passes.append(raws)
        return times

    def _call(self, argv):
        try:
            return self.cli.main(argv)
        except Exception as e:  # a traceback is a failed command
            return "%s: %s" % (type(e).__name__, e)

    def _count_routes(self, stdout):
        try:
            out = json.loads(stdout)
        except ValueError:
            return
        entries = [out.get("methods", {})]
        entries += [c["methods"] for c in out.get("cells", ())]
        for methods in entries:
            for entry in methods.values():
                if "nu" in entry:
                    self.routes_run += 1
                elif "skipped" in entry:
                    self.routes_skipped += 1
        for entry in out.get("doi_rows", ()):
            if "nu" in entry:
                self.routes_run += 1
            else:
                self.routes_skipped += 1


def run(plan):
    import_fsind()
    import tracer as tracing
    loop = Loop(plan)
    seconds = plan["seconds"]
    result = {}
    if not plan["trace"]:
        if tracing.wrapped_names():
            raise SystemExit("a tracer wrapper is installed in an untraced run")
        with Speedometer() as speed:
            result["passes"] = loop.run_passes(seconds, speed=speed)
        result.update(raw_passes=loop.raw_passes, probes=len(speed.probes),
                      probe_s=speed.spent)
    else:
        start = perf()
        result["untraced_passes"] = loop.run_passes(seconds / 3)
        # traced passes repeat the untraced ones, so the overhead is
        # measured on the same commands
        loop.restart()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["traced_passes"] = loop.run_passes(
                seconds - (perf() - start), tracer)
        finally:
            tracer.uninstall()
        left = tracing.wrapped_names()
        if left:
            raise SystemExit("wrappers left installed: %s" % left)
        import scalar_ops
        result.update(
            groups={g: [tracer.group_s[g], tracer.group_calls[g]]
                    for g in tracer.group_calls},
            counts=dict(tracer.counts),
            spans=tracer.table(),
            commands=tracer.commands,
            routes_run=loop.routes_run,
            routes_skipped=loop.routes_skipped,
            scalar_ops=scalar_ops.measure(),
        )
    result.update(
        attempted=loop.attempted,
        failures=loop.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return result


def main(argv):
    mode, plan_path = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    if mode == "setup":
        raw, scaled = setup(plan)
        print(json.dumps({"setup_s": scaled, "setup_raw_s": raw}))
    elif mode == "run":
        result = run(plan)
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    else:
        raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    main(sys.argv[1:])
