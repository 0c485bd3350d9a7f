"""One benchmark run inside a fresh interpreter.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.  It
reads the plan run.py wrote (the generated instances and files, never the
seed), sets the workload up, times every item once per pass and writes what
each call returned to the result file.  The parent checks those outputs.
Between items it times a fixed calibration loop, so that the parent can take
the host's speed drifts out of the item times.

Modes:
  setup    set up, note the time of the first timed call, exit
  measure  ``passes`` untraced passes over the items
  trace    alternating untraced and traced passes (tracing per spans.py)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from mixcut import bench, blp, cli, core, hull

import spans


def clear_caches() -> None:
    """Empty every memoised function in mixcut, as a new process would have it."""
    for key, mod in list(sys.modules.items()):
        if key == "mixcut" or key.startswith("mixcut."):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Item:
    """One timed call; `summary` turns its result into the checked output."""

    def __init__(self, key, kind, call, summary, cold=True):
        self.key, self.kind, self.call, self.summary, self.cold = key, kind, call, summary, cold


def paper_flags(report) -> dict[str, bool]:
    """Per family: does this report's percentage miss the source table?"""
    return {
        name: bool(bench.check_against_paper(
            replace(report, covered=((name, report.count(name)),))))
        for name in bench.DEFAULT_FAMILIES
    }


def coverage_items(plan) -> list[Item]:
    reports: list = []
    items = []

    def cell_item(example, m, p):
        inst = bench.benchmark_instance(example, m, p)

        def call():
            report = bench.coverage(inst, example=example)
            reports.append(report)
            return report

        def summary(report):
            return {
                "facet_total": report.facet_total,
                "vertical_count": report.vertical_count,
                "covered": dict(report.covered),
                "paper_mismatch": paper_flags(report),
            }

        return Item(f"{example}:{m}:{p}", "cell", call, summary)

    for example, m, p in plan["cells"]:
        items.append(cell_item(example, m, p))

    def emit():
        text = bench.emit_report(reports, "json")
        reports.clear()
        return text

    items.append(Item("emit_report", "emit", emit, json.loads))
    return items


def hull_items(plan) -> list[Item]:
    items = []
    for entry in plan["instances"]:
        out = Path(entry["out"])
        argv = ["hull", "--instance", entry["path"], "--out", str(out)]

        def call(argv=argv, out=out):
            out.unlink(missing_ok=True)
            return cli.main(argv)

        def summary(code, out=out):
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
            return {"exit": code, "sha256": digest}

        items.append(Item(entry["key"], "hull", call, summary))
    return items


def certify_items(plan) -> list[Item]:
    """Facets and lifted sets are built here; caches stay warm from this set-up."""
    items = []
    for example, m, p in plan["cells"]:
        inst = bench.benchmark_instance(example, m, p)
        facets = hull.enumerate_facets(inst).nonvertical
        for k, cut in enumerate(facets):
            items.append(Item(
                f"{example}:{m}:{p}:facet{k}", "facet_check",
                lambda inst=inst, cut=cut: hull.is_facet(inst, cut),
                lambda ok: {"is_facet": ok}, cold=False))
    for entry in plan["sets"]:
        inst = bench.benchmark_instance(entry["example"], entry["m"], entry["p"])
        lifted = blp.build_sc(inst)
        for k, text in enumerate(entry["assignments"]):
            a = blp.assignment_from_json(text)

            def call(inst=inst, S=lifted, a=a):
                result = blp.substitute(S, blp.aggregate(S, a))
                cut = result.mixing_cut()
                valid = core.cut_is_valid(inst, cut)
                accepted, dual_cut = blp.cone_membership(S, blp.assemble_dual(S, a, result))
                return {"valid": valid, "accepted": accepted,
                        "same_cut": accepted and dual_cut == cut}

            items.append(Item(f"{entry['example']}:rt{k}", "roundtrip", call,
                              lambda out: out, cold=False))
    return items


BUILDERS = {"coverage_table": coverage_items, "hull_m11": hull_items, "certify": certify_items}


#: A calibration point is taken after the first item that ends this long
#: after the previous point; the items in between share the two points.
CALIBRATION_INTERVAL_S = 0.1
#: Calibration period inside a long item.
TICK_S = 0.2


def calibrate() -> float:
    """Seconds taken by a fixed loop of small Fraction and int arithmetic.

    The host's speed drifts by up to 2x over seconds to minutes; run.py
    divides each item's time by the loop time measured around it.  The
    fastest of three runs of the loop filters out interrupts.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1, 200):
            acc += (Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, 3)).numerator
            v = [i * k for k in range(16)]
            acc += sum(a * b for a, b in zip(v, v))
        best = min(best, time.perf_counter() - start)
    return best


class SpeedSampler:
    """Runs calibrate() every TICK_S of wall time while an item runs.

    The SIGALRM handler runs between bytecodes of the item (all of mixcut is
    Python), so a long item gets calibration samples from its own time span.
    The time spent in the handler is taken off the item's time; when tracing,
    it is recorded as a ``calibration`` span so no layer is charged for it.
    """

    def __init__(self, tracer=None) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._calibrate = tracer.wrap(spans.CALIBRATION, calibrate) if tracer else calibrate
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(items, record, tracer=None) -> None:
    """Time each item once; record it with the calibration around and during it."""
    sampler = SpeedSampler(tracer)
    before = calibrate()
    last = time.perf_counter()
    pending = []
    for n, item in enumerate(items):
        if item.cold:
            clear_caches()
        with sampler:
            start = time.perf_counter()
            try:
                result = tracer.run_item(item.key, item.call) if tracer else item.call()
                seconds = time.perf_counter() - start - sampler.spent
                output = item.summary(result)
            except Exception as exc:  # any failure of the program is a failed operation
                seconds = time.perf_counter() - start - sampler.spent
                output = {"error": f"{type(exc).__name__}: {exc}"}
        pending.append((item, seconds, sampler.samples, output, tracer.take() if tracer else None))
        if time.perf_counter() - last >= CALIBRATION_INTERVAL_S or n == len(items) - 1:
            after = calibrate()
            for item, seconds, during, output, item_spans in pending:
                calib = (before + after + sum(during)) / (2 + len(during))
                record(item, seconds, calib, output, item_spans)
            pending.clear()
            before, last = after, time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    args = parser.parse_args()

    plan = json.loads(Path(args.plan).read_text())
    items = BUILDERS[plan["workload"]](plan)
    results = {item.key: {"kind": item.kind, "times": [], "calibs": [], "outputs": [],
                          "traced_times": [], "traced_calibs": [], "spans": []}
               for item in items}
    document = {"first_call": time.monotonic(), "setup_calib": calibrate(), "items": results}
    if args.mode != "setup":
        def untraced(item, seconds, calib, output, _spans):
            results[item.key]["times"].append(seconds)
            results[item.key]["calibs"].append(calib)
            results[item.key]["outputs"].append(output)

        def traced(item, seconds, calib, output, item_spans):
            results[item.key]["traced_times"].append(seconds)
            results[item.key]["traced_calibs"].append(calib)
            results[item.key]["outputs"].append(output)
            results[item.key]["spans"].append(item_spans)

        tracer = spans.Tracer() if args.mode == "trace" else None
        for _ in range(plan["passes"]):
            run_pass(items, untraced)
            if tracer is not None:
                tracer.install()
                try:
                    run_pass(items, traced, tracer)
                finally:
                    tracer.uninstall()
        document["missing_spans"] = tracer.missing if tracer else []
    document["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
