"""Store the results the benchmark checks against, from the current sources.

    python3 perfbench/make_reference.py      # from the checkout root, ~5 minutes

Writes perfbench/reference.json:
  cells           facet_total, vertical_count and the three covered counts
                  of the 62 tabulated cells
  paper_mismatch  the families whose percentage misses the source table,
                  per cell (informational: blp_uniform misses are not failures)
  hull_m11        the m = 11 instance pool: each instance, the sha256 of the
                  facet JSON `mixcut hull` writes for it, its DD candidate
                  pairs and its time at the reference speed; and the strata
                  the seed draws one instance from each

Only rerun this when a change is meant to alter these results.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from mixcut import bench, core, dd, hull  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402

#: Draws admitted per instance kind, and the most DD candidate pairs admitted
#: (about 2 s at the reference speed).  General-probability draws range from
#: under a second to minutes; the slow ones are left out so that a run fits
#: its time.
PER_KIND = 10
STEP_LIMIT = 2_000_000
#: Each admitted draw is timed this many times; the median counts.
TIMINGS = 3
PAIRS_PER_KIND = 2


def draw_m11(kind: str, rng: random.Random) -> dict:
    """An m = 11 instance: h is 11 distinct integers in 1..100.

    uniform: pi = 1/11 each, epsilon = 5/11.  general: pi proportional to
    integer weights 1..6, epsilon = 2/5 (redrawn until every pi <= epsilon).
    """
    h = sorted(rng.sample(range(1, 101), 11), reverse=True)
    if kind == "uniform":
        return {"m": 11, "h": h, "epsilon": "5/11"}
    while True:
        weights = [rng.randint(1, 6) for _ in range(11)]
        total = sum(weights)
        if 5 * max(weights) <= 2 * total:
            break
    return {"m": 11, "h": h, "pi": [core.rat_str(Fraction(w, total)) for w in weights],
            "epsilon": "2/5"}


def cells() -> tuple[dict, dict]:
    """(counts per cell, families that miss the reference table per cell)."""
    counts, mismatches = {}, {}
    for example, table in (("L", bench.PAPER_TABLE_L), ("K", bench.PAPER_TABLE_K)):
        for m, p in table:
            report = bench.coverage(bench.benchmark_instance(example, m, p), example=example)
            key = f"{example}:{m}:{p}"
            counts[key] = {
                "facet_total": report.facet_total,
                "vertical_count": report.vertical_count,
                "covered": dict(report.covered),
            }
            missed = [name for name, miss in worker.paper_flags(report).items() if miss]
            if missed:
                mismatches[key] = missed
    return counts, mismatches


def dd_steps(doc: dict) -> int:
    """Candidate pairs DD examines for this instance, or STEP_LIMIT + 1 if more."""
    inst = core.instance_from_json(json.dumps(doc))
    budget = dd.Budget(steps=STEP_LIMIT)
    try:
        dd.dual_rays(hull.lifted_generators(inst), budget)
    except dd.BudgetExceeded:
        return STEP_LIMIT + 1
    return STEP_LIMIT - budget.steps_left


def pool(work: Path) -> dict:
    """Admit draws whose DD examines at most STEP_LIMIT pairs, then pair them up.

    Admission counts work, so it does not depend on the machine.  Every
    admitted instance is then run TIMINGS times through the benchmark's own
    worker, and its cost is the median time at the reference speed.  Each
    stratum is a pair of same-kind instances with neighbouring costs, so
    whichever one the seed draws, a run does about the same work; per kind
    the PAIRS_PER_KIND closest disjoint pairs are kept.
    """
    candidates: dict = {}
    for kind in ("uniform", "general"):
        index = admitted = 0
        while admitted < PER_KIND:
            doc = draw_m11(kind, random.Random(f"{kind}:{index}"))
            steps = dd_steps(doc)
            print(f"{kind}{index}: {steps} candidate pairs", file=sys.stderr)
            if steps <= STEP_LIMIT:
                candidates[f"{kind}{index}"] = {"instance": doc, "dd_pairs": steps}
                admitted += 1
            index += 1

    plan = {"workload": "hull_m11", "passes": TIMINGS, "instances": []}
    for key, entry in candidates.items():
        path = work / f"{key}.json"
        path.write_text(json.dumps(entry["instance"]))
        plan["instances"].append({"key": key, "path": str(path), "out": str(work / f"{key}.facets.json")})
    (work / "plan.json").write_text(json.dumps(plan))
    doc = run.spawn(ROOT, work, "measure", "reference", time.monotonic() + 3600)
    costs = run.steady(doc)
    for key, entry in candidates.items():
        outputs = doc["items"][key]["outputs"]
        if any(out != outputs[0] or out["exit"] != 0 for out in outputs):
            raise SystemExit(f"{key}: hull output differs between runs or failed: {outputs}")
        entry["sha256"] = outputs[0]["sha256"]
        entry["seconds"] = round(statistics.median(costs[key]), 3)

    strata = []
    for kind in ("uniform", "general"):
        ordered = sorted((k for k in candidates if k.startswith(kind)),
                         key=lambda k: candidates[k]["seconds"])
        neighbours = sorted(zip(ordered, ordered[1:]),
                            key=lambda pr: candidates[pr[1]]["seconds"] / candidates[pr[0]]["seconds"])
        used: set = set()
        for a, b in neighbours:
            if a not in used and b not in used and len(used) < 2 * PAIRS_PER_KIND:
                strata.append([a, b])
                used |= {a, b}
    kept = {key for pair in strata for key in pair}
    return {"pool": {k: v for k, v in candidates.items() if k in kept}, "strata": strata}


def main() -> int:
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        counts, mismatches = cells()
        reference = {"cells": counts, "paper_mismatch": mismatches, "hull_m11": pool(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
