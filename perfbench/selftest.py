"""Self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py        # from the checkout root

Checks that
  1. one seed generates identical inputs twice, and another seed other inputs,
     for every workload;
  2. the outputs of a short run match the stored results (no failures), and
     a deliberately altered stored result shows up as fail_ratio > 0;
  3. a traced run's layer self times plus remainder add up to each item's
     wall time.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time
from pathlib import Path

import run
import spans

ROOT = Path.cwd()


def plan_text(workload: str, seed: int, reference: dict, work: Path) -> str:
    plan, expected = run.make_plan(workload, seed, 1, reference, ROOT, work)
    files = sorted((p.name, p.read_text()) for p in work.glob("*.json"))
    return json.dumps([plan, expected, files], sort_keys=True)


def short_run(workload: str, reference: dict, work: Path, trim, mode="measure") -> tuple[dict, dict]:
    """Run the worker on a trimmed plan for seed 0; (worker result, expected)."""
    plan, expected = run.make_plan(workload, 0, 1, reference, ROOT, work)
    trim(plan, expected)
    (work / "plan.json").write_text(json.dumps(plan))
    return run.spawn(ROOT, work, mode, "selftest", time.monotonic() + 120), expected


def main() -> int:
    reference = json.loads((run.HERE / "reference.json").read_text())
    work = ROOT / ".perfbench_work" / "selftest"
    problems = []
    try:
        for workload in run.WORKLOADS:
            texts = []
            for seed in (5, 5, 6):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                texts.append(plan_text(workload, seed, reference, work))
            if texts[0] != texts[1]:
                problems.append(f"{workload}: seed 5 gave different inputs twice")
            if texts[0] == texts[2]:
                problems.append(f"{workload}: seeds 5 and 6 gave the same inputs")

        def small_cells(plan, expected):
            plan["cells"] = [c for c in plan["cells"] if c[1] <= 5]
            kept = {f"{e}:{m}:{p}" for e, m, p in plan["cells"]}
            expected["emit_report"] = {k: v for k, v in expected["emit_report"].items() if k in kept}

        def one_instance(plan, expected):
            plan["instances"] = plan["instances"][:1]

        def few_certs(plan, expected):
            plan["cells"] = plan["cells"][-1:]
            kept = "{}:{}:{}".format(*plan["cells"][0])
            for key in [k for k in expected if k != kept]:
                del expected[key]
            for entry in plan["sets"]:
                entry["assignments"] = entry["assignments"][:2]

        for workload, trim in (("coverage_table", small_cells), ("hull_m11", one_instance),
                               ("certify", few_certs)):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            doc, expected = short_run(workload, reference, work, trim)
            checked = run.score(workload, doc, expected)
            if checked["wrong"]:
                problems.append(f"{workload}: outputs differ from the stored results: {checked}")
            altered = copy.deepcopy(expected)
            key = next(k for k in altered if any(i == k or i.startswith(k + ":") for i in doc["items"]))
            if workload == "coverage_table":
                altered[key]["facet_total"] += 1
            elif workload == "hull_m11":
                altered[key]["sha256"] = "0" * 64
            else:
                altered[key] += 1
            bad = run.score(workload, doc, altered)
            if not bad["failed"] / bad["attempted"] > 0:
                problems.append(f"{workload}: an altered stored result went unnoticed")

        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        doc, _ = short_run("certify", reference, work, few_certs, mode="trace")
        groups = [s for item in doc["items"].values() for s in item["spans"]]
        balance = spans.check_balance(spans.concat(groups))
        if not balance < 1e-6:
            problems.append(f"traced self times do not add up to item wall time ({balance})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
