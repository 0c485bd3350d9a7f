"""mixcut benchmark: one run of one workload, checked and reported.

Run from the root of a checkout:

    python3 perfbench/run.py --workload coverage_table --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  coverage_table  bench.coverage on the 62 tabulated cells, in seeded order
  hull_m11        `mixcut hull` (cli.main) on m = 11 instances drawn from a pool
  certify         hull.is_facet on every facet of seeded table cells, and
                  blp aggregation round trips with seeded assignments

The inputs are made here from --seed and handed as files to perfbench/worker.py,
which runs in a fresh interpreter with MIXCUT_BUDGET removed.  Every output is
checked against perfbench/reference.json, stored from the commit that defined
the benchmark.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records the
seed, nproc, the Python version, the pass count and the failure breakdown.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a traced run (see perfbench/spans.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("coverage_table", "hull_m11", "certify")

#: One pass over a workload's items takes about this long on a 2-core box;
#: --seconds buys round(seconds / PASS_SECONDS) passes.
PASS_SECONDS = 10
#: Worker start-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Time of worker.calibrate() on a 2-vCPU Intel Xeon (2.1 GHz) VM running
#: at full speed.  Reported times are scaled to that speed (see steady()).
CALIBRATION_REF_S = 0.0012
#: A run must end within this many seconds of its start.
RUN_DEADLINE = 170

#: certify's cells: for each (m, p) the seed picks table L or K.  At p <= 4
#: both tables have the same facet count, so the work per seed is level.
CERTIFY_SLOTS = ((8, 4), (10, 3), (9, 3))
#: certify's round trips run on the lifted sets of these cells.
ROUNDTRIP_CELLS = (("L", 10, 4), ("K", 10, 4))
ROUNDTRIPS_PER_CELL = 20
WEIGHTS = ("1", "2", "1/2", "1/3", "3")

LATENCY_KINDS = ("cell", "facet_check", "roundtrip")


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs


def random_assignment(rng: random.Random, lifted) -> dict:
    """A random aggregation selection honouring each constraint's forced y index.

    The same scheme as the randomized blp tests: a base constraint, up to five
    more weighted constraints, and 0-2 weights per polyhedron row.
    """

    def forced_j(k: int) -> int:
        group, tail = lifted.constraints[k].label.split(":")
        if group in ("complement+", "complement-"):
            return 0
        if group == "prefix":
            return int(tail.split("<")[1])
        return int(tail)

    base_k = rng.randrange(lifted.kappa)
    k_weights = []
    for k in rng.sample(range(lifted.kappa), rng.randrange(0, min(lifted.kappa, 6))):
        if (k, forced_j(k)) == (base_k, forced_j(base_k)):
            continue
        k_weights.append([forced_j(k), k, rng.choice(WEIGHTS)])
    t_weights = []
    for t in range(lifted.tau):
        for j in rng.sample(range(lifted.m + 1), rng.randrange(0, 3)):
            t_weights.append([j, t, rng.choice(WEIGHTS)])
    return {"base": [base_k, forced_j(base_k)], "k_weights": k_weights, "t_weights": t_weights}


def make_plan(workload: str, seed: int, passes: int, reference: dict, root: Path, work: Path):
    """(plan for the worker, expected output per item key)."""
    rng = random.Random(seed)
    plan = {"workload": workload, "passes": passes}
    expected: dict = {}
    if workload == "coverage_table":
        keys = sorted(reference["cells"])
        rng.shuffle(keys)
        plan["cells"] = [[k.split(":")[0], *map(int, k.split(":")[1:])] for k in keys]
        expected = dict(reference["cells"])
        expected["emit_report"] = dict(reference["cells"])
    elif workload == "hull_m11":
        pool = reference["hull_m11"]["pool"]
        picks = [rng.choice(stratum) for stratum in reference["hull_m11"]["strata"]]
        rng.shuffle(picks)
        plan["instances"] = []
        for key in picks:
            path = work / f"{key}.json"
            path.write_text(json.dumps(pool[key]["instance"]))
            plan["instances"].append({"key": key, "path": str(path), "out": str(work / f"{key}.facets.json")})
            expected[key] = {"exit": 0, "sha256": pool[key]["sha256"]}
    else:
        sys.path.insert(0, str(root / "src"))
        from mixcut import bench, blp

        plan["cells"] = [[rng.choice("LK"), m, p] for m, p in CERTIFY_SLOTS]
        for example, m, p in plan["cells"]:
            expected[f"{example}:{m}:{p}"] = reference["cells"][f"{example}:{m}:{p}"]["facet_total"]
        plan["sets"] = []
        for example, m, p in ROUNDTRIP_CELLS:
            lifted = blp.build_sc(bench.benchmark_instance(example, m, p))
            plan["sets"].append({
                "example": example, "m": m, "p": p,
                "assignments": [json.dumps(random_assignment(rng, lifted))
                                for _ in range(ROUNDTRIPS_PER_CELL)],
            })
    return plan, expected


# ---------------------------------------------------------------------------
# Running the worker


def spawn(root: Path, work: Path, mode: str, tag: str, deadline: float) -> dict:
    """Run worker.py once in a fresh interpreter; its result, plus setup_s."""
    out = work / f"result-{tag}.json"
    env = {k: v for k, v in os.environ.items() if k not in ("MIXCUT_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(HERE / "worker.py"), "--plan", str(work / "plan.json"),
            "--mode", mode, "--out", str(out)]
    started = time.monotonic()
    try:
        subprocess.run(argv, env=env, cwd=root, stdout=subprocess.DEVNULL, check=True,
                       timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) ran past the {RUN_DEADLINE} s deadline") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"worker ({mode}) exited with code {exc.returncode}") from exc
    doc = json.loads(out.read_text())
    doc["setup_s"] = (doc["first_call"] - started) * CALIBRATION_REF_S / doc["setup_calib"]
    return doc


# ---------------------------------------------------------------------------
# Checking


def verdict(kind: str, key: str, output: dict, expected: dict) -> str:
    """'ok', 'rejected' (dual refused by cone_membership) or 'wrong'."""
    if "error" in output:
        return "wrong"
    if kind == "cell":
        got = {k: output[k] for k in ("facet_total", "vertical_count", "covered")}
        mismatch = output["paper_mismatch"]
        if got != expected[key] or mismatch["zhao"] or mismatch["blp_generic"]:
            return "wrong"
    elif kind == "emit":
        rows = {f"{r['example']}:{r['m']}:{r['p']}": {
            "facet_total": r["facet_total"], "vertical_count": r["vertical_count"],
            "covered": r["covered"]} for r in output}
        if len(rows) != len(output) or rows != expected[key]:
            return "wrong"
    elif kind == "hull":
        if output != expected[key]:
            return "wrong"
    elif kind == "facet_check":
        if output != {"is_facet": True}:
            return "wrong"
    elif kind == "roundtrip":
        if not output["valid"]:
            return "wrong"
        if not output["accepted"]:
            return "rejected"
        if not output["same_cut"]:
            return "wrong"
    return "ok"


def score(workload: str, doc: dict, expected: dict) -> dict:
    counts = {"ok": 0, "rejected": 0, "wrong": 0}
    wrong_items = []
    for key, item in doc["items"].items():
        for output in item["outputs"]:
            v = verdict(item["kind"], key, output, expected)
            counts[v] += 1
            if v == "wrong":
                wrong_items.append(key)
    if workload == "certify":
        # the hulls built during set-up must have the stored facet counts
        for cell, total in expected.items():
            built = sum(1 for key in doc["items"] if key.startswith(f"{cell}:facet"))
            if built != total:
                counts["wrong"] += 1
                wrong_items.append(cell)
    attempted = sum(counts.values())
    failed = counts["rejected"] + counts["wrong"]
    mismatches = sum(
        1 for item in doc["items"].values()
        if item["kind"] == "cell" and item["outputs"] and item["outputs"][0].get("paper_mismatch", {}).get("blp_uniform")
    )
    return {"attempted": attempted, "failed": failed, "wrong": counts["wrong"],
            "dual_rejected": counts["rejected"],
            "roundtrips": sum(len(i["outputs"]) for i in doc["items"].values() if i["kind"] == "roundtrip"),
            "wrong_items": sorted(set(wrong_items))[:10],
            "paper_mismatches": mismatches}


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def steady(doc: dict, traced: bool = False) -> dict[str, list[float]]:
    """Per item: each repeat's time at the reference speed.

    A repeat's time is scaled by CALIBRATION_REF_S over the calibration loop
    time measured around it, which takes out the host's speed drifts.
    """
    prefix = "traced_" if traced else ""
    return {
        key: [t * CALIBRATION_REF_S / c for t, c in zip(item[prefix + "times"], item[prefix + "calibs"])]
        for key, item in doc["items"].items()
    }


def latency(doc: dict, kept: dict) -> tuple[dict, dict]:
    metrics, shape = {}, {}
    for kind in LATENCY_KINDS:
        ms = [kept[k] * 1000 for k, item in doc["items"].items() if item["kind"] == kind]
        if ms:
            value, pct = tail(ms)
            metrics[f"{kind}_p50_ms"] = statistics.median(ms)
            metrics[f"{kind}_tail_ms"] = value
            shape[kind] = {"samples": len(ms), "tail_percentile": round(pct, 1)}
        else:
            metrics[f"{kind}_p50_ms"] = metrics[f"{kind}_tail_ms"] = 0.0
    return metrics, shape


def declared_units(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> tuple[dict, dict]:
    """(result line, info line) of one run."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE
    if not (root / "src" / "mixcut" / "__init__.py").is_file():
        raise BenchError(f"no mixcut sources under {root / 'src'}; run from a checkout root")
    reference = json.loads((HERE / "reference.json").read_text())
    passes = max(1, round(seconds / PASS_SECONDS))
    if trace:
        passes = max(1, passes - 1)  # each pass is run twice: untraced, then traced
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan, expected = make_plan(workload, seed, passes, reference, root, work)
        (work / "plan.json").write_text(json.dumps(plan))
        setups = [spawn(root, work, "setup", f"setup{i}", deadline)["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        doc = spawn(root, work, "trace" if trace else "measure", "run", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(doc["setup_s"])
    checked = score(workload, doc, expected)
    kept = {key: statistics.median(times) for key, times in steady(doc).items()}
    lat, shape = latency(doc, kept)
    correct = checked["wrong"] == 0
    calibs = [c for item in doc["items"].values() for c in item["calibs"]]
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "passes": passes, "setup_samples": len(setups),
            "kept_repeat": "median of the passes at the reference speed; caches start cold in each",
            "host_speed": CALIBRATION_REF_S / statistics.median(calibs),
            "raw_wall_s": sum(min(item["times"]) for item in doc["items"].values()),
            **{k: v for k, v in checked.items() if k not in ("attempted", "failed")},
            "fail_ratio": checked["failed"] / checked["attempted"],
            "latency_samples": shape}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(kept.values()),
            "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        }
    else:
        traced = steady(doc, traced=True)
        groups = [doc["items"][key]["spans"][times.index(min(times))] for key, times in traced.items()]
        trace_spans = spans.concat(groups)
        metrics = spans.layer_metrics(trace_spans)
        balance = spans.check_balance(trace_spans)
        metrics["trace.overhead_s"] = (sum(statistics.median(t) for t in traced.values())
                                       - sum(kept.values()))
        metrics["bench.paper_mismatches"] = checked["paper_mismatches"]
        metrics.update(lat)
        metrics["fail_ratio"] = info["fail_ratio"]
        info["layer_shares"] = {k: round(v, 4) for k, v in spans.layer_shares(trace_spans).items()}
        info["trace_balance_error_s"] = balance
        info["missing_spans"] = doc["missing_spans"]
        # every item's layer self times plus its remainder must equal its wall time
        correct = correct and balance < 1e-6
    units = declared_units(root, trace)
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": correct,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
