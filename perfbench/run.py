"""Engine benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload epfl-cold --seed 0 --seconds 10 --trace 0

Each timed sample is a fresh process (``child.py``) that sets up — imports,
backend resolution, seeded input generation — and then runs one closed-loop
``run_batch`` call from a single client; samples repeat until ``--seconds``
of batch time have been measured (at least one).  ``crypto-warm`` first
builds its warm-start bundle from the same seeded inputs.  With
``--trace 1`` one extra traced batch follows the timed ones and the
per-layer metrics replace the end-to-end ones.

Every run checks its outputs and fails (``"correct": false``) when a case
raises, a verdict is not ``True``, the per-circuit (ANDs, depth, rounds)
triples differ between batches of the run, from an earlier run of the same
workload, seed and engine sources in this checkout, or from the values
``expected.json`` pins for seeds 0–9 (seed 0: the registry path's); traced
runs also check every optimised network
against its input with the cache-free oracle.  The last stdout line is the
JSON result; the line before it holds the full record (provenance,
per-circuit triples, samples), which is also kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (benchmark-local modules next to this file)
import workloads  # noqa: E402

#: hard wall-clock budget of one run (the contract allows 180 s).
RUN_BUDGET_S = 170.0
#: set-up-only samples taken besides the batch processes' own set-up.
SETUP_SAMPLES = 2


class RunFailed(Exception):
    """The harness could not produce a result (no JSON line is printed)."""


def _start(script_args: List[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *script_args],
        cwd=ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group (pool workers)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(mode: str, workload: str, seed: int, run_dir: Path,
              deadline: float, trace: int = 0,
              bundle: Optional[Path] = None) -> Dict:
    """Run one child process to completion and return its JSON result."""
    index = len(list(run_dir.glob("child-*")))
    child_dir = run_dir / f"child-{index}"
    child_dir.mkdir(parents=True)
    out = child_dir / "result.json"
    args = ["--mode", mode, "--workload", workload, "--seed", str(seed),
            "--dir", str(child_dir), "--out", str(out),
            "--trace", str(trace)]
    if bundle is not None:
        args += ["--bundle", str(bundle)]
    args += ["--t0", repr(time.time())]
    process = _start(args)
    try:
        _, stderr = process.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        _stop_group(process)
        process.communicate()
        raise RunFailed(f"{mode} process exceeded the run's time budget")
    finally:
        _stop_group(process)
    if not out.exists():
        raise RunFailed(f"{mode} process exited with {process.returncode} "
                        f"without a result:\n{stderr.decode(errors='replace')}")
    result = json.loads(out.read_text())
    if "error" in result:
        raise RunFailed(f"{mode} process failed:\n{result['error']}")
    return result


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def triples(result: Dict) -> Dict[str, List[int]]:
    return {row["case"]: [row["ands"], row["depth"], row["rounds"]]
            for row in result["circuits"]}


def check_batches(workload: workloads.Workload, seed: int,
                  batches: List[Dict], reference: Optional[Dict],
                  expected: Optional[Dict]) -> List[Tuple[Optional[str], str]]:
    """Output checks over every batch of the run.

    Returns ``(case, message)`` failures; ``case`` is ``None`` when the
    failure concerns the whole run rather than one circuit.
    """
    failures: List[Tuple[Optional[str], str]] = []
    first = triples(batches[0])
    if list(first) != list(workload.cases):
        failures.append((None, f"cases {list(first)} != workload "
                               f"{list(workload.cases)}"))
    for number, batch in enumerate(batches):
        for row in batch["circuits"]:
            if row["error"] is not None:
                failures.append((row["case"], f"batch {number}: raised "
                                              f"{row['error']}"))
            elif row["verified"] is not True:
                failures.append((row["case"], f"batch {number}: verdict "
                                              f"{row['verified']}"))
        for case, triple in triples(batch).items():
            if first.get(case) != triple:
                failures.append((case, f"batch {number}: (ANDs, depth, "
                                       f"rounds) {triple} != {first.get(case)}"))
        if workload.warm and batch["mode"] == "batch":
            if not batch["warm_start_loaded"]:
                failures.append((None, f"batch {number}: warm-start bundle "
                                       f"not loaded"))
            misses = batch["cut_cache"].get("plan_misses", 0)
            if misses:
                failures.append((None, f"batch {number}: {misses} plan "
                                       f"misses on a warm start"))
    for source, pinned in (("an earlier run in this checkout", reference),
                           ("expected.json", expected)):
        for case, triple in (pinned or {}).items():
            if first.get(case) != triple:
                failures.append((case, f"seed {seed}: {first.get(case)} != "
                                       f"{triple} pinned in {source}"))
    return failures


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def provenance(backend: str) -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    import multiprocessing
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": backend,
        "start_method": (os.environ.get("REPRO_START_METHOD")
                         or multiprocessing.get_start_method()),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def percentile_summary(samples: List[float]) -> Dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    count = len(samples)
    summary = {"n": count, "median": statistics.median(samples),
               "percentile": None, "value": None}
    if count >= 11:
        percentile = int(100 * (1 - 10 / count))
        summary["percentile"] = percentile
        summary["value"] = statistics.quantiles(samples, n=100)[percentile - 1]
    return summary


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(batches: List[Dict], setup_s: float) -> Dict[str, Dict]:
    attempted = sum(len(batch["circuits"]) for batch in batches)
    verified = sum(row["verified"] is True
                   for batch in batches for row in batch["circuits"])
    last = batches[-1]["circuits"]

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "wall_s": metric(statistics.median(b["wall_s"] for b in batches), "s"),
        "cpu_s": metric(statistics.median(b["cpu_s"] for b in batches), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(max(b["peak_rss_mb"] for b in batches), "MB"),
        "ands_after": metric(sum(row["ands"] for row in last), "count"),
        "depth_after": metric(sum(row["depth"] for row in last), "count"),
        "verified_frac": metric(verified / attempted, "ratio"),
    }


def per_layer(traced: Dict, untraced_wall: float) -> Dict[str, Dict]:
    processes = traced["trace"]["processes"]
    merged = spans.merge(process["totals"] for process in processes)
    parent = [p for p in processes if p["role"] == "batch"]
    workers = [p for p in processes if p["role"] == "worker"]
    metrics: Dict[str, Dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in spans.REPORTED_LAYERS:
        entry = merged.get(layer, {"calls": 0, "self_s": 0.0})
        put(f"{layer}.calls", entry["calls"], "count")
        put(f"{layer}.self_s", entry["self_s"], "s")

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    cut = traced["cut_cache"]
    lookups = cut.get("function_hits", 0) + cut.get("function_misses", 0)
    put("cuts.plan.hit_ratio", ratio(cut.get("plan_hits", 0),
                                     cut.get("plan_hits", 0)
                                     + cut.get("plan_misses", 0)), "ratio")
    put("cuts.function.hit_ratio", ratio(cut.get("function_hits", 0), lookups),
        "ratio")
    put("cuts.cone_store.hit_ratio", ratio(cut.get("cone_hash_hits", 0),
                                           lookups), "ratio")
    counters: Dict[str, float] = {}
    for process in processes:
        for key, value in process["counters"].items():
            counters[key] = counters.get(key, 0) + value
    simulate = merged.get("kernels.simulate_cones", {}).get("calls", 0)
    put("kernels.simulate_cones.cones",
        ratio(counters.get("kernels.simulate_cones.cones", 0), simulate),
        "count/call")

    rows = traced["circuits"]
    candidates = sum(row["candidates"] for row in rows)
    applied = sum(row["applied"] for row in rows)
    put("rewriting.rounds", sum(row["rounds"] for row in rows), "count")
    put("rewriting.nodes_examined", sum(row["nodes_examined"] for row in rows),
        "count")
    put("rewriting.candidates", candidates, "count")
    put("rewriting.applied", applied, "count")
    put("rewriting.useful_ratio", ratio(applied, candidates), "ratio")
    put("xag.rollback.calls", merged.get("xag.rollback", {}).get("calls", 0)
        + counters.get("xag.rollback.calls", 0), "count")
    put("mc.bundle.bytes", counters.get("mc.bundle.bytes", 0), "B")

    pool_wall = sum(p["totals"].get("engine.pool", {}).get("wall_s", 0.0)
                    for p in parent)
    case_walls = sum(p["totals"].get("engine.run_circuit", {}).get("wall_s", 0.0)
                     for p in workers)
    put("engine.pool.wall_s", pool_wall, "s")
    put("engine.pool.busy_frac",
        ratio(case_walls, len(workers) * pool_wall), "ratio")
    put("engine.pool.idle_s",
        sum(p["totals"].get(spans.WAIT, {}).get("self_s", 0.0)
            for p in workers), "s")
    put("engine.pool.deltas", counters.get("engine.pool.deltas", 0), "count")
    put("engine.pool.delta_bytes", counters.get("engine.pool.delta_bytes", 0),
        "B")
    put("engine.pool.delta_install_s",
        sum(p["totals"].get("engine.pool.install", {}).get("self_s", 0.0)
            for p in parent), "s")
    put("engine.pool.seed_bundle_bytes",
        counters.get("engine.pool.seed_bundle_bytes", 0), "B")
    put("trace.overhead_frac", traced["wall_s"] / untraced_wall - 1, "ratio")
    coverages = [p["coverage"] for p in processes if p["coverage"] is not None]
    put("trace.coverage_min", min(coverages) if coverages else 0.0, "ratio")
    return metrics


# ----------------------------------------------------------------------
def run(args) -> Dict:
    start = time.time()
    deadline = start + RUN_BUDGET_S
    workload = workloads.WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench" / "runs" / \
        f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run(args, workload, run_dir, start, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, workload, run_dir: Path, start: float, deadline: float) -> Dict:
    set_ups: List[Dict] = []
    bundle = None
    bundle_build_s = 0.0
    # set-up samples are an end-to-end metric: traced runs skip the extras
    samples = 0 if args.trace else SETUP_SAMPLES
    if workload.warm:
        bundle = run_dir / "bundle.json"
        set_ups.append(run_child("bundle", workload.name, args.seed, run_dir,
                                 deadline, bundle=bundle))
        bundle_build_s = set_ups[0]["wall_s"]
        samples = max(0, samples - 1)
    for _ in range(samples):
        set_ups.append(run_child("setup", workload.name, args.seed, run_dir,
                                 deadline))

    batches: List[Dict] = []
    measured = 0.0
    while not batches or measured < args.seconds:
        if batches and time.time() + 2 * batches[-1]["wall_s"] > deadline - 30:
            break  # another sample would not fit the run's budget
        batches.append(run_child("batch", workload.name, args.seed, run_dir,
                                 deadline, bundle=bundle))
        measured += batches[-1]["wall_s"]
    traced = None
    if args.trace:
        traced = run_child("batch", workload.name, args.seed, run_dir,
                           deadline, trace=1, bundle=bundle)

    origin = provenance(batches[0]["backend"])
    # earlier runs count only when they ran the same engine sources
    state_path = ROOT / ".perfbench" / "state" / \
        f"{workload.name}-{args.seed}-{origin['source_sha256'][:16]}.json"
    reference = (json.loads(state_path.read_text())
                 if state_path.exists() else None)
    pins = json.loads((HERE / "expected.json").read_text())[workload.name]
    expected = pins.get(str(args.seed))
    # the cold bundle build must agree with the warm batches too
    checked = batches + ([traced] if traced else []) + \
        [child for child in set_ups if child["mode"] == "bundle"]
    failures = check_batches(workload, args.seed, checked, reference, expected)
    if traced:
        trace = traced["trace"]
        failures.extend((None, f"oracle: {failure}")
                        for failure in trace["oracle_failures"])
        if trace["oracle_checked"] != len(workload.cases):
            failures.append((None, f"oracle checked {trace['oracle_checked']} "
                                   f"of {len(workload.cases)} networks"))
        roles = [p["role"] for p in trace["processes"]]
        if roles.count("worker") != (traced["workers"]
                                     if traced["workers"] > 1 else 0):
            failures.append((None, f"traced processes {roles} do not match "
                                   f"{traced['workers']} workers"))
    if len({child["inputs_digest"] for child in set_ups + checked}) != 1:
        failures.append((None, "one seed produced different inputs across "
                               "processes"))
    if not failures and reference is None:
        state_path.parent.mkdir(parents=True, exist_ok=True)
        state_path.write_text(json.dumps(triples(batches[0])))

    attempted = sum(len(batch["circuits"]) for batch in checked)
    failed_cases = {case for case, _ in failures}
    failed = attempted if None in failed_cases else \
        len(failed_cases) * len(checked)
    setup_samples = [child["setup_s"] for child in set_ups + batches]
    setup_s = statistics.median(setup_samples) + bundle_build_s
    metrics = (per_layer(traced, batches[0]["wall_s"]) if traced
               else end_to_end(batches, setup_s))
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": origin,
        "setup_samples_s": setup_samples,
        "bundle_build_s": bundle_build_s,
        "wall_s": percentile_summary([b["wall_s"] for b in batches]),
        "cpu_s": [b["cpu_s"] for b in batches],
        "error_frac": failed / attempted,
        "failures": [message if case is None else f"{case}: {message}"
                     for case, message in failures],
        "circuits": batches[0]["circuits"],
        "cut_cache": batches[0]["cut_cache"],
        "run_s": time.time() - start,
    }
    if traced:
        record["traced_wall_s"] = traced["wall_s"]
        record["coverage"] = {f"{p['role']}-{p['pid']}": p["coverage"]
                              for p in traced["trace"]["processes"]}
        record["layers"] = spans.merge(p["totals"]
                                       for p in traced["trace"]["processes"])
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-{args.seed}-{args.trace}-"
     f"{int(start)}.json").write_text(json.dumps(record, indent=1))
    return {"record": record,
            "result": {"correct": not failures, "attempted": attempted,
                       "failed": min(failed, attempted), "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    try:
        outcome = run(args)
    except RunFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(outcome["record"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
