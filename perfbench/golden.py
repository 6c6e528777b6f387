"""Record the per-circuit results the benchmark pins, per workload and seed.

``expected.json`` maps workload → seed → case → (ANDs, depth, rounds).
Seed 0 comes from the registry path (the engine building its own cases, no
generated inputs involved), so a seed-0 run checks the input generation as
well as the engine.  Seeds 1–9 come from the benchmark's own generated
inputs.  A run whose seed is pinned must reproduce the triples exactly: a
performance change may not change results.  Regenerate with::

    python3 perfbench/golden.py [workload ...]
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (benchmark-local module next to this file)

EXPECTED = HERE / "expected.json"
#: seeds pinned in ``expected.json``.
PINNED_SEEDS = range(10)


def _triples(batch, rename=lambda name: name) -> Dict[str, List[int]]:
    failed = [report.name for report in batch.reports
              if report.error is not None or report.verified is not True]
    if failed:
        raise RuntimeError(f"run failed on {failed}")
    return {rename(report.name): [report.ands_after, report.depth_after,
                                  len(report.rounds)]
            for report in batch.reports}


def registry_triples(workload: workloads.Workload,
                     cases: Optional[Sequence[str]] = None) -> Dict[str, List[int]]:
    """(ANDs, depth, rounds) per case, run straight from the registry."""
    from repro.engine.core import EngineConfig, run_batch

    return _triples(run_batch(EngineConfig(
        suites=(workload.suite,), circuits=list(cases or workload.cases),
        objective=workload.objective, max_rounds=None, jobs=workload.jobs)))


def generated_triples(workload: workloads.Workload,
                      seed: int) -> Dict[str, List[int]]:
    """(ANDs, depth, rounds) per case on the benchmark's seeded inputs."""
    from repro.engine.core import EngineConfig, run_batch

    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix="golden-", dir=work))
    try:
        workloads.generate_inputs(workload, seed, inputs)
        return _triples(run_batch(EngineConfig(
            suites=(), corpus_dirs=(str(inputs),),
            objective=workload.objective, max_rounds=None,
            jobs=workload.jobs)), rename=workloads.case_of)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def dump(expected: Dict) -> str:
    """``expected.json`` text with one line per case."""
    text = json.dumps(expected, indent=1, sort_keys=True)
    return re.sub(r"\[\s+(\d+),\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2, \3]",
                  text) + "\n"


def main(argv: Sequence[str]) -> int:
    names = list(argv) or sorted(workloads.WORKLOADS)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        pins = {}
        for seed in PINNED_SEEDS:
            pins[str(seed)] = (registry_triples(workload) if seed == 0
                               else generated_triples(workload, seed))
            ands = sum(triple[0] for triple in pins[str(seed)].values())
            depth = sum(triple[1] for triple in pins[str(seed)].values())
            print(f"{name} seed {seed}: ANDs {ands}, depth {depth}")
        expected[name] = pins
    EXPECTED.write_text(dump(expected))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
