"""Cross-check the traced per-layer split against ``cProfile``.

Runs one workload (seed 0 unless given) in this process twice on the same
generated inputs: once under ``cProfile`` and once under the span tracer.
For every layer it prints the inclusive time both tools attribute to the
layer's functions, as a share of the batch, so the layer ranking of the
two can be compared.  ``cProfile`` charges every Python call, which
inflates call-heavy layers, so shares — not seconds — are what should
agree.  ``sweep-pool`` runs with ``jobs=1`` here: the profiler sees only
its own process.  Usage::

    python3 perfbench/profile_check.py epfl-cold [seed]
"""

from __future__ import annotations

import cProfile
import pstats
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (benchmark-local modules next to this file)
import workloads  # noqa: E402


def _config(workload, inputs: Path, bundle: Path):
    from repro.engine.core import EngineConfig

    extra = {}
    if workload.warm:
        extra = dict(warm_start=str(bundle), persist=str(bundle) + ".out")
    return EngineConfig(suites=(), corpus_dirs=(str(inputs),),
                        objective=workload.objective, max_rounds=None,
                        jobs=1, **extra)


def _profile_shares(profile: cProfile.Profile, total: float) -> dict:
    stats = pstats.Stats(profile).stats
    shares = {}
    for layer, targets in spans.LAYERS.items():
        inclusive = 0.0
        for target in targets:
            function = spans._resolve(target)[2]
            code = getattr(function, "__code__", None)
            if code is None:
                continue
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key in stats:
                inclusive += stats[key][3]
        shares[layer] = inclusive / total
    return shares


def main(argv) -> int:
    from repro.engine.core import EngineConfig, run_batch

    name = argv[0]
    seed = int(argv[1]) if len(argv) > 1 else 0
    workload = workloads.WORKLOADS[name]
    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="profile-", dir=work))
    try:
        inputs = scratch / "inputs"
        workloads.generate_inputs(workload, seed, inputs)
        bundle = scratch / "bundle.json"
        if workload.warm:
            run_batch(EngineConfig(suites=(), corpus_dirs=(str(inputs),),
                                   objective=workload.objective,
                                   max_rounds=None, jobs=2,
                                   persist=str(bundle)))
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        run_batch(_config(workload, inputs, bundle))
        profile.disable()
        profiled = time.perf_counter() - start

        tracer = spans.Tracer("profile-check", scratch / "trace")
        tracer.install()
        start = time.perf_counter()
        try:
            run_batch(_config(workload, inputs, bundle))
        finally:
            tracer.remove()
        traced = time.perf_counter() - start
        totals = spans.layer_totals(tracer.names, tracer.span_name,
                                    tracer.span_parent, tracer.span_start,
                                    tracer.span_end)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    profile_shares = _profile_shares(profile, profiled)
    print(f"{name} seed {seed}: cProfile batch {profiled:.2f} s, "
          f"traced batch {traced:.2f} s (inclusive share of the batch)")
    print(f"{'layer':24s} {'cProfile':>9s} {'trace':>9s} {'trace self':>11s}")
    rows = sorted(spans.LAYERS, key=lambda layer: -profile_shares[layer])
    for layer in rows:
        entry = totals.get(layer, {"wall_s": 0.0, "self_s": 0.0})
        if not entry["wall_s"] and not profile_shares[layer]:
            continue
        print(f"{layer:24s} {profile_shares[layer]:9.1%} "
              f"{entry['wall_s'] / traced:9.1%} {entry['self_s'] / traced:11.1%}")
    plan = ("affine.classify", "mc.synthesize", "cuts.plan_for")
    print("plan lookup (inclusive cuts.plan_for): cProfile "
          f"{profile_shares['cuts.plan_for']:.1%}, trace "
          f"{totals.get('cuts.plan_for', {}).get('wall_s', 0.0) / traced:.1%}; "
          "trace self sum "
          f"{sum(totals.get(l, {}).get('self_s', 0.0) for l in plan) / traced:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
