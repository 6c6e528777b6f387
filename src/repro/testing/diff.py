"""Differential harness: one flow script, shared vs fresh caches, cross-checked.

For every seeded random XAG the same flow script (see
:func:`repro.rewriting.pipeline.parse_flow`) is executed twice:

* **shared** — the engine path, sharing the batch caches (database and
  cut-function cache) across *all* seeds of the run, exactly like a long
  engine batch;
* **fresh** — the same path with a brand-new database and cut-function
  cache, so any result that *depends* on accumulated cache state shows up
  as a divergence.

Checks per seed: both runs must stay functionally equivalent to the
untouched input (a fresh packed simulation of the final network, never the
flow's own verification simulator), must not increase the AND count, must
report verified rounds, and must agree exactly on (ANDs, XORs,
multiplicative depth).
Whether the dirty-node worklist misses a rewrite is not checked here: the
test suite compares every flow against rounds that examine every gate
(``tests/test_worklist_oracle.py``).

A failing seed is shrunk (:func:`repro.testing.shrink.shrink_xag`) to a
minimal reproducer and written to disk as validated JSON; ``--replay FILE``
re-runs the checks on a stored reproducer.

CLI::

    python -m repro.testing.diff --seeds 25 --time-budget 300 \
        --flow "balance,mc*,mc-depth*"

    # canonical differential flow of every registered cost model
    python -m repro.testing.diff --seeds 10 --cost all
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cuts.cache import CutFunctionCache
from repro.mc.database import McDatabase
from repro.rewriting.cost import cost_model, registered_cost_models
from repro.rewriting.pipeline import parse_flow, run_pipeline
from repro.rewriting.rewrite import RewriteParams
from repro.testing.generate import random_xag
from repro.testing.oracle import reference_stimulus
from repro.testing.shrink import shrink_xag
from repro.xag.depth import multiplicative_depth
from repro.xag.graph import Xag, lit_node
from repro.xag.serialize import from_dict, to_dict
from repro.xag.simulate import simulate_words
from repro.xag.structhash import graph_hash

#: flow scripts checked when none is given: the paper's mc pipeline and the
#: depth flow's balance + guarded-mc + mc-depth script.
DEFAULT_FLOWS: Tuple[str, ...] = ("mc,mc*", "balance,mc*,mc-depth*")

REPRODUCER_FORMAT = "repro-diff-reproducer"
REPRODUCER_VERSION = 1


@dataclass
class DiffConfig:
    """Knobs of one differential run."""

    flows: Tuple[str, ...] = DEFAULT_FLOWS
    seeds: int = 25
    seed_start: int = 0
    #: wall-clock budget in seconds; no new seed starts once exceeded.
    time_budget: Optional[float] = None
    #: packed random words per PI for the equivalence oracle.
    num_random_words: int = 16
    cut_size: int = 6
    cut_limit: int = 12
    #: predicate-evaluation budget of the shrinker.
    shrink_budget: int = 200
    #: directory for shrunk reproducer files.
    output_dir: Union[str, Path] = "diff-reproducers"


@dataclass
class SeedOutcome:
    """Result of one (seed, flow) differential check."""

    seed: int
    flow: str
    failures: List[str] = field(default_factory=list)
    #: path of the shrunk reproducer (only written on failure).
    reproducer: Optional[str] = None

    @property
    def diverged(self) -> bool:
        return bool(self.failures)


@dataclass
class DiffReport:
    """Everything one :func:`run_diff` invocation measured."""

    config: DiffConfig
    outcomes: List[SeedOutcome] = field(default_factory=list)
    seeds_run: int = 0
    elapsed_seconds: float = 0.0
    #: True when the time budget stopped the run before all seeds executed.
    budget_exhausted: bool = False

    @property
    def divergences(self) -> List[SeedOutcome]:
        return [outcome for outcome in self.outcomes if outcome.diverged]

    def render(self) -> str:
        lines = []
        for outcome in self.divergences:
            lines.append(f"DIVERGENCE seed={outcome.seed} "
                         f"flow={outcome.flow!r}")
            for failure in outcome.failures:
                lines.append(f"  - {failure}")
            if outcome.reproducer:
                lines.append(f"  reproducer: {outcome.reproducer}")
        budget_note = " [time budget exhausted]" if self.budget_exhausted else ""
        lines.append(
            f"{self.seeds_run} seeds x {len(self.config.flows)} flows: "
            f"{len(self.divergences)} divergences in "
            f"{self.elapsed_seconds:.1f}s{budget_note}")
        return "\n".join(lines)


def generator_knobs(seed: int) -> Dict[str, object]:
    """Deterministic per-seed generator shape (decoupled from the XAG rng)."""
    shape_rng = random.Random(0xD1FF ^ ((seed * 2654435761) & 0xFFFFFFFF))
    return {
        "num_pis": shape_rng.randint(4, 8),
        "num_gates": shape_rng.randint(20, 70),
        "num_pos": shape_rng.randint(2, 4),
        "and_bias": shape_rng.choice([0.4, 0.5, 0.6]),
        "locality": shape_rng.choice([None, None, 6, 10]),
        "max_fanout": shape_rng.choice([None, None, 4]),
    }


def cost_model_flow(name: str) -> str:
    """Canonical differential flow script of one registered cost model.

    Mirrors :func:`repro.rewriting.pipeline.standard_flow`: plain models
    run one round then converge; depth-aware models run the balance +
    guarded-mc + model-convergence script of the depth flow.
    """
    model = cost_model(name)
    if model.depth_aware:
        return f"balance,guard(mc*),{model.name}*"
    return f"{model.name},{model.name}*"


def _run_mode(xag: Xag, flow: str, database: McDatabase,
              cut_cache: CutFunctionCache, cut_size: int, cut_limit: int):
    """Execute one flow over one database and cut cache (engine parity)."""
    params = RewriteParams(cut_size=cut_size, cut_limit=cut_limit,
                           verify=True)
    return run_pipeline(xag, parse_flow(flow), database=database,
                        params=params, cut_cache=cut_cache)


def check_modes(xag: Xag, flow: str,
                database: Optional[McDatabase] = None,
                cut_cache: Optional[CutFunctionCache] = None,
                num_random_words: int = 16,
                cut_size: int = 6, cut_limit: int = 12) -> List[str]:
    """Cross-check one network under one flow; returns failure descriptions.

    ``database``/``cut_cache`` are the *shared* caches (fresh ones are
    created when omitted); the fresh run always builds its own.
    """
    database = database if database is not None else McDatabase()
    cut_cache = CutFunctionCache.ensure(cut_cache, database)

    words, mask, _ = reference_stimulus(xag.num_pis,
                                        num_random_words=num_random_words)
    baseline_words = simulate_words(xag, words, mask)
    ands_before = xag.num_ands

    failures: List[str] = []
    results = {}
    fresh_database = McDatabase()
    mode_runs = (
        ("shared", database, cut_cache),
        ("fresh", fresh_database, CutFunctionCache(fresh_database)),
    )
    for mode, mode_database, mode_cut_cache in mode_runs:
        try:
            results[mode] = _run_mode(xag, flow, mode_database,
                                      mode_cut_cache, cut_size, cut_limit)
        except Exception as exc:  # noqa: BLE001 - a crash is a finding
            failures.append(f"{mode}: raised {type(exc).__name__}: {exc}")

    for mode, result in results.items():
        final = result.final
        final_words = simulate_words(final, words, mask)
        if final_words != baseline_words:
            failures.append(
                f"{mode}: final network is NOT equivalent to the input "
                f"(PO words differ under the canonical stimulus)")
        if final.num_ands > ands_before:
            failures.append(f"{mode}: AND count increased "
                            f"({ands_before} -> {final.num_ands})")
        if result.verified is False:
            failures.append(f"{mode}: pipeline verification reported failure")

    shared_result = results.get("shared")
    fresh_result = results.get("fresh")
    if shared_result is not None and fresh_result is not None:
        shared = _metrics(shared_result.final)
        fresh = _metrics(fresh_result.final)
        if shared != fresh:
            failures.append(
                f"cache-vs-fresh mismatch: shared-cache run produced "
                f"{shared}, fresh-cache run produced {fresh} — results "
                f"depend on accumulated cache state")
    return failures


def _metrics(xag: Xag) -> Dict[str, int]:
    return {"ands": xag.num_ands, "xors": xag.num_xors,
            "depth": multiplicative_depth(xag)}


# ----------------------------------------------------------------------
# structural-hash consistency
# ----------------------------------------------------------------------
def _permuted_copy(xag: Xag, rng: random.Random) -> Xag:
    """Rebuild ``xag`` creating its gates in a random valid topological order.

    The copy computes the same functions through the same structure — only
    the node indices differ — so its canonical graph hash must equal the
    original's.  Unreachable gates are dropped; the hash never sees them.
    """
    copy = Xag()
    copy.name = xag.name
    lit_of: Dict[int, int] = {0: 0}
    for index, node in enumerate(xag.pis()):
        lit_of[node] = copy.create_pi(xag.pi_name(index))
    remaining: Dict[int, int] = {}
    dependents: Dict[int, List[int]] = {}
    ready: List[int] = []
    for gate in xag.topological_order():
        if not xag.is_gate(gate):
            continue
        f0, f1 = xag.fanins(gate)
        pending = {lit_node(f0), lit_node(f1)} - set(lit_of)
        remaining[gate] = len(pending)
        for dep in pending:
            dependents.setdefault(dep, []).append(gate)
        if not pending:
            ready.append(gate)
    while ready:
        gate = ready.pop(rng.randrange(len(ready)))
        f0, f1 = xag.fanins(gate)
        a = lit_of[lit_node(f0)] ^ (f0 & 1)
        b = lit_of[lit_node(f1)] ^ (f1 & 1)
        lit_of[gate] = (copy.create_and(a, b) if xag.is_and(gate)
                        else copy.create_xor(a, b))
        for waiter in dependents.pop(gate, []):
            remaining[waiter] -= 1
            if remaining[waiter] == 0:
                ready.append(waiter)
    for index, po in enumerate(xag.po_literals()):
        copy.create_po(lit_of[lit_node(po)] ^ (po & 1), xag.po_name(index))
    return copy


def check_hash_consistency(xag: Xag,
                           rng: Optional[random.Random] = None) -> List[str]:
    """Invariance checks of the canonical graph hash; returns failures.

    The hash (:func:`repro.xag.structhash.graph_hash`) is the content
    address of warm-start recipe entries, so the harness pins its contract
    on every seed: it must be invariant under a serialisation round-trip,
    under PI/PO renaming and under gate creation-order permutation of equal
    graphs.  (Sensitivity
    — different structures hashing differently — is checked against the
    shrunk reproducers by :func:`run_diff`.)
    """
    rng = rng if rng is not None else random.Random(0xC0DE)
    reference = graph_hash(xag)
    failures: List[str] = []

    restored = from_dict(to_dict(xag))
    if graph_hash(restored) != reference:
        failures.append("graph hash changed under a serialisation round-trip")

    renamed_dict = to_dict(xag)
    renamed_dict["name"] = "renamed"
    renamed_dict["pi_names"] = [f"pi_{index}" for index
                                in range(len(renamed_dict["pi_names"]))]
    renamed_dict["po_names"] = [f"po_{index}" for index
                                in range(len(renamed_dict["po_names"]))]
    if graph_hash(from_dict(renamed_dict)) != reference:
        failures.append("graph hash changed under PI/PO renaming")

    if graph_hash(_permuted_copy(xag, rng)) != reference:
        failures.append(
            "graph hash changed under gate creation-order permutation")
    return failures


# ----------------------------------------------------------------------
# reproducers
# ----------------------------------------------------------------------
def write_reproducer(directory: Union[str, Path], seed: int, flow: str,
                     knobs: Dict[str, object], failures: Sequence[str],
                     shrunk: Xag, evaluations: int,
                     original_gates: int) -> Path:
    """Write one shrunk failing case as validated JSON; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "-", flow.lower()).strip("-")
    path = directory / f"reproducer-seed{seed}-{slug}.json"
    payload = {
        "format": REPRODUCER_FORMAT,
        "version": REPRODUCER_VERSION,
        "seed": seed,
        "flow": flow,
        "knobs": knobs,
        "failures": list(failures),
        "shrink_evaluations": evaluations,
        "original_gates": original_gates,
        "xag": to_dict(shrunk),
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_reproducer(path: Union[str, Path]) -> Tuple[Dict, Xag]:
    """Read a reproducer file back as ``(payload, network)``."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or \
            payload.get("format") != REPRODUCER_FORMAT:
        raise ValueError(f"{path}: not a {REPRODUCER_FORMAT} file")
    return payload, from_dict(payload["xag"])


def replay_reproducer(path: Union[str, Path],
                      num_random_words: int = 16) -> List[str]:
    """Re-run the differential checks on a stored reproducer."""
    payload, xag = load_reproducer(path)
    return check_modes(xag, payload["flow"],
                       num_random_words=num_random_words)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_diff(config: Optional[DiffConfig] = None,
             verbose: bool = False) -> DiffReport:
    """Run the differential harness over ``config.seeds`` seeded XAGs."""
    config = config if config is not None else DiffConfig()
    for flow in config.flows:
        parse_flow(flow)  # fail fast on a bad script
    database = McDatabase()
    cut_cache = CutFunctionCache(database)
    report = DiffReport(config=config)
    start = time.perf_counter()
    for offset in range(config.seeds):
        elapsed = time.perf_counter() - start
        if config.time_budget is not None and elapsed > config.time_budget:
            report.budget_exhausted = True
            break
        seed = config.seed_start + offset
        knobs = generator_knobs(seed)
        xag = random_xag(random.Random(seed), **knobs)
        xag.name = f"seed{seed}"
        report.seeds_run += 1
        hash_outcome = SeedOutcome(seed=seed, flow="<structural-hash>")
        hash_outcome.failures = check_hash_consistency(
            xag, random.Random(seed ^ 0x5A5A))
        if verbose:
            status = "DIVERGED" if hash_outcome.diverged else "ok"
            print(f"seed {seed:>4} hash consistency: {status}", flush=True)
        report.outcomes.append(hash_outcome)
        for flow in config.flows:
            outcome = SeedOutcome(seed=seed, flow=flow)
            outcome.failures = check_modes(
                xag, flow, database, cut_cache,
                num_random_words=config.num_random_words,
                cut_size=config.cut_size, cut_limit=config.cut_limit)
            if outcome.diverged:
                shrunk, evaluations = shrink_xag(
                    xag,
                    lambda candidate: bool(check_modes(
                        candidate, flow,
                        num_random_words=config.num_random_words,
                        cut_size=config.cut_size,
                        cut_limit=config.cut_limit)),
                    max_evaluations=config.shrink_budget)
                # hash sensitivity: the shrunk reproducer is a different
                # (smaller, non-equivalent) structure, so the identity the
                # caches key on must tell the two networks apart.
                if (shrunk.num_gates != xag.num_gates
                        and graph_hash(shrunk) == graph_hash(xag)):
                    outcome.failures.append(
                        "graph hash collision: the shrunk reproducer "
                        "hashes equal to the structurally different "
                        "original")
                outcome.reproducer = str(write_reproducer(
                    config.output_dir, seed, flow, knobs, outcome.failures,
                    shrunk, evaluations, xag.num_gates))
            if verbose:
                status = "DIVERGED" if outcome.diverged else "ok"
                print(f"seed {seed:>4} flow {flow!r}: {status}", flush=True)
            report.outcomes.append(outcome)
    report.elapsed_seconds = time.perf_counter() - start
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.testing.diff``."""
    parser = argparse.ArgumentParser(
        prog="repro.testing.diff",
        description="Differential equivalence harness: run a flow script "
                    "with shared and with fresh caches on seeded random "
                    "XAGs and cross-check the results.")
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of seeded random networks (default: 25)")
    parser.add_argument("--seed-start", type=int, default=0,
                        help="first seed value (default: 0)")
    parser.add_argument("--time-budget", type=float, default=None, metavar="S",
                        help="stop starting new seeds after S seconds")
    parser.add_argument("--flow", action="append", default=None,
                        metavar="SCRIPT",
                        help="flow script to check (repeatable; default: "
                             + " and ".join(repr(flow) for flow in DEFAULT_FLOWS)
                             + ")")
    parser.add_argument("--cost", action="append", default=None,
                        metavar="MODEL",
                        help="check the canonical differential flow of a "
                             "registered cost model (repeatable; 'all' "
                             "expands to every registered model); combines "
                             "with --flow")
    parser.add_argument("--num-random-words", type=int, default=16,
                        help="packed 64-bit words per PI for the oracle "
                             "stimulus (default: 16)")
    parser.add_argument("--shrink-budget", type=int, default=200,
                        help="predicate evaluations the shrinker may spend "
                             "(default: 200)")
    parser.add_argument("--out", default="diff-reproducers", metavar="DIR",
                        help="directory for shrunk reproducers "
                             "(default: diff-reproducers)")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="re-run the checks on a stored reproducer "
                             "and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per (seed, flow)")
    args = parser.parse_args(argv)

    if args.replay is not None:
        failures = replay_reproducer(args.replay,
                                     num_random_words=args.num_random_words)
        if failures:
            print(f"reproducer {args.replay} still diverges:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"reproducer {args.replay} no longer diverges")
        return 0

    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    flows: List[str] = list(args.flow) if args.flow else []
    if args.cost:
        names = list(args.cost)
        if "all" in names:
            names = [name for name in names if name != "all"]
            names.extend(sorted(registered_cost_models()))
        try:
            for name in names:
                script = cost_model_flow(name)
                if script not in flows:
                    flows.append(script)
        except ValueError as error:
            parser.error(str(error))
    config = DiffConfig(
        flows=tuple(flows) if flows else DEFAULT_FLOWS,
        seeds=args.seeds,
        seed_start=args.seed_start,
        time_budget=args.time_budget,
        num_random_words=args.num_random_words,
        shrink_budget=args.shrink_budget,
        output_dir=args.out,
    )
    try:
        report = run_diff(config, verbose=args.verbose)
    except ValueError as error:
        print(f"repro.testing.diff: error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return 1 if report.divergences else 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
