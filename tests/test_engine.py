"""Tests for the cut-function cache and the batch orchestration engine."""

import json
import os
import random

import pytest

from repro.circuits import control
from repro.testing import full_adder_naive, random_xag
from repro.cuts import CutFunctionCache, cut_function, enumerate_cuts
from repro.engine import EngineConfig, available_cases, run_batch, run_circuit
from repro.engine.cli import build_parser, config_from_args, main
from repro.engine.core import select_cases
from repro.mc import McDatabase
from repro.rewriting import CutRewriter, RewriteParams
from repro.xag.bitsim import SimulationCache


# ----------------------------------------------------------------------
# cut-function cache
# ----------------------------------------------------------------------
def test_cut_function_cache_memoises_cone_functions():
    xag = full_adder_naive()
    cuts = enumerate_cuts(xag, cut_size=3)
    cache = CutFunctionCache()
    some_cut = next(cut for node_cuts in cuts.values() for cut in node_cuts)

    uncached = cut_function(xag, some_cut)
    assert cut_function(xag, some_cut, cache=cache) == uncached
    assert cut_function(xag, some_cut, cache=cache) == uncached
    assert cache.function_misses == 1
    assert cache.function_hits == 1


def test_cut_function_cache_resets_on_rebind():
    left = full_adder_naive()
    right = random_xag(random.Random(1), num_pis=3, num_gates=10)
    cache = CutFunctionCache()
    cut = next(cut for node_cuts in enumerate_cuts(left, cut_size=3).values()
               for cut in node_cuts)
    cut_function(left, cut, cache=cache)
    assert len(cache._functions) == 1
    cache.bind(right)                     # different network → memo dropped
    assert len(cache._functions) == 0


def test_cut_function_cache_invalidated_by_rollback():
    """Rollback recycles node indices; the cone memo must not survive it."""
    from repro.cuts import Cut
    from repro.xag import Xag

    xag = Xag()
    a, b = xag.create_pis(2)
    checkpoint = xag.checkpoint()
    gate = xag.create_and(a, b)
    cut = Cut(gate >> 1, (a >> 1, b >> 1))
    cache = CutFunctionCache()
    assert cut_function(xag, cut, cache=cache) == 0b1000

    xag.rollback(checkpoint)
    xag.create_xor(a, b)                     # reuses the rolled-back index
    assert cut_function(xag, cut, cache=cache) == 0b0110


def test_cut_function_cache_plans_match_database():
    database = McDatabase()
    cache = CutFunctionCache(database)
    rng = random.Random(2)
    from repro.tt import random_table

    for _ in range(10):
        num_vars = rng.randint(2, 4)
        table = random_table(num_vars, rng)
        plan = cache.plan_for(table, num_vars)
        again = cache.plan_for(table, num_vars)
        assert again is plan              # exact-table level hit
        reference = database.plan_for(table, num_vars)
        assert reference.representative == plan.representative
        assert reference.num_ands == plan.num_ands
    assert cache.plan_hits == 10
    assert cache.plan_misses == 10
    stats = cache.stats()
    assert stats["plan_hit_rate"] == 0.5
    assert stats["stored_plans"] == len(cache) <= 10

    cache.clear()
    assert cache.plan_hits == 0 and len(cache) == 0
    assert len(database) > 0              # the database itself is untouched


def test_rewriter_shares_cut_cache_across_rounds():
    """Plans resolved in round 1 must be cache hits in round 2."""
    # int2float keeps candidates the lower bound cannot rule out, so its
    # rounds still resolve plans with pruning on
    xag = control.int_to_float()
    rewriter = CutRewriter(params=RewriteParams(cut_size=4))
    first, stats1 = rewriter.rewrite(xag)
    _, stats2 = rewriter.rewrite(first)
    assert stats1.plan_cache_misses > 0
    assert stats2.plan_cache_hits > 0
    # truth tables recur heavily between rounds of the same network
    assert stats2.plan_cache_hits >= stats2.plan_cache_misses


def test_rewriter_rejects_mismatched_cache_database():
    with pytest.raises(ValueError):
        CutRewriter(database=McDatabase(), cut_cache=CutFunctionCache(McDatabase()))


# ----------------------------------------------------------------------
# engine: case selection
# ----------------------------------------------------------------------
def test_available_cases_suites():
    epfl = available_cases(("epfl",))
    crypto = available_cases(("crypto",))
    corpus = available_cases(("corpus",))
    everything = available_cases(("all",))
    assert {case.group for case in epfl} == {"arithmetic", "control"}
    assert all(case.group == "mpc" for case in crypto)
    assert {case.group for case in corpus} == \
        {"arithmetic-sweep", "control-sweep", "crypto-full"}
    assert len(everything) == len(epfl) + len(crypto) + len(corpus)
    with pytest.raises(ValueError):
        available_cases(("nope",))


def test_select_cases_filters():
    config = EngineConfig(suites=("epfl",), groups=["control"])
    cases = select_cases(config)
    assert cases and all(case.group == "control" for case in cases)

    config = EngineConfig(suites=("epfl",), circuits=["decoder", "adder"])
    names = [case.name for case in select_cases(config)]
    assert names == ["decoder", "adder"]

    with pytest.raises(ValueError):
        select_cases(EngineConfig(suites=("epfl",), circuits=["not_a_circuit"]))


# ----------------------------------------------------------------------
# engine: running circuits
# ----------------------------------------------------------------------
def test_run_circuit_reports_stages_and_verifies():
    case = next(case for case in available_cases(("epfl",)) if case.name == "alu_ctrl")
    config = EngineConfig(suites=("epfl",), max_rounds=1)
    report = run_circuit(case, config)
    assert report.error is None
    assert report.verified is True
    assert report.ands_after <= report.ands_before
    assert report.rounds and report.rounds[0].verified is True
    stages = report.stage_timings()
    assert set(stages) == {"build", "baseline", "one_round", "convergence",
                           "verify", "select", "apply", "balance"}
    assert stages["baseline"] == 0.0          # size_baseline off by default
    assert stages["select"] > 0               # Phase-1 time is accounted
    assert report.total_seconds > 0


def test_run_circuit_survives_broken_case():
    from repro.circuits.benchmark_case import BenchmarkCase, PaperNumbers

    def explode():
        raise RuntimeError("boom")

    broken = BenchmarkCase(name="broken", group="control",
                           paper=PaperNumbers(1, 1, 1, 0, 1, 0, 0.0, 1, 0, 0.0),
                           build_default=explode, build_full=explode)
    report = run_circuit(broken, EngineConfig())
    assert report.error is not None and "boom" in report.error


def test_run_batch_shares_caches_and_renders():
    # decoder has no winning candidate: pruning skips all its plan lookups
    config = EngineConfig(suites=("epfl",), circuits=["int2float"], max_rounds=1)
    batch = run_batch(config)
    assert len(batch.reports) == 1 and not batch.failed
    assert batch.total_seconds > 0
    assert batch.cut_cache_stats["plan_misses"] > 0
    rendered = batch.render()
    assert "int2float" in rendered
    assert "plan cache" in rendered


def test_run_batch_skips_verification_above_limit():
    config = EngineConfig(suites=("epfl",), circuits=["decoder"], max_rounds=1,
                          verify_limit=1)
    batch = run_batch(config)
    report = batch.reports[0]
    assert report.error is None
    assert report.verified is None        # too large for the verify budget


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_config_mapping():
    args = build_parser().parse_args(
        ["--suite", "crypto", "--circuits", "md5,sha_256", "--rounds", "0",
         "--cut-size", "4", "--full-scale"])
    config = config_from_args(args)
    assert config.suites == ("crypto",)
    assert config.circuits == ["md5", "sha_256"]
    assert config.max_rounds is None
    assert config.cut_size == 4
    assert config.full_scale is True


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "adder" in out and "voter" in out


def test_cli_runs_and_writes_json(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    exit_code = main(["--suite", "epfl", "--circuits", "int2float", "--rounds", "1",
                      "--json", str(json_path)])
    assert exit_code == 0
    payload = json.loads(json_path.read_text())
    assert set(payload) == {"config", "summary", "circuits"}
    assert payload["config"]["suites"] == ["epfl"]
    assert payload["config"]["jobs"] == 1
    assert payload["summary"]["warm_start_loaded"] is False
    assert payload["summary"]["cut_cache"]["plan_misses"] > 0
    circuit = payload["circuits"][0]
    assert circuit["name"] == "int2float"
    assert circuit["verified"] is True
    assert set(circuit["stage_seconds"]) == {"build", "baseline", "one_round",
                                             "convergence", "verify",
                                             "select", "apply", "balance"}
    # depth is reported for every objective (monotonicity is only an
    # "mc-depth" guarantee, so only presence is asserted here)
    assert circuit["mult_depth_before"] >= 0
    assert circuit["mult_depth_after"] >= 0
    assert "int2float" in capsys.readouterr().out


def test_cli_rejects_negative_rounds(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--rounds", "-3"])
    assert excinfo.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_cli_rejects_bad_jobs(capsys):
    for bad in ("0", "-2", "two"):
        with pytest.raises(SystemExit) as excinfo:
            main(["--jobs", bad])
        assert excinfo.value.code == 2
    # 'auto' is the one CLI spelling of the automatic pool width (jobs=0)
    args = build_parser().parse_args(["--jobs", "auto"])
    assert config_from_args(args).jobs == 0


def test_cli_rejects_non_positive_cut_parameters(capsys):
    """Regression: --cut-size/--cut-limit silently accepted <= 0 (plain int);
    they must fail argparse validation with exit code 2 like --rounds."""
    for flag in ("--cut-size", "--cut-limit"):
        for bad in ("0", "-4", "six"):
            with pytest.raises(SystemExit) as excinfo:
                main([flag, bad])
            assert excinfo.value.code == 2, (flag, bad)
    err = capsys.readouterr().err
    assert "positive" in err


def test_cli_rejects_negative_verify_limit(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--verify-limit", "-1"])
    assert excinfo.value.code == 2
    assert "non-negative" in capsys.readouterr().err
    # 0 stays legal: it disables verification
    args = build_parser().parse_args(["--verify-limit", "0"])
    assert args.verify_limit == 0


def test_cli_rejects_unknown_objective(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--cost", "fast"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_objective_plumbs_into_config():
    args = build_parser().parse_args(["--cost", "mc-depth"])
    assert config_from_args(args).objective == "mc-depth"
    assert config_from_args(build_parser().parse_args([])).objective == "mc"


def test_run_batch_rejects_unknown_objective():
    with pytest.raises(ValueError, match="unknown cost model"):
        run_batch(EngineConfig(circuits=["decoder"], objective="fast"))


def test_engine_mc_depth_objective_reports_depth(tmp_path, capsys):
    json_path = tmp_path / "depth.json"
    exit_code = main(["--circuits", "int2float", "--rounds", "2",
                      "--cost", "mc-depth", "--json", str(json_path)])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "[mc-depth]" in out
    payload = json.loads(json_path.read_text())
    assert payload["config"]["cost"] == "mc-depth"
    circuit = payload["circuits"][0]
    assert circuit["mult_depth_after"] <= circuit["mult_depth_before"]
    assert circuit["verified"] is True
    assert circuit["stage_seconds"]["balance"] >= 0.0


def test_cli_db_flag_sets_warm_start_and_persist(tmp_path):
    bundle = tmp_path / "db.json"
    args = build_parser().parse_args(["--db", str(bundle), "--jobs", "3"])
    config = config_from_args(args)
    assert config.warm_start == str(bundle)
    assert config.persist == str(bundle)
    assert config.jobs == 3


def test_cli_db_round_trip(tmp_path, capsys):
    """Second CLI run against the same --db bundle must be a warm start."""
    bundle = tmp_path / "db.json"
    assert main(["--circuits", "decoder", "--rounds", "1", "--db", str(bundle)]) == 0
    first = capsys.readouterr().out
    assert "warm-start bundle created" in first
    assert bundle.exists()

    assert main(["--circuits", "decoder", "--rounds", "1", "--db", str(bundle)]) == 0
    second = capsys.readouterr().out
    assert "warm-start bundle loaded and updated" in second
    assert "[warm start]" in second
    assert " 0 misses" in second          # plan cache fully warm
    assert " 0 synthesis calls" in second


# ----------------------------------------------------------------------
# warm start and persistence (tentpole)
# ----------------------------------------------------------------------
def test_run_batch_persist_then_warm_start(tmp_path):
    """Save→load→rerun: the warm run does no new classification/synthesis."""
    bundle = tmp_path / "warm.json"
    base = dict(suites=("epfl",), circuits=["decoder", "int2float"], max_rounds=1)
    cold = run_batch(EngineConfig(**base, persist=bundle))
    assert not cold.failed and bundle.exists()
    assert cold.cut_cache_stats["plan_misses"] > 0
    assert cold.database_stats["synthesis_calls"] > 0

    warm = run_batch(EngineConfig(**base, warm_start=bundle))
    assert warm.warm_start_loaded is True
    assert warm.cut_cache_stats["plan_misses"] == 0
    assert warm.database_stats["classification_misses"] == 0
    assert warm.database_stats["synthesis_calls"] == 0
    for cold_report, warm_report in zip(cold.reports, warm.reports):
        assert cold_report.name == warm_report.name
        assert cold_report.ands_after == warm_report.ands_after
        assert cold_report.xors_after == warm_report.xors_after


def test_warm_start_ignores_legacy_cones_section(tmp_path):
    """Older v3 bundles carry a ``cones`` section of ``(cone hash, table)``
    pairs, and some a ``results`` section of whole-circuit results keyed by
    graph hash.  Both are ignored on load: the warm run still misses no
    plan, synthesises nothing and reproduces the cold run's (ANDs, depth,
    rounds) triples — even when a results entry for the very same circuit
    and flow claims other numbers."""
    from repro.engine.core import resolved_flow
    from repro.xag.serialize import to_dict
    from repro.xag.structhash import cone_hash, graph_hash

    bundle = tmp_path / "legacy.json"
    base = dict(suites=("epfl",), circuits=["decoder", "int2float"], max_rounds=1)
    cold = run_batch(EngineConfig(**base, persist=bundle))
    payload = json.loads(bundle.read_text())
    assert "cones" not in payload and "results" not in payload
    xag = full_adder_naive()
    payload["cones"] = sorted(
        [format(cone_hash(xag, cut.root, cut.leaves), "x"), cut_function(xag, cut)]
        for node_cuts in enumerate_cuts(xag).values() for cut in node_cuts)
    config = EngineConfig(**base)
    results = []
    for case in select_cases(config):
        network = case.build()
        digest = format(graph_hash(network), "x")
        # the entry layout older writers used; a hit would have replayed
        # the bogus report instead of running the pipeline
        results.append({"key": [digest, resolved_flow(config), "mc", 6, 12],
                        "network": to_dict(network), "network_hash": digest,
                        "report": {"ands_after": 0, "depth_after": 0,
                                   "rounds": 0, "verified": True}})

    def triples(batch):
        return [(r.name, r.ands_after, r.depth_after, len(r.rounds))
                for r in batch.reports]

    for legacy in (payload, dict(payload, results=results)):
        bundle.write_text(json.dumps(legacy))
        warm = run_batch(EngineConfig(**base, warm_start=bundle))
        assert warm.warm_start_loaded is True
        assert warm.cut_cache_stats["plan_misses"] == 0
        assert warm.database_stats["synthesis_calls"] == 0
        assert triples(warm) == triples(cold)


def test_run_batch_missing_warm_start_is_cold(tmp_path):
    batch = run_batch(EngineConfig(suites=("epfl",), circuits=["decoder"],
                                   max_rounds=1,
                                   warm_start=tmp_path / "missing.json"))
    assert batch.warm_start_loaded is False
    assert not batch.failed


@pytest.mark.parametrize("section, entry, message", [
    ("recipes", {"hash": "ab", "representative": 1},
     "malformed recipe entry #0: 'num_vars'"),
    ("plans", [1], "malformed plan entry #0"),
])
def test_cli_malformed_bundle_section_fails_with_context(
        tmp_path, capsys, section, entry, message):
    """A broken ``recipes`` or ``plans`` entry ends the run with an error
    naming the bundle and the entry, not a bare traceback."""
    bundle = McDatabase().to_bundle()
    bundle[section] = [entry]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bundle))
    assert main(["--circuits", "decoder", "--db", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err


def test_cli_rejects_removed_result_cache_flag(capsys):
    """The whole-circuit result cache is gone; its flag is an unknown
    argument (exit 2), not a silently ignored one."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--circuits", "decoder", "--result-cache"])
    assert excinfo.value.code == 2
    assert "--result-cache" in capsys.readouterr().err


def test_cli_rejects_removed_rebuild_flag(capsys):
    """Rewrites are applied in place only; the out-of-place rebuild flag is
    an unknown argument (exit 2), not a silently ignored one."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--circuits", "decoder", "--rebuild"])
    assert excinfo.value.code == 2
    assert "--rebuild" in capsys.readouterr().err


# ----------------------------------------------------------------------
# worker pool (tentpole)
# ----------------------------------------------------------------------
def test_jobs_two_matches_jobs_one():
    """Pool runs must report identical results in registry order."""
    base = dict(suites=("epfl",), circuits=["decoder", "int2float"], max_rounds=1)
    sequential = run_batch(EngineConfig(**base, jobs=1))
    pooled = run_batch(EngineConfig(**base, jobs=2))
    assert pooled.jobs == 2
    assert pooled.workers == 2
    assert len(pooled.worker_stats) == 2
    assert [r.name for r in pooled.reports] == [r.name for r in sequential.reports]
    for seq, par in zip(sequential.reports, pooled.reports):
        assert seq.error is None and par.error is None
        assert (seq.ands_before, seq.xors_before) == (par.ands_before, par.xors_before)
        assert (seq.ands_after, seq.xors_after) == (par.ands_after, par.xors_after)
        assert seq.verified == par.verified
    # aggregated worker counters land in the batch-level statistics
    assert pooled.cut_cache_stats["plan_misses"] > 0
    assert pooled.database_stats["synthesis_calls"] > 0
    # the merged shared store holds every worker's recipes
    assert pooled.database_stats["stored_recipes"] > 0
    # every counter the workers report is summed: the pool's statistics
    # carry the sequential run's keys, and counters stay integers
    for section in ("database_stats", "cut_cache_stats"):
        seq_stats = getattr(sequential, section)
        pool_stats = getattr(pooled, section)
        assert set(pool_stats) == set(seq_stats), section
        for stats in (seq_stats, pool_stats):
            for key, value in stats.items():
                expected = float if key.endswith("_rate") else int
                assert type(value) is expected, (section, key, value)
    for key in ("stored_plans", "function_misses", "function_invalidations"):
        assert pooled.cut_cache_stats[key] == sequential.cut_cache_stats[key]
    # pruning depends on the table and the saving only, never on what the
    # (per-worker) caches already hold
    assert pooled.cut_cache_stats["plans_pruned"] > 0
    assert pooled.cut_cache_stats["plans_pruned"] == \
        sequential.cut_cache_stats["plans_pruned"]
    # store sizes are read from the merged store, not summed...
    for key in ("stored_recipes", "total_recipe_ands"):
        assert pooled.database_stats[key] == sequential.database_stats[key]
    # ...except the per-network function memo, which no store merges
    assert pooled.cut_cache_stats["stored_functions"] == sum(
        worker["cut_cache"]["stored_functions"]
        for worker in pooled.worker_stats)


def test_workers_capped_by_case_count():
    batch = run_batch(EngineConfig(suites=("epfl",), circuits=["decoder"],
                                   max_rounds=1, jobs=8))
    assert batch.jobs == 8                # the requested width is reported...
    assert batch.workers == 1             # ...but one case → no point forking
    assert not batch.failed


def test_run_batch_rejects_negative_jobs():
    with pytest.raises(ValueError):
        run_batch(EngineConfig(suites=("epfl",), circuits=["decoder"], jobs=-1))


def test_jobs_zero_resolves_to_cpu_count():
    """jobs=0 is the auto sentinel: one worker per CPU, clamped by cases."""
    batch = run_batch(EngineConfig(suites=("epfl",), circuits=["decoder"],
                                   max_rounds=1, jobs=0))
    assert batch.jobs == (os.cpu_count() or 1)
    assert batch.workers == 1
    assert not batch.failed


def test_worker_state_honours_direct_mode():
    """Workers must inherit the batch's classification mode, so an ablation
    run (use_classification=False) stays identical under --jobs."""
    from repro.engine.parallel import _WorkerState

    config = EngineConfig(suites=("epfl",), max_rounds=1)
    state = _WorkerState(config, None, use_classification=False)
    report = state.run("alu_ctrl")
    stats = state.stats()
    assert report.error is None
    assert stats["database"]["classification_misses"] == 0   # classifier unused
    assert stats["database"]["synthesis_calls"] > 0
    # everything the worker learnt streams back as one content-addressed delta
    delta = state.push()
    assert delta is not None and delta["recipes"]
    assert state.push() is None           # cursor drained: nothing new


def test_pool_run_persists_merged_bundle(tmp_path):
    """A pool run's bundle must warm-start a later sequential run."""
    bundle = tmp_path / "merged.json"
    base = dict(suites=("epfl",), circuits=["decoder", "int2float"], max_rounds=1)
    pooled = run_batch(EngineConfig(**base, jobs=2, persist=bundle))
    assert not pooled.failed and bundle.exists()

    warm = run_batch(EngineConfig(**base, warm_start=bundle))
    assert warm.warm_start_loaded is True
    assert warm.cut_cache_stats["plan_misses"] == 0
    assert warm.database_stats["synthesis_calls"] == 0


# ----------------------------------------------------------------------
# batch report rendering (regression: the summary shows live metrics)
# ----------------------------------------------------------------------
def test_batch_report_summary_pins_meaningful_metrics():
    """The summary reports plan hit rate and db counters, not the dead
    classification hit rate (structurally 0 behind the plan memo)."""
    from repro.engine.core import BatchReport, CircuitReport

    batch = BatchReport(config=EngineConfig(), jobs=2, workers=2,
                        warm_start_loaded=True)
    batch.reports = [CircuitReport(name="decoder", group="control")]
    batch.total_seconds = 1.5
    batch.cut_cache_stats = {"plan_hits": 30, "plan_misses": 10,
                             "plans_pruned": 7}
    batch.database_stats = {"stored_recipes": 4, "synthesis_calls": 5}
    summary = batch.render().splitlines()[-1]
    assert summary == ("1/1 circuits in 1.50s [2 workers] [warm start] "
                       "[python kernels] | "
                       "plan cache 30 hits / 10 misses (75% hit rate), "
                       "7 pruned | "
                       "db 4 recipes / 5 synthesis calls | "
                       "sim cache 0 hits / 0 misses")
    assert "classification hit rate" not in batch.render()


# ----------------------------------------------------------------------
# incremental verification equivalence (tentpole acceptance)
# ----------------------------------------------------------------------
def test_cached_flow_produces_same_result_as_uncached():
    """Shared caches must not change the optimisation result, only its cost."""
    from repro.rewriting import optimize

    xag = random_xag(random.Random(4), num_pis=6, num_gates=45)
    plain = optimize(xag, max_rounds=2)
    cached = optimize(xag, max_rounds=2,
                      cut_cache=CutFunctionCache(), sim_cache=SimulationCache())
    assert plain.final.num_ands == cached.final.num_ands
    assert plain.final.num_xors == cached.final.num_xors
    from repro.xag import equivalent
    assert equivalent(plain.final, cached.final)
