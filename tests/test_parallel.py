"""Tests of the worker pool subsystem.

Covers the scheduling and delta-streaming pieces of
:mod:`repro.engine.parallel` in isolation, plus the end-to-end parity
contracts: a pool run (any start method, any worker count) must produce
bit-identical results and persisted bundles to ``jobs=1``.
"""

import json
import os

import pytest

from repro.circuits.benchmark_case import BenchmarkCase, PaperNumbers
from repro.cuts import CutFunctionCache
from repro.engine import EngineConfig, run_batch
from repro.engine.parallel import (DeltaCursor, _WorkerState, install_delta,
                                   resolve_jobs, schedule_cases, size_estimate)
from repro.mc import McDatabase
from repro.testing import full_adder_naive


def _case(name, initial_and=None, slow=False):
    paper = None
    if initial_and is not None:
        paper = PaperNumbers(2, 1, initial_and, 0, None, None, 0.0,
                             None, None, 0.0)
    return BenchmarkCase(name=name, group="control", paper=paper,
                         build_default=full_adder_naive, slow=slow)


# ----------------------------------------------------------------------
# longest-first scheduling
# ----------------------------------------------------------------------
def test_size_estimate_orders_by_paper_ands_with_slow_bonus():
    small, big = _case("small", 10), _case("big", 5000)
    slow = _case("slow-but-small", 10, slow=True)
    unknown = _case("unknown")
    assert size_estimate(big) > size_estimate(small)
    assert size_estimate(slow) > size_estimate(big)   # slow outranks all
    assert size_estimate(unknown) == 0


def test_schedule_cases_longest_first_keeps_registry_positions():
    cases = [_case("a", 10), _case("b", 5000), _case("c"), _case("d", 10)]
    order = schedule_cases(cases)
    assert [case.name for _, case in order] == ["b", "a", "d", "c"]
    # positions are the original registry indices (report restoration key)
    assert [index for index, _ in order] == [1, 0, 3, 2]
    # ties ("a" and "d" both weigh 10) break by registry position
    assert order[1][0] < order[2][0]


def test_resolve_jobs_auto_and_validation():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == max(1, os.cpu_count() or 1)
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        resolve_jobs(-1)


# ----------------------------------------------------------------------
# streaming cache deltas
# ----------------------------------------------------------------------
def test_delta_cursor_emits_only_newly_learnt_entries():
    state = _WorkerState(EngineConfig(suites=("epfl",), max_rounds=1), None)
    assert state.push() is None            # nothing learnt yet
    state.run("int2float")
    delta = state.push()
    assert delta is not None
    assert delta["recipes"] and delta["plans"]
    # only learnt synthesis state streams: no cone tables, no results
    assert sorted(delta) == ["classifications", "format", "plans",
                             "recipes", "version"]
    assert state.push() is None            # cursor drained

    # installing the delta elsewhere and advancing must not re-emit it
    database = McDatabase()
    cut_cache = CutFunctionCache(database)
    install_delta(delta, database, cut_cache)
    cursor = DeltaCursor(database, cut_cache)
    assert cursor.collect() is None

    peer = McDatabase()
    peer_cache = CutFunctionCache(peer)
    peer_cursor = DeltaCursor(peer, peer_cache)
    install_delta(delta, peer, peer_cache)
    peer_cursor.advance()                  # the pull path: mark, don't emit
    assert peer_cursor.collect() is None


def test_install_delta_is_idempotent():
    state = _WorkerState(EngineConfig(suites=("epfl",), max_rounds=1), None)
    state.run("int2float")
    delta = state.push()
    database = McDatabase()
    cut_cache = CutFunctionCache(database)
    install_delta(delta, database, cut_cache)
    once = (database.stats()["stored_recipes"], len(cut_cache.plan_keys()))
    install_delta(delta, database, cut_cache)
    assert (database.stats()["stored_recipes"],
            len(cut_cache.plan_keys())) == once


def test_worker_seeded_with_bundle_reuses_every_plan():
    """The seed bundle ships the whole shared store: a worker handed a case
    another worker already solved does no synthesis at all."""
    first = _WorkerState(EngineConfig(suites=("epfl",), max_rounds=1), None)
    first.run("int2float")
    assert first.stats()["cut_cache"]["plan_misses"] > 0
    seed = first.push()
    second = _WorkerState(EngineConfig(suites=("epfl",), max_rounds=1), seed)
    second.run("int2float")
    assert second.stats()["database"]["synthesis_calls"] == 0
    assert second.stats()["cut_cache"]["plan_misses"] == 0


# ----------------------------------------------------------------------
# pool end-to-end and report observability
# ----------------------------------------------------------------------
def test_pool_reports_actual_workers_and_wall_times():
    batch = run_batch(EngineConfig(suites=("epfl",),
                                   circuits=["decoder", "int2float"],
                                   max_rounds=1, jobs=2))
    assert batch.workers == 2
    rendered = batch.render()
    assert "[2 workers]" in rendered
    assert "wall" in rendered.splitlines()[0]      # per-case wall column
    slowest = batch.slowest_cases()
    assert {name for name, _ in slowest} == {"decoder", "int2float"}
    assert all(seconds >= 0.0 for _, seconds in slowest)
    assert [s for _, s in slowest] == sorted(
        (s for _, s in slowest), reverse=True)


def test_spawn_pool_matches_sequential_with_caches_and_persist(
        tmp_path, monkeypatch):
    """Start-method parity (the strictest pickling regime): jobs=4 under
    ``spawn`` with shared caches and a persisted bundle must reproduce the
    sequential run exactly — identical per-circuit numbers in registry
    order and a byte-for-byte identical merged bundle."""
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")
    base = dict(suites=("epfl",),
                circuits=["decoder", "int2float", "alu_ctrl", "arbiter"],
                max_rounds=1)
    seq_bundle = tmp_path / "seq.json"
    pool_bundle = tmp_path / "pool.json"
    sequential = run_batch(EngineConfig(**base, jobs=1, persist=seq_bundle))
    pooled = run_batch(EngineConfig(**base, jobs=4, persist=pool_bundle))
    assert pooled.workers == 4

    assert [r.name for r in pooled.reports] == base["circuits"]
    for seq, par in zip(sequential.reports, pooled.reports):
        assert seq.error is None and par.error is None
        assert (seq.ands_after, seq.xors_after, seq.depth_after,
                len(seq.rounds), seq.verified) == \
            (par.ands_after, par.xors_after, par.depth_after,
             len(par.rounds), par.verified)

    seq_payload = json.loads(seq_bundle.read_text())
    pool_payload = json.loads(pool_bundle.read_text())
    assert seq_payload == pool_payload
