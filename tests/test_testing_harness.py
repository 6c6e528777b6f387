"""The differential harness itself: generators, oracle, shrinker, diff runner.

The centrepiece is the fault-injection test: a deliberately broken plan
insertion (every inserted plan computes the complement of its cut
function) must be *caught* by :func:`repro.testing.diff.check_modes`,
*shrunk* to a small reproducer on disk, and the reproducer must *replay
clean* once the fault is removed.  The harness compares two runs of one
flow; the results of each cost model's canonical flow are pinned in
``tests/test_flow_pins.py``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.rewriting import rewrite as rewrite_module
from repro.testing import (assert_equivalent, find_counterexample,
                           full_adder_naive, random_xag, seeded_xag,
                           shrink_xag)
from repro.testing.diff import (DEFAULT_FLOWS, DiffConfig, check_modes,
                                generator_knobs, load_reproducer, main,
                                replay_reproducer, run_diff)
from repro.testing.oracle import reference_words
from repro.xag.graph import Xag


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def _legacy_random_xag(rng, num_pis=6, num_gates=30, num_pos=3,
                       and_bias=0.5):
    """Verbatim copy of the original ``tests/helpers.py`` generator."""
    xag = Xag()
    xag.name = "random"
    signals = list(xag.create_pis(num_pis))
    for _ in range(num_gates):
        a = rng.choice(signals)
        b = rng.choice(signals)
        if rng.random() < 0.3:
            a = xag.create_not(a)
        if rng.random() < 0.3:
            b = xag.create_not(b)
        if rng.random() < and_bias:
            out = xag.create_and(a, b)
        else:
            out = xag.create_xor(a, b)
        signals.append(out)
    for index in range(num_pos):
        xag.create_po(signals[-(index + 1)], f"y{index}")
    return xag


def test_random_xag_default_stream_matches_legacy_helper():
    """Defaults are frozen: same seed -> byte-identical network as before."""
    for seed in (0, 7, 0xDAC19):
        new = random_xag(random.Random(seed))
        old = _legacy_random_xag(random.Random(seed))
        assert (new.num_ands, new.num_xors) == (old.num_ands, old.num_xors)
        assert find_counterexample(new, old) is None


def test_random_xag_knobs_are_reproducible_and_change_shape():
    deep = random_xag(random.Random(3), num_gates=60, locality=4)
    again = random_xag(random.Random(3), num_gates=60, locality=4)
    assert find_counterexample(deep, again) is None
    capped = random_xag(random.Random(3), num_gates=60, max_fanout=2)
    capped_again = random_xag(random.Random(3), num_gates=60, max_fanout=2)
    assert find_counterexample(capped, capped_again) is None


def test_random_xag_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        random_xag(random.Random(0), num_pis=0)
    with pytest.raises(ValueError):
        random_xag(random.Random(0), num_pis=2, num_gates=1, num_pos=9)


def test_seeded_xag_names_the_network():
    xag = seeded_xag(42, num_gates=10)
    assert xag.name == "seed42"


def test_generator_knobs_are_deterministic_and_in_range():
    for seed in range(20):
        knobs = generator_knobs(seed)
        assert knobs == generator_knobs(seed)
        assert 4 <= knobs["num_pis"] <= 8
        assert 20 <= knobs["num_gates"] <= 70
        random_xag(random.Random(seed), **knobs)  # shape is always valid


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def test_oracle_finds_concrete_counterexample():
    left = full_adder_naive()
    right = full_adder_naive()
    # break the carry output of one copy
    broken = Xag()
    a, b, cin = broken.create_pis(3)
    broken.create_po(broken.create_xor(broken.create_xor(a, b), cin), "sum")
    broken.create_po(broken.create_and(a, b), "cout")  # drops the cin term
    assert find_counterexample(left, right) is None
    pattern = find_counterexample(left, broken)
    assert pattern is not None and len(pattern) == 3
    with pytest.raises(AssertionError, match="differ"):
        assert_equivalent(left, broken, context="full adder")
    assert_equivalent(left, right)


def test_oracle_reports_interface_mismatch():
    small = seeded_xag(1, num_pis=3, num_gates=5, num_pos=1)
    big = seeded_xag(1, num_pis=5, num_gates=5, num_pos=1)
    assert find_counterexample(small, big) == [0] * 5


def test_reference_words_is_deterministic():
    xag = seeded_xag(9, num_gates=25)
    assert reference_words(xag) == reference_words(xag)


# ----------------------------------------------------------------------
# shrinker
# ----------------------------------------------------------------------
def test_shrink_reaches_local_minimum_for_structural_predicate():
    xag = seeded_xag(5, num_pis=4, num_gates=40, num_pos=3)
    shrunk, evaluations = shrink_xag(
        xag, lambda candidate: candidate.num_ands >= 1)
    assert shrunk.num_gates <= xag.num_gates
    assert shrunk.num_ands >= 1
    assert shrunk.num_pos == 1
    assert evaluations > 0
    # locally minimal: a single AND with (possibly complemented) PI fanins
    assert shrunk.num_gates == 1


def test_shrink_returns_input_when_predicate_fails_upfront():
    xag = seeded_xag(5, num_gates=12)
    shrunk, evaluations = shrink_xag(xag, lambda candidate: False)
    assert shrunk is xag
    assert evaluations == 1


def test_shrink_respects_evaluation_budget():
    xag = seeded_xag(5, num_pis=4, num_gates=40, num_pos=3)
    _, evaluations = shrink_xag(xag, lambda candidate: True,
                                max_evaluations=10)
    assert evaluations <= 10


def test_shrink_treats_crashing_predicate_as_reproducing():
    xag = seeded_xag(5, num_gates=15)

    def predicate(candidate):
        if candidate.num_gates < 15:
            raise RuntimeError("boom")
        return True

    shrunk, _ = shrink_xag(xag, predicate, max_evaluations=30)
    # every reduction crashed, so every reduction was kept
    assert shrunk.num_gates <= xag.num_gates


# ----------------------------------------------------------------------
# differential checks
# ----------------------------------------------------------------------
def test_check_modes_passes_on_default_flows():
    xag = seeded_xag(0, **generator_knobs(0))
    for flow in DEFAULT_FLOWS:
        assert check_modes(xag, flow, num_random_words=8) == []


def test_run_diff_clean_run(tmp_path):
    config = DiffConfig(flows=("mc,mc*",), seeds=3, num_random_words=8,
                        output_dir=tmp_path)
    report = run_diff(config)
    assert report.seeds_run == 3
    assert report.divergences == []
    assert not any(tmp_path.iterdir())  # no reproducers written
    assert "0 divergences" in report.render()


def test_run_diff_honours_time_budget(tmp_path):
    config = DiffConfig(flows=("mc",), seeds=1000, time_budget=0.0,
                        num_random_words=8, output_dir=tmp_path)
    report = run_diff(config)
    assert report.budget_exhausted
    assert report.seeds_run < 1000


# ----------------------------------------------------------------------
# fault injection: the harness must catch, shrink and replay
# ----------------------------------------------------------------------
@pytest.fixture
def complemented_plans(monkeypatch):
    """Every inserted plan computes the complement of its cut function (a
    miscompiled recipe): the first applied rewrite changes the function."""
    original = rewrite_module.insert_plan
    monkeypatch.setattr(
        rewrite_module, "insert_plan",
        lambda xag, plan, leaves: original(xag, plan, leaves) ^ 1)
    return original


def test_injected_fault_is_caught(complemented_plans):
    xag = seeded_xag(10, **generator_knobs(10))
    failures = check_modes(xag, "mc,mc*", num_random_words=8)
    assert failures, "the plan fault must be detected"
    # both legs run the faulty rewriter; the per-round check stops each
    assert {failure.split(":")[0] for failure in failures} == \
        {"shared", "fresh"}
    assert all("changed the network function" in failure
               for failure in failures)


def test_injected_fault_is_shrunk_and_replays_clean(tmp_path, monkeypatch,
                                                    complemented_plans):
    config = DiffConfig(flows=("mc,mc*",), seeds=1, seed_start=10,
                        num_random_words=8, shrink_budget=60,
                        output_dir=tmp_path)
    report = run_diff(config)
    assert len(report.divergences) == 1
    outcome = report.divergences[0]
    assert outcome.seed == 10
    assert any("changed the network function" in failure
               for failure in outcome.failures)

    payload, shrunk = load_reproducer(outcome.reproducer)
    assert payload["seed"] == 10
    assert payload["flow"] == "mc,mc*"
    assert shrunk.num_gates < payload["original_gates"]
    # the shrunk network still reproduces the fault...
    assert check_modes(shrunk, "mc,mc*", num_random_words=8)
    assert main(["--replay", outcome.reproducer,
                 "--num-random-words", "8"]) == 1

    # ...and once the fault is fixed the stored reproducer replays clean
    monkeypatch.setattr(rewrite_module, "insert_plan", complemented_plans)
    assert replay_reproducer(outcome.reproducer, num_random_words=8) == []
    assert main(["--replay", outcome.reproducer,
                 "--num-random-words", "8"]) == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_clean_run_exits_zero(tmp_path, capsys):
    exit_code = main(["--seeds", "2", "--flow", "mc",
                      "--num-random-words", "8", "--out", str(tmp_path)])
    assert exit_code == 0
    assert "0 divergences" in capsys.readouterr().out


def test_cli_replay_missing_format_is_rejected(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a repro-diff-reproducer"):
        replay_reproducer(bogus)
