"""Cost-model protocol: registry, flow atoms, engine plumbing, fhe model."""

import json

import pytest

from repro.circuits import control as C
from repro.engine import EngineConfig, run_batch
from repro.engine.cli import build_parser, config_from_args, main
from repro.engine.core import (BatchReport, build_pipeline, resolved_flow,
                               run_circuit, select_cases)
from repro.rewriting import (CostModel, FheNoiseBudgetCost, McCost,
                             RewriteParams, cost_model, flow_script,
                             optimize, parse_flow, register_cost_model,
                             registered_cost_models, standard_flow,
                             unregister_cost_model)
from repro.testing.diff import cost_model_flow
from repro.xag import equivalent, multiplicative_depth


class _AndWeightedCost(CostModel):
    """Minimal custom model for registry/flow tests (mc with a scaled metric)."""

    name = "weighted"
    description = "ANDs times a weight"
    metric_name = "wands"

    def __init__(self, weight=3, name=None):
        self.weight = weight
        if name is not None:
            self.name = name

    def min_and_gain(self, allow_zero_gain):
        return 1

    def key(self, candidate):
        return (candidate.gain_ands, candidate.gain_gates)

    def acceptable(self, candidate, allow_zero_gain):
        return candidate.gain_ands > 0

    def made_progress(self, stats):
        return stats.ands_after < stats.ands_before

    def metric(self, ands, xors, depth):
        return self.weight * ands


@pytest.fixture
def weighted_model():
    model = register_cost_model(_AndWeightedCost())
    yield model
    unregister_cost_model(model.name)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_builtins_are_registered():
    models = registered_cost_models()
    assert set(models) >= {"mc", "size", "mc-depth", "fhe"}
    for name, model in models.items():
        assert model.name == name
        assert cost_model(name) is model  # singletons


def test_cost_model_resolves_instances_passthrough():
    model = FheNoiseBudgetCost(depth_weight=4)
    assert cost_model(model) is model


def test_cost_model_unknown_name_lists_registry():
    with pytest.raises(ValueError, match="unknown cost model 'fast'") as info:
        cost_model("fast")
    assert "mc-depth" in str(info.value)


def test_register_rejects_duplicate(weighted_model):
    with pytest.raises(ValueError, match="already registered"):
        register_cost_model(_AndWeightedCost())


def test_register_rejects_reserved_and_bad_names():
    for bad in ("guard", "repeat", "balance", "sweep", "baseline"):
        with pytest.raises(ValueError, match="reserved"):
            register_cost_model(_AndWeightedCost(name=bad))
    for bad in ("", "Mc", "9lives", "has space", "dot.dot"):
        with pytest.raises(ValueError, match="not a valid flow atom"):
            register_cost_model(_AndWeightedCost(name=bad))


def test_cost_models_compare_by_value():
    # dataclasses.astuple deep-copies params into the pipeline's
    # rewriter-cache key; value equality keeps rewriter sharing alive.
    assert FheNoiseBudgetCost() == FheNoiseBudgetCost()
    assert FheNoiseBudgetCost(depth_weight=4) != FheNoiseBudgetCost()
    assert McCost() != FheNoiseBudgetCost()
    assert hash(FheNoiseBudgetCost()) == hash(FheNoiseBudgetCost())


# ----------------------------------------------------------------------
# flow atoms (satellite: parse_flow rejects unknown atoms descriptively)
# ----------------------------------------------------------------------
def test_parse_flow_accepts_registered_atoms():
    passes = parse_flow("fhe,fhe*,fhe*3")
    assert [p.objective for p in passes] == ["fhe", "fhe", "fhe"]
    assert [p.max_rounds for p in passes] == [1, None, 3]


def test_parse_flow_accepts_custom_registered_atom(weighted_model):
    passes = parse_flow("weighted*")
    assert passes[0].objective == "weighted"


def test_parse_flow_rejects_unknown_atom_listing_atoms_and_models():
    with pytest.raises(ValueError) as info:
        parse_flow("mc,area*")
    message = str(info.value)
    assert message.startswith("flow script:")
    assert "unknown step 'area'" in message
    # the error must teach both vocabularies: structural atoms and models
    for atom in ("sweep", "balance", "baseline"):
        assert atom in message
    for model in ("mc", "size", "mc-depth", "fhe"):
        assert model in message


def test_engine_exits_2_on_unknown_flow_atom(capsys):
    assert main(["--circuits", "decoder", "--flow", "mc,area*"]) == 2
    err = capsys.readouterr().err
    assert "unknown step 'area'" in err and "fhe" in err


def test_flow_script_round_trips():
    for script in ("mc,mc*", "balance,guard(mc*),mc-depth*",
                   "repeat:8(balance,guard(mc*2),fhe*)",
                   "baseline,sweep,size*3"):
        assert flow_script(parse_flow(script)) == script


def test_standard_flow_serialises_for_every_model():
    for name in registered_cost_models():
        script = flow_script(standard_flow(name))
        assert flow_script(parse_flow(script)) == script


# ----------------------------------------------------------------------
# engine plumbing: --cost, resolved flow, cost fields
# ----------------------------------------------------------------------
def test_cli_cost_model_option_has_one_spelling():
    """``--cost`` is the only spelling: the parser keeps no legacy alias."""
    parser = build_parser()
    (option,) = [action for action in parser._actions
                 if action.dest == "cost"]
    assert option.option_strings == ["--cost"]
    assert config_from_args(parser.parse_args(["--cost", "fhe"])).objective \
        == "fhe"


def test_cli_rejects_unknown_cost(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--cost", "fast"])
    assert excinfo.value.code == 2


def test_resolved_flow_serialises_canonical_pipeline():
    # no --flow: the canonical pipeline is reported, never null; the
    # engine's round cap shows up in the script (cap 2 = one-round plus a
    # single convergence round)
    assert resolved_flow(EngineConfig(objective="mc",
                                      max_rounds=None)) == "mc,mc*"
    assert resolved_flow(EngineConfig(objective="mc")) == "mc,mc"
    depth_script = resolved_flow(EngineConfig(objective="mc-depth",
                                              max_rounds=None))
    assert "guard(" in depth_script and "mc-depth*" in depth_script
    # a custom flow wins, reported in canonical spelling
    assert resolved_flow(EngineConfig(flow="balance,mc*")) == "balance,mc*"
    assert resolved_flow(EngineConfig(flow=" balance , mc* ")) == "balance,mc*"
    assert resolved_flow(EngineConfig(flow="repeat(balance,mc*)")) \
        == "repeat:8(balance,mc*)"
    # ... prefixed with the baseline step size_baseline injects into it, so
    # the reported script is the pipeline that runs
    injected = EngineConfig(flow="mc*", size_baseline=True)
    assert resolved_flow(injected) == "baseline,mc*"
    assert resolved_flow(injected) == flow_script(build_pipeline(injected))
    assert "[flow: baseline,mc*]" in BatchReport(config=injected).render()
    # a script that already has a baseline step is reported unchanged
    assert resolved_flow(EngineConfig(flow="mc,baseline,mc*",
                                      size_baseline=True)) == "mc,baseline,mc*"


def test_json_payload_reports_resolved_flow_and_cost(tmp_path):
    """Regression: the payload said objective="mc" and flow=null even when a
    custom --flow drove the run — it must name what actually executed."""
    custom = tmp_path / "custom.json"
    assert main(["--circuits", "decoder", "--rounds", "1",
                 "--flow", "balance,mc*", "--json", str(custom)]) == 0
    payload = json.loads(custom.read_text())
    assert payload["config"]["flow"] == "balance,mc*"
    assert payload["config"]["cost"] == "mc"
    assert "objective" not in payload["config"]

    legacy = tmp_path / "legacy.json"
    assert main(["--circuits", "decoder", "--rounds", "0",
                 "--json", str(legacy)]) == 0
    payload = json.loads(legacy.read_text())
    assert payload["config"]["flow"] == "mc,mc*"  # resolved, not null
    circuit = payload["circuits"][0]
    assert circuit["cost_model"] == "mc"
    assert circuit["cost_after"] <= circuit["cost_before"]
    assert circuit["within_budget"] is None


def test_engine_fhe_end_to_end(tmp_path, capsys):
    json_path = tmp_path / "fhe.json"
    exit_code = main(["--circuits", "router", "--rounds", "2",
                      "--cost", "fhe", "--json", str(json_path)])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "[fhe]" in out
    assert "noise" in out  # the model's metric column
    payload = json.loads(json_path.read_text())
    assert payload["config"]["cost"] == "fhe"
    circuit = payload["circuits"][0]
    assert circuit["cost_model"] == "fhe"
    assert circuit["verified"] is True
    assert circuit["mult_depth_after"] <= circuit["mult_depth_before"]
    assert circuit["ands_after"] <= circuit["ands_before"]
    assert circuit["cost_after"] <= circuit["cost_before"]
    noise = cost_model("fhe")
    assert circuit["cost_after"] == noise.metric(
        circuit["ands_after"], circuit["xors_after"],
        circuit["mult_depth_after"])


def test_run_batch_accepts_model_instance():
    model = FheNoiseBudgetCost(depth_weight=4)
    batch = run_batch(EngineConfig(circuits=["router"], objective=model,
                                   max_rounds=1))
    report = batch.reports[0]
    assert report.error is None
    assert report.cost_model == "fhe"
    assert report.cost_after == 4 * report.depth_after + report.ands_after


def test_fhe_level_cap_flags_budget():
    capped = FheNoiseBudgetCost(level_cap=3)
    assert capped.within_budget(3) is True
    assert capped.within_budget(4) is False
    assert FheNoiseBudgetCost().within_budget(4) is None
    config = EngineConfig(circuits=["router"], objective=capped, max_rounds=2)
    report = run_circuit(select_cases(config)[0], config)
    assert report.error is None
    assert report.within_budget == (report.depth_after <= 3)


# ----------------------------------------------------------------------
# fhe optimisation contract
# ----------------------------------------------------------------------
def test_fhe_objective_monotone_on_control_circuits():
    for builder in (C.int_to_float, lambda: C.priority_encoder(16)):
        xag = builder()
        result = optimize(xag, params=RewriteParams(objective="fhe"))
        assert equivalent(xag, result.final)
        assert result.final.num_ands <= xag.num_ands
        assert multiplicative_depth(result.final) <= multiplicative_depth(xag)


def test_custom_model_instance_in_rewriter(weighted_model):
    xag = C.int_to_float()
    result = optimize(xag, params=RewriteParams(objective=_AndWeightedCost()))
    baseline = optimize(xag)
    # mc-identical pricing must reach the mc result
    assert result.final.num_ands == baseline.final.num_ands
    assert equivalent(xag, result.final)


def test_diff_cost_model_flows():
    assert cost_model_flow("mc") == "mc,mc*"
    assert cost_model_flow("fhe") == "balance,guard(mc*),fhe*"
    with pytest.raises(ValueError, match="unknown cost model"):
        cost_model_flow("fast")
