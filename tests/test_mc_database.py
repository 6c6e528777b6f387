"""Tests for the representative database (XAG_DB analogue)."""

import json
import os
import random

import pytest

from repro.mc import McDatabase, McSynthesizer
from repro.tt import random_table, table_mask
from repro.tt.bits import projection
from repro.xag.simulate import output_truth_tables
from repro.xag.structhash import graph_hash


def apply_plan_to_tables(plan):
    """Evaluate a plan symbolically: the recipe output transformed by the plan."""
    recipe_table = output_truth_tables(plan.recipe)[0]
    return plan.transform.apply_to_table(recipe_table)


def test_plan_reproduces_function():
    database = McDatabase()
    rng = random.Random(1)
    for _ in range(20):
        num_vars = rng.randint(2, 6)
        table = random_table(num_vars, rng)
        plan = database.plan_for(table, num_vars)
        assert output_truth_tables(plan.recipe)[0] == plan.representative
        assert apply_plan_to_tables(plan) == table
        assert plan.num_ands == plan.recipe.num_ands


def test_plan_for_majority_has_one_and():
    database = McDatabase()
    plan = database.plan_for(0xE8, 3)
    assert plan.num_ands == 1


def test_and_cost_helper():
    database = McDatabase()
    assert database.and_cost(projection(0, 3) ^ projection(1, 3), 3) == 0
    assert database.and_cost(0xE8, 3) == 1


def test_classification_reuse_across_equivalent_functions():
    """Functions of the same (small-n) class share a single stored recipe."""
    database = McDatabase()
    database.plan_for(0xE8, 3)   # majority
    database.plan_for(0x88, 3)   # 2-input AND as a 3-variable function
    database.plan_for(0x11, 3)   # NOR-like member of the same class
    stats = database.stats()
    assert stats["stored_recipes"] == 1
    assert stats["synthesis_calls"] == 1


def test_direct_mode_bypasses_classification():
    database = McDatabase(use_classification=False)
    plan = database.plan_for(0xE8, 3)
    assert plan.representative == 0xE8
    assert plan.transform.is_identity()
    assert apply_plan_to_tables(plan) == 0xE8


def test_database_persistence(tmp_path):
    database = McDatabase()
    rng = random.Random(2)
    tables = [(random_table(n, rng), n) for n in (3, 4, 5) for _ in range(3)]
    expected = {key: database.plan_for(*key).num_ands for key in tables}

    path = tmp_path / "db.json"
    database.save(path)

    restored = McDatabase()
    count = restored.load(path)
    assert count == len(restored._recipes)
    for (table, num_vars), ands in expected.items():
        plan = restored.plan_for(table, num_vars)
        assert plan.num_ands == ands
    # no new synthesis was necessary for already-stored representatives
    assert restored.synthesis_calls == 0


def test_bundle_is_versioned_and_carries_classifications(tmp_path):
    database = McDatabase()
    database.plan_for(0xE8, 3)
    database.plan_for(0x96, 3)
    path = tmp_path / "bundle.json"
    database.save(path, plan_keys=[(0xE8, 3), (0x96, 3)])

    payload = json.loads(path.read_text())
    assert payload["format"] == McDatabase.BUNDLE_FORMAT
    assert payload["version"] == McDatabase.BUNDLE_VERSION
    assert payload["plans"] == [[0x96, 3], [0xE8, 3]]
    assert len(payload["classifications"]) == len(database.classification_cache)

    restored = McDatabase()
    restored.load(path)
    # classifications travel with the bundle: replanning a loaded table goes
    # through the restored entry, not a fresh classifier run
    assert restored.classification_cache.peek(0xE8, 3) is not None
    plan = restored.plan_for(0xE8, 3)
    assert plan.num_ands == 1
    assert restored.synthesis_calls == 0
    assert restored.classification_cache.hits == 1


def test_load_rejects_legacy_recipe_list(tmp_path):
    database = McDatabase()
    database.plan_for(0xE8, 3)
    bundle = database.to_bundle()
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(bundle["recipes"]))  # v1 layout: bare list

    restored = McDatabase()
    with pytest.raises(ValueError, match="legacy.json.*version 1"):
        restored.load(path)
    assert len(restored) == 0


def test_load_rejects_corrupt_recipe(tmp_path):
    """A recipe that does not compute its claimed representative must not load."""
    database = McDatabase()
    database.plan_for(0xE8, 3)
    path = tmp_path / "bundle.json"
    database.save(path)

    payload = json.loads(path.read_text())
    entry = payload["recipes"][0]
    entry["representative"] ^= 1          # stale/corrupt claim
    path.write_text(json.dumps(payload))

    with pytest.raises(ValueError, match="corrupt recipe"):
        McDatabase().load(path)
    # ... unless validation is explicitly waived
    unchecked = McDatabase()
    assert unchecked.load(path, validate=False) == 1


def test_load_rejects_corrupt_classification(tmp_path):
    database = McDatabase()
    database.plan_for(0xE8, 3)
    path = tmp_path / "bundle.json"
    database.save(path)

    payload = json.loads(path.read_text())
    assert payload["classifications"], "expected at least one classification"
    payload["classifications"][0]["representative"] ^= 0xFF
    path.write_text(json.dumps(payload))

    with pytest.raises(ValueError, match="classification"):
        McDatabase().load(path)


def test_load_rejects_malformed_payloads(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        McDatabase().load(path)

    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError, match="format"):
        McDatabase().load(path)

    path.write_text(json.dumps({"format": McDatabase.BUNDLE_FORMAT,
                                "version": McDatabase.BUNDLE_VERSION + 1}))
    with pytest.raises(ValueError, match="version"):
        McDatabase().load(path)

    path.write_text(json.dumps({
        "format": McDatabase.BUNDLE_FORMAT,
        "version": McDatabase.BUNDLE_VERSION,
        "recipes": [{"representative": 8, "num_vars": 2,
                     "recipe": {"num_pis": 2, "gates": [["nand", 2, 4]],
                                "outputs": [6]}}],
    }))
    with pytest.raises(ValueError, match="gate kind"):
        McDatabase().load(path)


def test_materialize_plan_does_not_count_restored_hits(tmp_path):
    database = McDatabase()
    database.plan_for(0xE8, 3)
    path = tmp_path / "bundle.json"
    database.save(path)

    restored = McDatabase()
    restored.load(path)
    plan = restored.materialize_plan(0xE8, 3)
    assert plan.num_ands == 1
    assert restored.classification_cache.hits == 0
    assert restored.classification_cache.misses == 0
    assert restored.synthesis_calls == 0
    # an unknown table still falls back to real (counted) classification
    restored.materialize_plan(0x17, 3)
    assert restored.classification_cache.misses == 1


def test_install_bundle_merge_is_idempotent():
    left = McDatabase()
    left.plan_for(0xE8, 3)
    right = McDatabase()
    right.plan_for(0xE8, 3)
    right.plan_for(0x96, 3)

    merged = McDatabase()
    first = merged.install_bundle(left.to_bundle())
    again = merged.install_bundle(left.to_bundle())
    other = merged.install_bundle(right.to_bundle())
    assert first["recipes"] == 1
    assert again["recipes"] == 0          # already present → no-op
    assert other["recipes"] == 1          # only the new representative lands
    assert len(merged) == 2
    assert merged.plan_for(0x96, 3).num_ands == right.plan_for(0x96, 3).num_ands


def test_export_combined_xag():
    database = McDatabase()
    database.plan_for(0xE8, 3)
    database.plan_for(0x96, 3)
    database.plan_for(random_table(5, random.Random(3)), 5)
    combined = database.export_combined_xag()
    assert combined.num_pos == len(database._recipes)
    assert combined.num_pis == 5
    assert combined.name == "XAG_DB"


def test_save_is_atomic_under_crash(tmp_path, monkeypatch):
    """A crash mid-save must leave the previous bundle intact and loadable
    (satellite: temp file + ``os.replace``, no truncated hybrid)."""
    database = McDatabase()
    database.plan_for(0xE8, 3)
    path = tmp_path / "bundle.json"
    database.save(path)
    original = path.read_text()

    database.plan_for(0x96, 3)
    real_replace = os.replace

    def crash(src, dst):
        raise OSError("simulated crash before the atomic rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        database.save(path)
    monkeypatch.setattr(os, "replace", real_replace)

    # the old bundle is byte-identical, still loads, and the temporary
    # file was cleaned up
    assert path.read_text() == original
    assert list(tmp_path.glob("*.tmp")) == []
    restored = McDatabase()
    assert restored.load(path) == 1
    assert restored.plan_for(0xE8, 3).num_ands == 1


def test_bundle_v3_entries_are_content_addressed(tmp_path):
    database = McDatabase()
    database.plan_for(0xE8, 3)
    database.plan_for(0x96, 3)
    bundle = database.to_bundle()
    assert bundle["version"] == 3
    hashes = [entry["hash"] for entry in bundle["recipes"]]
    assert hashes == sorted(hashes)
    for entry in bundle["recipes"]:
        key = (entry["representative"], entry["num_vars"])
        assert entry["hash"] == format(graph_hash(database._recipes[key]), "x")


def test_install_bundle_skips_known_hashes_without_deserialising():
    """An entry whose content hash is already installed is skipped by
    address alone — even a corrupted payload under a known hash never gets
    deserialised (that is what content addressing buys the shard merge)."""
    database = McDatabase()
    database.plan_for(0xE8, 3)
    bundle = database.to_bundle()
    # corrupt the payload but keep the (already-installed) hash
    bundle["recipes"][0]["recipe"] = {"not": "a network"}
    bundle["recipes"][0]["representative"] = "garbage"

    merged = McDatabase()
    merged.install_bundle(database.to_bundle())
    counts = merged.install_bundle(bundle)  # would raise if deserialised
    assert counts["recipes"] == 0
    assert len(merged) == 1


def test_install_bundle_rejects_wrong_content_hash():
    database = McDatabase()
    database.plan_for(0xE8, 3)
    bundle = database.to_bundle()
    bundle["recipes"][0]["hash"] = "deadbeef"
    with pytest.raises(ValueError, match="content hash"):
        McDatabase().install_bundle(bundle)
    # ... unless validation is explicitly waived
    unchecked = McDatabase()
    assert unchecked.install_bundle(bundle, validate=False)["recipes"] == 1


def test_load_rejects_v2_bundle(tmp_path):
    """v2 bundles predate content addressing and no longer load."""
    database = McDatabase()
    database.plan_for(0xE8, 3)
    bundle = database.to_bundle()
    for entry in bundle["recipes"]:
        del entry["hash"]
    bundle["version"] = 2
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(bundle))

    restored = McDatabase()
    with pytest.raises(ValueError, match="v2.json.*version 2"):
        restored.load(path)
    assert len(restored) == 0
    # a v3 entry without its content hash is rejected too
    bundle["version"] = 3
    with pytest.raises(ValueError, match="content hash None"):
        restored.install_bundle(bundle)


def test_bundle_round_trips_cones_and_results(tmp_path):
    """``save`` writes results but never a ``cones`` section; a v3 bundle
    that still carries one (older writers persisted cone tables there)
    installs its recipes, classifications and plans, ignoring the cones."""
    database = McDatabase()
    database.plan_for(0xE8, 3)
    results = [{"key": ["1234", "mc,mc*", "mc", 6, 12],
                "network": {"num_pis": 1, "gates": [], "outputs": [2]},
                "network_hash": "irrelevant-here",
                "report": {"rounds": 1}}]
    path = tmp_path / "bundle.json"
    database.save(path, plan_keys=[(0xE8, 3)], results=results)

    payload = json.loads(path.read_text())
    assert "cones" not in payload
    assert payload["results"] == results
    payload["cones"] = [["00ff", 0xE8], ["ab12", 0x96]]
    restored = McDatabase()
    counts = restored.install_bundle(payload)
    assert "cones" not in counts
    assert (counts["recipes"], counts["plans"], counts["results"]) == (1, 1, 1)
    assert counts["classifications"] >= 1
    assert restored.materialize_plan(0xE8, 3).num_ands == 1
    assert restored.stats()["classification_misses"] == 0
    assert restored.stats()["synthesis_calls"] == 0
    # sections are omitted entirely when nothing is passed
    database.save(path)
    payload = json.loads(path.read_text())
    assert "plans" not in payload and "results" not in payload


def test_stats_keys():
    database = McDatabase()
    database.plan_for(0xE8, 3)
    stats = database.stats()
    for key in ("stored_recipes", "synthesis_calls", "classification_hits",
                "classification_misses", "classification_hit_rate", "total_recipe_ands"):
        assert key in stats
