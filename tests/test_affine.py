"""Tests for affine operations, transforms, classification and the cache."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.affine import (
    AffineClassifier,
    AffineOp,
    AffineTransform,
    ClassificationCache,
    apply_ops,
)
from repro.tt import bits, random_table
from repro.tt.anf import degree
from repro.tt.spectrum import spectrum_signature

OP_KINDS = ["swap", "flip_input", "flip_output", "translate", "xor_output"]


def random_op(rng: random.Random, num_vars: int) -> AffineOp:
    kind = rng.choice(OP_KINDS)
    a = rng.randrange(num_vars)
    b = rng.randrange(num_vars)
    while b == a and num_vars > 1:
        b = rng.randrange(num_vars)
    return AffineOp(kind, a, b)


# ----------------------------------------------------------------------
# elementary operations
# ----------------------------------------------------------------------
def test_ops_are_involutions():
    rng = random.Random(1)
    for _ in range(40):
        num_vars = rng.randint(2, 6)
        table = random_table(num_vars, rng)
        op = random_op(rng, num_vars)
        assert op.apply_to_table(op.apply_to_table(table, num_vars), num_vars) == table


def test_ops_preserve_spectrum_signature():
    rng = random.Random(2)
    for _ in range(30):
        num_vars = rng.randint(2, 5)
        table = random_table(num_vars, rng)
        op = random_op(rng, num_vars)
        assert spectrum_signature(op.apply_to_table(table, num_vars), num_vars) == \
            spectrum_signature(table, num_vars)


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        AffineOp("rotate", 0, 1).apply_to_table(0b1000, 2)
    transform = AffineTransform.identity(2)
    with pytest.raises(ValueError):
        transform.apply_op(AffineOp("rotate", 0, 1))


def test_op_str_rendering():
    assert "x0" in str(AffineOp("flip_input", 0))
    assert "<->" in str(AffineOp("swap", 0, 1))
    assert str(AffineOp("flip_output"))


def test_example_2_3_of_the_paper():
    """<x1 x2 x3> is affine-equivalent to the 2-input AND (paper Example 2.3)."""
    majority = 0xE8
    and_gate = 0x88  # x0 & x1 as a 3-variable function (x2 is a don't care)
    ops = [
        AffineOp("flip_input", 1),
        AffineOp("translate", 1, 2),
        AffineOp("translate", 0, 1),
        AffineOp("xor_output", 0),
    ]
    assert apply_ops(and_gate, 3, ops) == majority


# ----------------------------------------------------------------------
# composite transform
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(min_value=0, max_value=2**30))
def test_transform_tracks_op_sequences(num_vars, seed):
    rnd = random.Random(seed)
    table = random_table(num_vars, rnd)
    transform = AffineTransform.identity(num_vars)
    current = table
    for _ in range(8):
        op = random_op(rnd, num_vars)
        current = op.apply_to_table(current, num_vars)
        transform.apply_op(op)
    assert transform.apply_to_table(table) == current
    inverse = transform.inverse()
    assert inverse.apply_to_table(current) == table
    # decomposition into elementary ops reproduces the same function
    assert apply_ops(table, num_vars, transform.to_ops()) == current


def test_identity_transform():
    transform = AffineTransform.identity(4)
    assert transform.is_identity()
    assert transform.to_ops() == []
    table = 0xBEEF
    assert transform.apply_to_table(table) == table


def test_transform_copy_is_independent():
    transform = AffineTransform.identity(3)
    clone = transform.copy()
    clone.apply_op(AffineOp("flip_output"))
    assert transform.is_identity()
    assert not clone.is_identity()


def test_inverse_of_singular_matrix_rejected():
    transform = AffineTransform(2, matrix=[1, 1])
    with pytest.raises(ValueError):
        transform.inverse()


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def test_three_variable_classification_is_exact():
    """All 256 3-variable functions collapse into exactly 3 affine classes."""
    classifier = AffineClassifier()
    representatives = {classifier.classify(table, 3).representative for table in range(256)}
    assert len(representatives) == 3


def test_two_variable_classification_is_exact():
    classifier = AffineClassifier()
    representatives = {classifier.classify(table, 2).representative for table in range(16)}
    assert len(representatives) == 2  # affine functions and the AND class


def test_exhaustive_search_stops_at_the_class_minimum(monkeypatch):
    """Stopping the exhaustive search at the known class minimum returns
    what the full search returns — same representative, ops and transform —
    on every one of the 278 tables with at most three variables."""
    from repro.affine import classify as classify_module

    tables = [(table, num_vars) for num_vars in range(4)
              for table in range(1 << (1 << num_vars))]
    assert len(tables) == 278
    early = AffineClassifier()
    stopped = [early.classify(table, num_vars) for table, num_vars in tables]
    monkeypatch.setattr(classify_module, "_class_minimum",
                        lambda table, num_vars: None)
    full = AffineClassifier()
    for (table, num_vars), result in zip(tables, stopped):
        reference = full.classify(table, num_vars)
        assert result.representative == reference.representative
        assert result.ops == reference.ops
        assert result.from_representative.to_dict() == \
            reference.from_representative.to_dict()
        # the representative is the minimum the degree predicts
        assert result.representative == \
            classify_module._CLASS_MINIMA[num_vars][degree(table, num_vars)]


def test_classification_transform_is_always_valid():
    classifier = AffineClassifier()
    rng = random.Random(3)
    for _ in range(25):
        num_vars = rng.randint(2, 6)
        table = random_table(num_vars, rng)
        result = classifier.classify(table, num_vars)
        assert result.verify()
        assert apply_ops(table, num_vars, result.ops) == result.representative
        assert spectrum_signature(result.representative, num_vars) == \
            spectrum_signature(table, num_vars)


def test_classification_of_named_functions():
    classifier = AffineClassifier()
    majority = classifier.classify(0xE8, 3)
    and2 = classifier.classify(0x88, 3)
    assert majority.representative == and2.representative
    assert majority.method == "exhaustive"


def test_spectral_classification_of_degree_two_functions():
    """Equivalent degree-2 functions keep their invariants through classification.

    The greedy spectral canonisation is not guaranteed to be perfectly
    canonical in the presence of spectrum ties (bent functions are the extreme
    case), so the hard guarantees checked here are the ones the rewriting
    algorithm relies on: the transform is valid, the spectrum signature is
    preserved, and the representative has the same multiplicative complexity.
    """
    from repro.mc import McSynthesizer
    from repro.tt.anf import from_anf

    classifier = AffineClassifier()
    synthesizer = McSynthesizer()
    inner_product = from_anf((1 << 0b0011) | (1 << 0b1100), 4)
    rotated = from_anf((1 << 0b0101) | (1 << 0b1010), 4)
    first = classifier.classify(inner_product, 4)
    second = classifier.classify(rotated, 4)
    assert spectrum_signature(first.representative, 4) == \
        spectrum_signature(second.representative, 4)
    assert synthesizer.upper_bound(first.representative, 4) == \
        synthesizer.upper_bound(second.representative, 4) == 2


def test_classifier_rejects_negative_arity():
    with pytest.raises(ValueError):
        AffineClassifier().classify(0, -1)


def test_classification_constant_functions():
    classifier = AffineClassifier()
    zero = classifier.classify(0, 4)
    one = classifier.classify(bits.table_mask(4), 4)
    assert zero.representative == one.representative == 0


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def test_transform_dict_round_trip():
    rng = random.Random(7)
    for num_vars in (2, 3, 4, 6):
        transform = AffineTransform(num_vars)
        for _ in range(8):
            kind = rng.choice(OP_KINDS)
            a, b = rng.sample(range(num_vars), 2) if num_vars >= 2 else (0, 0)
            transform.apply_op(AffineOp(kind, a, b))
        rebuilt = AffineTransform.from_dict(transform.to_dict())
        table = random_table(num_vars, rng)
        assert rebuilt.apply_to_table(table) == transform.apply_to_table(table)
        assert rebuilt.num_vars == transform.num_vars


def test_transform_from_dict_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        AffineTransform.from_dict({"num_vars": 2})          # missing keys
    with pytest.raises(ValueError):
        AffineTransform.from_dict({"num_vars": 3, "matrix": [1, 2], "offset": 0,
                                   "output_linear": 0, "output_const": 0})


def test_classification_cache_payload_round_trip():
    cache = ClassificationCache()
    rng = random.Random(11)
    for _ in range(6):
        num_vars = rng.randint(2, 4)
        cache.classify(random_table(num_vars, rng), num_vars)

    restored = ClassificationCache()
    installed = restored.install_payload(cache.to_payload())
    assert installed == len(cache)
    for key, entry in cache._entries.items():
        twin = restored.peek(*key)
        assert twin is not None
        assert twin.representative == entry.representative
        assert twin.verify()
        # the elementary-op view is rebuilt from the stored closed form
        assert apply_ops(twin.table, twin.num_vars, twin.ops) == twin.representative
    # peek never touches the statistics
    assert restored.hits == 0 and restored.misses == 0


def test_classification_cache_install_rejects_corrupt_entry():
    cache = ClassificationCache()
    cache.classify(0xE8, 3)
    payload = cache.to_payload()
    payload[0]["table"] ^= 0x55
    with pytest.raises(ValueError, match="corrupt"):
        ClassificationCache().install_payload(payload)


def test_classification_cache_hits():
    cache = ClassificationCache()
    table = 0xE8
    first = cache.classify(table, 3)
    second = cache.classify(table, 3)
    assert first is second
    assert cache.hits == 1
    assert cache.misses == 1
    assert cache.hit_rate == 0.5
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.hit_rate == 0.0
