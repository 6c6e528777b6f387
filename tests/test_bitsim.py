"""Tests for the one-shot bit-parallel simulator and its one-slot holder."""

import random

import pytest

from repro.testing import full_adder_naive, random_xag
from repro.xag import Xag, equivalent
from repro.xag.bitsim import BitSimulator, SimulationCache
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.graph import lit_node, lit_not
from repro.xag.simulate import simulate_words
from repro.tt.bits import projection, table_mask


def _random_stimulus(rng, num_pis, bits=256):
    mask = (1 << bits) - 1
    return [rng.getrandbits(bits) for _ in range(num_pis)], mask


# ----------------------------------------------------------------------
# full-pass equivalence with the reference simulator
# ----------------------------------------------------------------------
def test_bitsim_matches_reference_simulator():
    for seed in range(5):
        rng = random.Random(seed)
        xag = random_xag(rng, num_pis=7, num_gates=45)
        words, mask = _random_stimulus(rng, xag.num_pis)
        sim = BitSimulator(xag, words, mask)
        assert sim.po_words() == simulate_words(xag, words, mask)


def test_bitsim_exhaustive_stimulus_matches_truth_tables():
    fa = full_adder_naive()
    words = [projection(var, 3) for var in range(3)]
    sim = BitSimulator(fa, words, table_mask(3))
    from repro.xag.simulate import output_truth_tables
    assert sim.po_words() == output_truth_tables(fa)


def test_bitsim_po_words_handle_complemented_outputs():
    fa = full_adder_naive()
    words = [projection(var, 3) for var in range(3)]
    sim = BitSimulator(fa, words, table_mask(3))
    plain = sim.po_words()
    fa.create_po(lit_not(fa.po_literal(1)), "not_carry")
    assert sim.po_words() == plain + [plain[1] ^ table_mask(3)]


# ----------------------------------------------------------------------
# re-simulation after appended nodes, edits and rollbacks
# ----------------------------------------------------------------------
def test_bitsim_appended_nodes_are_simulated():
    rng = random.Random(7)
    xag = random_xag(rng, num_pis=6, num_gates=20)
    words, mask = _random_stimulus(rng, 6)
    sim = BitSimulator(xag, words, mask)
    sim.sync()

    # grow the network: the new output must be simulated on the next query
    a, b = xag.pi_literals()[:2]
    fresh = xag.create_and(xag.create_xor(a, b), b)
    xag.create_po(fresh, "extra")
    assert sim.po_words() == simulate_words(xag, words, mask)


def test_bitsim_rollback_truncates_values():
    rng = random.Random(8)
    xag = random_xag(rng, num_pis=5, num_gates=15)
    words, mask = _random_stimulus(rng, 5)
    sim = BitSimulator(xag, words, mask)
    sim.sync()

    checkpoint = xag.checkpoint()
    a, b = xag.pi_literals()[:2]
    xag.create_and(xag.create_xor(a, b), xag.create_xor(lit_not(a), b))
    sim.sync()
    xag.rollback(checkpoint)
    assert sim.po_words() == simulate_words(xag, words, mask)


def test_bitsim_rollback_then_regrow_resimulates():
    """A rollback between queries must not leave stale values behind."""
    xag = Xag()
    a, b, c = xag.create_pis(3)
    xag.create_po(xag.create_and(a, b))
    words, mask = _random_stimulus(random.Random(9), 3)
    sim = BitSimulator(xag, words, mask)
    sim.sync()

    checkpoint = xag.checkpoint()
    xag.create_and(xag.create_xor(a, b), c)
    sim.sync()
    # roll back and grow back to the old size WITHOUT an intermediate
    # query: the node count alone cannot reveal the rollback
    nodes = xag.num_nodes
    xag.rollback(checkpoint)
    xag.create_po(xag.create_xor(xag.create_and(a, c), b), "regrown")
    assert xag.num_nodes == nodes
    assert sim.po_words() == simulate_words(xag, words, mask)


def test_bitsim_substitution_resimulates():
    """An in-place edit that keeps the node count must still be seen."""
    xag = Xag()
    a, b = xag.create_pis(2)
    gate = xag.create_and(a, b)
    xag.create_po(xag.create_xor(gate, a))
    words, mask = [0b1010, 0b1100], 0b1111
    sim = BitSimulator(xag, words, mask)
    before = sim.po_words()
    nodes = xag.num_nodes
    xag.substitute_node(lit_node(gate), b)
    assert xag.num_nodes == nodes
    assert sim.po_words() == simulate_words(xag, words, mask) != before


def test_bitsim_rejects_wrong_stimulus_width():
    fa = full_adder_naive()
    sim = BitSimulator(fa, [1, 2], 0b11)   # only two words for three PIs
    with pytest.raises(ValueError):
        sim.sync()


# ----------------------------------------------------------------------
# simulation cache
# ----------------------------------------------------------------------
def test_simulation_cache_reuses_simulators():
    rng = random.Random(13)
    xag = random_xag(rng, num_pis=6, num_gates=25)
    words, mask = _random_stimulus(rng, 6)
    cache = SimulationCache()
    first = cache.simulator(xag, words, mask)
    second = cache.simulator(xag, words, mask)
    assert first is second

    other_words = [w ^ 1 for w in words]
    third = cache.simulator(xag, other_words, mask)
    assert third is not first                # a new stimulus: a new simulator
    assert third.po_words() == simulate_words(xag, other_words, mask)


def test_simulation_cache_holds_one_simulator():
    rng = random.Random(14)
    cache = SimulationCache()
    networks = [random_xag(random.Random(20 + i), num_pis=4, num_gates=10)
                for i in range(2)]
    words, mask = _random_stimulus(rng, 4)
    first = cache.simulator(networks[0], words, mask)
    assert cache.simulator(networks[1], words, mask) is not first
    # binding the second network replaced the first simulator
    assert cache.simulator(networks[0], words, mask) is not first


# ----------------------------------------------------------------------
# packed equivalence checking
# ----------------------------------------------------------------------
def test_equivalence_stimulus_is_deterministic():
    words_a, mask_a, exhaustive_a = equivalence_stimulus(20)
    words_b, mask_b, exhaustive_b = equivalence_stimulus(20)
    assert (words_a, mask_a, exhaustive_a) == (words_b, mask_b, exhaustive_b)
    assert not exhaustive_a
    small_words, small_mask, exhaustive = equivalence_stimulus(4)
    assert exhaustive
    assert small_words == [projection(var, 4) for var in range(4)]
    assert small_mask == table_mask(4)


def test_equivalent_detects_mutation_on_wide_networks():
    """The packed random check must catch a single-gate change (>14 PIs)."""
    rng = random.Random(15)
    xag = random_xag(rng, num_pis=16, num_gates=60, num_pos=4)
    mutated = xag.clone()
    gate = next(lit_node(lit) for lit in mutated.po_literals()
                if mutated.is_gate(lit_node(lit)))
    mutated._kind[gate] = 5 - mutated._kind[gate]   # AND (2) <-> XOR (3)
    assert equivalent(xag, xag.clone())
    assert not equivalent(xag, mutated)
