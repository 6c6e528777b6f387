"""Tests for cut enumeration, cut functions and MFFC computation."""

import random

import pytest

from repro.engine import EngineConfig
from repro.engine.core import select_cases
from repro.testing import full_adder_naive, random_xag, seeded_xag
from repro.cuts import Cut, cut_and_count, cut_cone, cut_function, enumerate_cuts, mffc, \
    mffc_and_count
from repro.cuts.mffc import mffc_saving
from repro.xag.graph import Xag, lit_node, literal
from repro.xag.simulate import node_truth_tables
from repro.tt.operations import shrink_to_support
from repro.tt.bits import projection


def test_cut_dataclass():
    cut = Cut(7, (1, 2, 3))
    assert cut.size == 3
    assert not cut.is_trivial()
    assert Cut(7, (7,)).is_trivial()
    assert Cut(7, (1, 2)).dominates(cut)
    assert not cut.dominates(Cut(7, (1, 2)))


def test_enumeration_parameters_validated():
    xag = full_adder_naive()
    with pytest.raises(ValueError):
        enumerate_cuts(xag, cut_size=1)
    with pytest.raises(ValueError):
        enumerate_cuts(xag, cut_limit=0)


def test_full_adder_has_majority_cut():
    """The cout node must have the {a, b, cin} cut highlighted in paper Fig. 1(b)."""
    fa = full_adder_naive()
    cuts = enumerate_cuts(fa, cut_size=3)
    cout_node = lit_node(fa.po_literal(1))
    leaves_of_cuts = [cut.leaves for cut in cuts[cout_node]]
    pi_leaves = tuple(fa.pis())
    assert pi_leaves in leaves_of_cuts
    majority_cut = next(cut for cut in cuts[cout_node] if cut.leaves == pi_leaves)
    # the cut root is the OR node feeding cout through a complemented edge, so
    # the cut function is the complement of the majority 0xE8 highlighted in
    # Fig. 1(b) — same affine class, same multiplicative complexity.
    assert cut_function(fa, majority_cut) in (0xE8, 0xE8 ^ 0xFF)
    assert cut_and_count(fa, majority_cut) == 3


def test_pis_have_no_cuts():
    fa = full_adder_naive()
    cuts = enumerate_cuts(fa)
    for node in fa.pis():
        assert cuts[node] == []


def test_cut_size_limit_respected():
    xag = random_xag(__import__("random").Random(3), num_pis=8, num_gates=50)
    for cut_size in (2, 3, 4, 6):
        cuts = enumerate_cuts(xag, cut_size=cut_size)
        for node_cuts in cuts.values():
            for cut in node_cuts:
                assert 1 <= cut.size <= cut_size


def test_cut_limit_respected():
    xag = random_xag(__import__("random").Random(4), num_pis=8, num_gates=60)
    for limit in (1, 4, 12):
        cuts = enumerate_cuts(xag, cut_size=4, cut_limit=limit)
        for node_cuts in cuts.values():
            assert len(node_cuts) <= limit


def test_no_dominated_cuts():
    xag = random_xag(__import__("random").Random(5), num_pis=6, num_gates=40)
    cuts = enumerate_cuts(xag, cut_size=4)
    for node_cuts in cuts.values():
        leaf_sets = [set(cut.leaves) for cut in node_cuts]
        for i, left in enumerate(leaf_sets):
            for j, right in enumerate(leaf_sets):
                if i != j:
                    assert not left < right


def test_cut_functions_match_node_functions():
    """The function of every cut, composed with its leaves, equals the node function."""
    import random as random_module

    xag = random_xag(random_module.Random(6), num_pis=6, num_gates=35)
    tables = node_truth_tables(xag)
    cuts = enumerate_cuts(xag, cut_size=4, cut_limit=6)
    checked = 0
    for node, node_cuts in cuts.items():
        for cut in node_cuts[:3]:
            local = cut_function(xag, cut)
            # evaluate the cut function on the global truth tables of its leaves
            composed = 0
            for row in range(1 << 6):
                assignment = 0
                for position, leaf in enumerate(cut.leaves):
                    if (tables[leaf] >> row) & 1:
                        assignment |= 1 << position
                if (local >> assignment) & 1:
                    composed |= 1 << row
            assert composed == tables[node]
            checked += 1
    assert checked > 10


def test_cut_cone_and_errors():
    fa = full_adder_naive()
    cout_node = lit_node(fa.po_literal(1))
    cone = cut_cone(fa, cout_node, fa.pis())
    assert cout_node in cone
    assert len(cone) >= 4
    with pytest.raises(ValueError):
        cut_cone(fa, cout_node, [fa.pis()[0]])


def test_mffc_simple_chain():
    xag = Xag()
    a, b, c = xag.create_pis(3)
    g1 = xag.create_and(a, b)
    g2 = xag.create_and(g1, c)
    xag.create_po(g2, "y")
    cone = mffc(xag, lit_node(g2))
    assert cone == {lit_node(g1), lit_node(g2)}
    assert mffc_and_count(xag, lit_node(g2)) == 2


def test_mffc_respects_external_fanout():
    xag = Xag()
    a, b, c = xag.create_pis(3)
    shared = xag.create_and(a, b)
    top = xag.create_and(shared, c)
    xag.create_po(top, "y")
    xag.create_po(shared, "z")      # shared node has an external fanout
    cone = mffc(xag, lit_node(top))
    assert cone == {lit_node(top)}


def test_mffc_of_non_gate_is_empty():
    xag = Xag()
    a = xag.create_pi()
    assert mffc(xag, lit_node(a)) == set()


# ----------------------------------------------------------------------
# which cuts survive the limit: an oracle independent of the merge
# ----------------------------------------------------------------------
def _reference_cut_sets(xag, cut_size, cut_limit):
    """Priority cuts from plain leaf sets (no bit masks, no shared code).

    A gate's cuts are the pairwise unions of its fan-ins' kept-plus-trivial
    sets with at most ``cut_size`` leaves, minus strict supersets of
    another union, sorted by (size, sorted leaves), first ``cut_limit``.
    """
    merge = {}
    result = {}
    for node in xag.topological_order():
        if xag.is_constant(node):
            merge[node] = [frozenset()]
            result[node] = []
            continue
        if xag.is_pi(node):
            merge[node] = [frozenset([node])]
            result[node] = []
            continue
        f0, f1 = (lit_node(lit) for lit in xag.fanins(node))
        unions = {left | right for left in merge[f0] for right in merge[f1]
                  if len(left | right) <= cut_size}
        minimal = [cut for cut in unions
                   if not any(other < cut for other in unions)]
        kept = sorted(minimal, key=lambda cut: (len(cut), sorted(cut)))
        kept = kept[:cut_limit]
        result[node] = [tuple(sorted(cut)) for cut in kept]
        merge[node] = kept + [frozenset([node])]
    return result


def _leaf_tuples(cuts):
    return {node: [cut.leaves for cut in node_cuts]
            for node, node_cuts in cuts.items()}


CUT_SETTINGS = [(6, 12), (4, 8), (3, 2), (2, 1)]


@pytest.mark.parametrize("cut_size,cut_limit", CUT_SETTINGS)
def test_cut_priority_matches_set_based_reference(cut_size, cut_limit):
    """Seeded property: the kept cuts and their order equal the oracle's."""
    rng = random.Random(cut_size * 100 + cut_limit)
    for trial in range(30):
        xag = random_xag(rng, num_pis=rng.randint(3, 10),
                         num_gates=rng.randint(10, 70),
                         and_bias=rng.random(),
                         locality=rng.choice([None, 4, 8]))
        assert _leaf_tuples(enumerate_cuts(xag, cut_size, cut_limit)) == \
            _reference_cut_sets(xag, cut_size, cut_limit), trial


@pytest.mark.parametrize("cut_size,cut_limit", CUT_SETTINGS)
def test_cut_priority_matches_reference_on_registry_circuits(cut_size,
                                                             cut_limit):
    config = EngineConfig(suites=("epfl",),
                          circuits=["int2float", "router", "alu_ctrl"])
    for case in select_cases(config):
        xag = case.build()
        assert _leaf_tuples(enumerate_cuts(xag, cut_size, cut_limit)) == \
            _reference_cut_sets(xag, cut_size, cut_limit), case.name


# ----------------------------------------------------------------------
# the MFFC saving walk
# ----------------------------------------------------------------------
def _cone_saving(xag, root, leaves):
    """(ANDs, gates) of cut cone ∩ MFFC, from the two sets themselves."""
    shared = set(cut_cone(xag, root, leaves)) & mffc(xag, root)
    return sum(1 for node in shared if xag.is_and(node)), len(shared)


def _random_substitution(xag, rng):
    """Redirect a random gate to a random literal outside its fanout."""
    node = rng.choice(list(xag.gates()))
    forbidden = xag.transitive_fanout([node])
    targets = [n for n in xag.topological_order()
               if not xag.is_constant(n) and n not in forbidden]
    if targets:
        xag.substitute_node(node, literal(rng.choice(targets),
                                          rng.random() < 0.5))


def test_mffc_saving_equals_cone_and_mffc_intersection():
    checked = 0
    for seed in range(8):
        rng = random.Random(seed)
        xag = random_xag(rng, num_pis=6, num_gates=50, and_bias=0.6)
        for phase in range(3):
            for node, node_cuts in enumerate_cuts(xag).items():
                if not node_cuts:
                    continue
                cone = mffc(xag, node)
                for cut in node_cuts:
                    assert mffc_saving(xag, node, cut.leaves, cone) == \
                        _cone_saving(xag, node, cut.leaves), (seed, phase, cut)
                    checked += 1
            for _ in range(4):
                _random_substitution(xag, rng)
    assert checked > 1000


def test_cut_leaves_missing_the_mffc_save_the_whole_mffc():
    """Selection skips the saving walk of a cut whose leaves all lie
    outside the root's MFFC: no leaf stops it, so it counts the MFFC."""
    disjoint = overlapping = 0
    for seed in range(10):
        xag = seeded_xag(seed, num_pis=8, num_gates=70, and_bias=0.5)
        rng = random.Random(seed)
        for phase in range(2):
            for node, node_cuts in enumerate_cuts(xag, 6, 12).items():
                cone = mffc(xag, node)
                whole = (sum(1 for n in cone if xag.is_and(n)), len(cone))
                for cut in node_cuts:
                    if node in cut.leaves:
                        continue
                    if cone.isdisjoint(cut.leaves):
                        disjoint += 1
                        assert mffc_saving(xag, node, cut.leaves, cone) == \
                            whole, (seed, phase, cut)
                    else:
                        overlapping += 1
            for _ in range(4):
                _random_substitution(xag, rng)
    assert disjoint > 1000 and overlapping > 1000


def test_mffc_saving_stops_at_leaves():
    """An MFFC node the root reaches only through a leaf is not saved."""
    xag = Xag()
    a, b, c, d = xag.create_pis(4)
    inner = xag.create_and(a, b)
    leaf = xag.create_xor(inner, c)
    root = xag.create_and(leaf, d)
    xag.create_po(root, "y")
    root_node = lit_node(root)
    cone = mffc(xag, root_node)
    assert cone == {lit_node(inner), lit_node(leaf), root_node}
    leaves = tuple(sorted((lit_node(leaf), lit_node(d))))
    assert mffc_saving(xag, root_node, leaves, cone) == (1, 1)
    assert _cone_saving(xag, root_node, leaves) == (1, 1)
    leaves = tuple(sorted((lit_node(inner), lit_node(c), lit_node(d))))
    assert mffc_saving(xag, root_node, leaves, cone) == (1, 2)
    assert mffc_saving(xag, root_node, xag.pis(), cone) == (2, 3)
