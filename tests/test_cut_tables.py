"""Truth tables and "AND in cone" bits computed in the cut merge.

Every kept cut carries the root's table over its leaves and whether an AND
lies inside its cone, both derived from the fan-in cuts whose union formed
it (:mod:`repro.cuts.enumeration`).  The contract checked here:

* for every kept cut, the table evaluated at the leaves' simulated values
  equals the root's value on every primary-input pattern;
* for every irredundant cut, the table equals the simulated cone function
  and the bit says whether the cone holds an AND;

both for one-shot :func:`enumerate_cuts` and for the merge entries a
:class:`CutSetCache` keeps through random in-place edits and rollbacks
(equal, entry by entry, to a fresh enumeration's).
"""

import random

import pytest

from repro.cuts.cache import _simulate_cone
from repro.cuts.enumeration import CutSetCache, cut_cone, enumerate_cuts
from repro.testing import merge_entries, random_xag
from repro.tt.operations import eval_packed
from repro.xag import node_values
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.graph import literal
from repro.xag.serialize import from_dict

#: (cut_size, cut_limit) pairs: the paper's, a tightly pruned one and a
#: wide one.
SHAPES = [(6, 12), (4, 4), (8, 8)]


def is_redundant(xag, cut):
    """True when the leaves without some leaf still cut the root."""
    for leaf in cut.leaves:
        rest = tuple(other for other in cut.leaves if other != leaf)
        try:
            cut_cone(xag, cut.root, rest)
        except ValueError:
            continue
        return True
    return False


def check_cut_tables(xag, cuts):
    """Check the contract on every cut of ``cuts``; return how many."""
    words, mask, exhaustive = equivalence_stimulus(xag.num_pis)
    assert exhaustive
    values = node_values(xag, words, mask)
    checked = 0
    for node_cuts in cuts.values():
        for cut in node_cuts:
            leaves = cut.leaves
            assert eval_packed(cut.table, len(leaves),
                               [values[leaf] for leaf in leaves],
                               mask) == values[cut.root], cut
            checked += 1
            if is_redundant(xag, cut):
                continue
            interior = cut_cone(xag, cut.root, leaves)
            assert cut.table == _simulate_cone(xag, cut.root, leaves,
                                               interior), cut
            assert cut.has_and == any(xag.is_and(n) for n in interior), cut
    return checked


def test_enumerated_tables_hold_on_random_networks():
    checked = 0
    for seed in range(30):
        rng = random.Random(seed)
        # uniform fan-ins, then a deep reconvergent network (narrow window)
        xag = random_xag(rng, num_pis=7, num_gates=80, and_bias=0.6,
                         locality=None if seed % 2 else 4)
        for cut_size, cut_limit in SHAPES:
            checked += check_cut_tables(
                xag, enumerate_cuts(xag, cut_size, cut_limit))
    assert checked > 15000


def test_cut_set_cache_tables_hold_through_edits_and_rollbacks():
    """The maintained entries equal a fresh enumeration's after random
    substitutions, constant collapses and rollbacks, and keep the
    contract; the table-embedding memo survives every rollback."""
    steps = 0
    for seed in range(12):
        rng = random.Random(100 + seed)
        cut_size, cut_limit = SHAPES[seed % len(SHAPES)]
        xag = random_xag(rng, num_pis=5, num_gates=40, and_bias=0.6,
                         locality=4 if seed % 2 else None)
        cache = CutSetCache(cut_size, cut_limit)
        cache.cuts(xag)
        for step in range(10):
            live = list(xag.gates())
            action = rng.random()
            if action < 0.5 and live:
                node = rng.choice(live)
                forbidden = xag.transitive_fanout([node])
                targets = [n for n in xag.topological_order()
                           if n != node and not xag.is_constant(n)
                           and n not in forbidden]
                if targets:
                    xag.substitute_node(
                        node, literal(rng.choice(targets), rng.random() < 0.5))
            elif action < 0.75 and live:
                xag.substitute_node(rng.choice(live), rng.randint(0, 1))
            else:
                checkpoint = xag.checkpoint()
                pis = xag.pi_literals()
                xag.create_and(xag.create_xor(rng.choice(pis), rng.choice(pis)),
                               rng.choice(pis))
                assert cache.cuts(xag) == merge_entries(
                    xag, enumerate_cuts(xag, cut_size, cut_limit))
                embeddings = len(cache._embeddings)
                xag.rollback(checkpoint)
                assert len(cache._embeddings) == embeddings
            if step % 2:
                continue
            maintained = cache.cuts(xag)
            fresh = enumerate_cuts(xag, cut_size, cut_limit)
            # leaves, table and AND bit of every kept cut, in order
            assert maintained == merge_entries(xag, fresh), (seed, step)
            check_cut_tables(xag, fresh)
            steps += 1
    assert steps >= 50


#: a shrunk random network (5 inputs, 14 gates) whose root keeps a
#: redundant 5-leaf cut.
REDUNDANT_NETWORK = {
    "name": "redundant-cut", "num_pis": 5,
    "pi_names": ["x0", "x1", "x2", "x3", "x4"], "po_names": ["y"],
    "gates": [["xor", 4, 6], ["xor", 4, 8], ["and", 2, 13], ["xor", 12, 14],
              ["and", 4, 19], ["xor", 12, 16], ["xor", 16, 20],
              ["xor", 22, 24], ["and", 13, 23], ["xor", 18, 22],
              ["xor", 28, 30], ["and", 4, 33], ["and", 18, 27],
              ["and", 34, 36]],
    "outputs": [38],
}


def test_redundant_cut_table_differs_only_off_the_network():
    """Root 19 keeps the cut (1, 2, 3, 6, 7), although node 6 is
    ``XOR(2, 3)`` — both of its fan-ins are leaves too, so (1, 2, 3, 7)
    still cuts the root and the cut is redundant.  Its merge table treats
    leaf 6 as free on one producer's side only: the other producer reaches
    the root through 6's own fan-ins.  So it differs from the simulated
    cone function, which treats 6 as free everywhere, but only on leaf
    assignments with ``x6 != x2 ^ x3``, which the network cannot produce;
    on every primary-input pattern both tables give the root's value."""
    xag = from_dict(REDUNDANT_NETWORK)
    cut = next(c for c in enumerate_cuts(xag)[19]
               if c.leaves == (1, 2, 3, 6, 7))
    assert xag.is_xor(6) and xag.fanins(6) == (literal(2), literal(3))
    assert is_redundant(xag, cut)
    simulated = _simulate_cone(xag, 19, cut.leaves,
                               cut_cone(xag, 19, cut.leaves))
    assert (cut.table, simulated) == (12582912, 13369344)
    for row in range(32):
        x2, x3, x6 = (row >> 1) & 1, (row >> 2) & 1, (row >> 3) & 1
        if x6 == x2 ^ x3:
            assert (cut.table >> row) & 1 == (simulated >> row) & 1, row
    check_cut_tables(xag, enumerate_cuts(xag))


@pytest.mark.parametrize("cut_size", [2, 7])
def test_tables_for_every_accepted_cut_size(cut_size):
    xag = random_xag(random.Random(7), num_pis=8, num_gates=40)
    check_cut_tables(xag, enumerate_cuts(xag, cut_size, 8))
