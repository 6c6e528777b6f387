"""Canonical structural hashing (:mod:`repro.xag.structhash`).

The hash is the identity every cache layer keys on (cone tables, warm-start
bundles, the engine's whole-circuit result cache), so these tests pin its
contract directly: strash-style canonicalisation of complements and sibling
order, invariance under renaming / creation order / serialisation, leaf
relativity of cone hashes, and sensitivity to everything that *does* change
the computed functions (PI roles, PO order, output complements).
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import repro
from repro.cuts.enumeration import cut_cone
from repro.testing import random_xag
from repro.testing.diff import _permuted_copy, check_hash_consistency
from repro.xag import cone_hash, graph_hash, node_hashes
from repro.xag.graph import Xag
from repro.xag.serialize import from_dict, to_dict
from repro.xag.structhash import (CONST_HASH, StructHashTracker, leaf_hash,
                                  pi_hash)


def _single_output(build):
    """One-PO network built by ``build(xag, a, b, c)`` over three PIs."""
    xag = Xag()
    a, b, c = xag.create_pi("a"), xag.create_pi("b"), xag.create_pi("c")
    xag.create_po(build(xag, a, b, c), "f")
    return xag


# ----------------------------------------------------------------------
# canonicalisation
# ----------------------------------------------------------------------
def test_hashes_are_stable_128_bit_values():
    assert 0 < CONST_HASH < (1 << 128)
    assert pi_hash(0) != pi_hash(1)
    assert leaf_hash(0) != leaf_hash(1)
    assert pi_hash(0) != leaf_hash(0)  # domain tags separate the roles
    # recomputing yields the identical constant (pure function of the slot)
    assert pi_hash(3) == pi_hash(3)


def test_graph_hash_is_deterministic_across_processes():
    """BLAKE2b, not ``hash()``: the value must survive a fresh interpreter
    with a different ``PYTHONHASHSEED`` (bundles are shared across runs)."""
    program = (
        "from repro.xag.graph import Xag\n"
        "from repro.xag.structhash import graph_hash\n"
        "xag = Xag()\n"
        "a, b = xag.create_pi('a'), xag.create_pi('b')\n"
        "xag.create_po(xag.create_and(xag.create_xor(a, b), a ^ 1), 'f')\n"
        "print(format(graph_hash(xag), 'x'))\n")
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    runs = {
        subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src_dir},
        ).stdout.strip()
        for seed in ("0", "12345")
    }
    assert len(runs) == 1

    xag = Xag()
    a, b = xag.create_pi("a"), xag.create_pi("b")
    xag.create_po(xag.create_and(xag.create_xor(a, b), a ^ 1), "f")
    assert runs == {format(graph_hash(xag), "x")}


def test_and_hash_normalises_sibling_order():
    left = _single_output(lambda x, a, b, c: x.create_and(a ^ 1, b))
    right = _single_output(lambda x, a, b, c: x.create_and(b, a ^ 1))
    assert graph_hash(left) == graph_hash(right)


def test_and_hash_keeps_complements_on_children():
    plain = _single_output(lambda x, a, b, c: x.create_and(a, b))
    negated = _single_output(lambda x, a, b, c: x.create_and(a ^ 1, b))
    other = _single_output(lambda x, a, b, c: x.create_and(a, b ^ 1))
    assert graph_hash(plain) != graph_hash(negated)
    assert graph_hash(negated) != graph_hash(other)


def test_xor_hash_folds_complements_to_parity():
    # a ^ !b == !a ^ b == !(a ^ b): all three are one canonical structure
    # with an output parity — strash stores them identically, so must we.
    variants = [
        _single_output(lambda x, a, b, c: x.create_xor(a ^ 1, b)),
        _single_output(lambda x, a, b, c: x.create_xor(a, b ^ 1)),
        _single_output(lambda x, a, b, c: x.create_xor(a, b) ^ 1),
    ]
    hashes = {graph_hash(xag) for xag in variants}
    assert len(hashes) == 1
    even = _single_output(lambda x, a, b, c: x.create_xor(a, b))
    assert graph_hash(even) not in hashes  # parity is part of the hash


# ----------------------------------------------------------------------
# graph-hash invariance and sensitivity
# ----------------------------------------------------------------------
def test_graph_hash_ignores_names_and_creation_order():
    for seed in range(10):
        rng = random.Random(seed)
        xag = random_xag(rng, num_pis=5, num_gates=35, num_pos=3)
        assert check_hash_consistency(xag, random.Random(seed ^ 7)) == []


def test_graph_hash_tracks_pi_roles_not_pi_nodes():
    # f = a AND (b XOR c) versus the same shape with the roles of the
    # first two inputs swapped: different functions, different hashes.
    f = _single_output(lambda x, a, b, c: x.create_and(a, x.create_xor(b, c)))
    g = _single_output(lambda x, a, b, c: x.create_and(b, x.create_xor(a, c)))
    assert graph_hash(f) != graph_hash(g)


def test_graph_hash_sensitive_to_po_order_and_complement():
    def two_pos(order):
        xag = Xag()
        a, b = xag.create_pi("a"), xag.create_pi("b")
        lits = (xag.create_and(a, b), xag.create_xor(a, b))
        for index in order:
            xag.create_po(lits[index], f"y{index}")
        return xag

    assert graph_hash(two_pos((0, 1))) != graph_hash(two_pos((1, 0)))

    plain = _single_output(lambda x, a, b, c: x.create_and(a, b))
    negated = _single_output(lambda x, a, b, c: x.create_and(a, b) ^ 1)
    assert graph_hash(plain) != graph_hash(negated)


def test_graph_hash_sensitive_to_unused_pi_count():
    narrow = Xag()
    a = narrow.create_pi("a")
    narrow.create_po(a, "y")
    wide = Xag()
    a = wide.create_pi("a")
    wide.create_pi("unused")
    wide.create_po(a, "y")
    assert graph_hash(narrow) != graph_hash(wide)


def test_graph_hash_survives_serialisation_round_trip():
    for seed in range(5):
        xag = random_xag(random.Random(100 + seed), num_pis=4, num_gates=25)
        assert graph_hash(from_dict(to_dict(xag))) == graph_hash(xag)


def test_permuted_copy_hashes_equal_with_changed_node_indices():
    xag = random_xag(random.Random(42), num_pis=5, num_gates=40, num_pos=2)
    copy = _permuted_copy(xag, random.Random(7))
    assert graph_hash(copy) == graph_hash(xag)
    # the permutation genuinely moved nodes (otherwise the test is vacuous)
    assert ([copy.fanins(g) for g in copy.gates()]
            != [xag.fanins(g) for g in xag.gates()])


# ----------------------------------------------------------------------
# cone hashes
# ----------------------------------------------------------------------
def test_cone_hash_is_leaf_relative_across_networks():
    # the same cone structure rooted over different leaf nodes, buried in
    # different networks, must produce the identical content address.
    def cone_over(xag, a, b):
        return xag.create_and(xag.create_xor(a, b), a)

    host_a = Xag()
    a0, a1 = host_a.create_pi("x0"), host_a.create_pi("x1")
    root_a = cone_over(host_a, a0, a1)
    host_a.create_po(root_a, "f")
    a_leaves = (a0 >> 1, a1 >> 1)

    host_b = Xag()
    pis = [host_b.create_pi(f"p{i}") for i in range(4)]
    # anchor the cone on derived signals so the leaf *node indices* differ
    u = host_b.create_xor(pis[2], pis[3])
    v = host_b.create_and(pis[0], pis[1])
    root_b = cone_over(host_b, u, v)
    host_b.create_po(root_b, "g")
    b_leaves = (u >> 1, v >> 1)

    assert a_leaves != b_leaves
    assert (cone_hash(host_a, root_a >> 1, a_leaves)
            == cone_hash(host_b, root_b >> 1, b_leaves))


def test_cone_hash_depends_on_leaf_order_and_structure():
    xag = Xag()
    a, b, c = (xag.create_pi(n) for n in "abc")
    root = xag.create_and(xag.create_xor(a, b), c)
    xag.create_po(root, "f")
    leaves = (a >> 1, b >> 1, c >> 1)
    reference = cone_hash(xag, root >> 1, leaves)
    # leaf order defines the variable numbering: a rotation is a different
    # function of the leaf vector, hence a different address
    rotated = (c >> 1, a >> 1, b >> 1)
    assert cone_hash(xag, root >> 1, rotated) != reference
    # a structurally different cone over the same leaves differs too
    other = xag.create_and(xag.create_and(a, b), c)
    xag.create_po(other, "g")
    assert cone_hash(xag, other >> 1, leaves) != reference


def test_cone_hash_accepts_precomputed_interior():
    xag = random_xag(random.Random(5), num_pis=4, num_gates=20)
    gate = next(iter(xag.gates()))
    leaves = tuple(sorted(p >> 1 for p in xag.pi_literals()))
    interior = cut_cone(xag, gate, leaves)
    assert (cone_hash(xag, gate, leaves, interior)
            == cone_hash(xag, gate, leaves))


# ----------------------------------------------------------------------
# maintained hashes
# ----------------------------------------------------------------------
def test_tracker_graph_hash_matches_free_function():
    xag = random_xag(random.Random(9), num_pis=5, num_gates=30, num_pos=2)
    tracker = StructHashTracker(xag)
    assert tracker.graph_hash() == graph_hash(xag)
    maintained = tracker.hashes()
    fresh = node_hashes(xag)
    for node in xag.topological_order():
        assert maintained[node] == fresh[node]
