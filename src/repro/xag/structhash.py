"""Canonical content-addressed structural identity of XAG nodes.

Every cache layer of the stack needs to answer "have I seen this structure
before?" — and before this module each layer invented its own answer:
cone functions were keyed by per-network ``(root, leaves)`` node tuples
that die with the circuit, warm-start bundles deduped by installation
order, and the engine had no notion of having optimised a circuit before.
This module provides the one identity they all share: a **canonical
structural hash** propagated bottom-up (the ``NodeHash``/``propagate_hash``
idiom), with three consumers:

* **per-node hashes** — :func:`node_hashes` hashes every node in one
  topological pass; :class:`StructHashTracker` memoises it per network the
  way :class:`repro.xag.levels.LevelTracker` memoises the levels (a
  substitution or a rollback drops the memo, the next query recomputes
  it);
* **cone hashes** — :func:`cone_hash` hashes a ``(root, leaves)`` cut cone
  with *leaf-relative* placeholders (leaf ``i`` hashes as variable ``i``),
  so the identity is independent of everything below the cut: identical
  cones inside different circuits — or different users' circuits — produce
  identical hashes;
* **whole-graph hashes** — :func:`graph_hash` combines the PI count and
  the hash/complement of every PO driver, in output order.  Warm-start
  bundles address their recipe entries by it.

Canonicalisation mirrors the strash rules of
:meth:`repro.xag.graph.Xag._resolve_gate` so that strash-equal structures
hash equal no matter how their complement bits happen to be stored:

* a primary input hashes by its **PI slot** (position among the inputs),
  never by node index or name — so creation-order permutation and PI/PO
  renaming leave every hash unchanged, while swapping two input *roles*
  does not;
* an AND combines its two ``(child hash, complement)`` pairs in sorted
  order (sibling order normalised, complements attached to the child —
  the strash-canonical position for AND fan-ins);
* an XOR folds both fan-in complements into a single output **parity**
  bit and combines the two child hashes in sorted order — the canonical
  position strash stores the parity at, so an XOR stored as
  ``(a^1, b)`` hashes identically to ``(a, b^1)``.

Hashes are 128-bit integers derived from BLAKE2b digests, so they are
stable across processes, platforms and Python hash seeds (``hash()`` is
salted and useless here) and collisions are negligible even at
content-addressed-store scale.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence

from repro.xag.graph import NodeKind, SubstitutionResult, Xag, lit_node

#: domain-separation tags (one per hashed construct, never reused).
_TAG_CONST = 1
_TAG_PI = 2
_TAG_AND = 3
_TAG_XOR = 4
_TAG_LEAF = 5
_TAG_CONE = 6
_TAG_GRAPH = 7

_BYTES = 16  # 128-bit hashes


def _mix(*parts: int) -> int:
    """Deterministic 128-bit combination of non-negative integer parts.

    Every part is length-prefix-free (fixed 17-byte little-endian field:
    16 bytes of value, one byte flagging oversize values hashed down
    first), so distinct part tuples can never collide by concatenation.
    """
    pieces = []
    for part in parts:
        if part < (1 << 128):
            pieces.append(part.to_bytes(_BYTES, "little") + b"\x00")
        else:  # pragma: no cover - parts are 128-bit by construction
            digest = hashlib.blake2b(
                part.to_bytes((part.bit_length() + 7) // 8, "little"),
                digest_size=_BYTES).digest()
            pieces.append(digest + b"\x01")
    return int.from_bytes(
        hashlib.blake2b(b"".join(pieces), digest_size=_BYTES).digest(),
        "little")


#: hash of the constant-zero node (shared by every network).
CONST_HASH = _mix(_TAG_CONST)


def pi_hash(slot: int) -> int:
    """Hash of the ``slot``-th primary input (position, not node index)."""
    return _mix(_TAG_PI, slot)


def leaf_hash(position: int) -> int:
    """Hash of cut-cone leaf ``position`` (variable ``position``)."""
    return _mix(_TAG_LEAF, position)


def _and_hash(hash_a: int, comp_a: int, hash_b: int, comp_b: int) -> int:
    """Hash of an AND over two (child hash, complement) pairs."""
    if (hash_a, comp_a) > (hash_b, comp_b):
        hash_a, comp_a, hash_b, comp_b = hash_b, comp_b, hash_a, comp_a
    return _mix(_TAG_AND, hash_a, comp_a, hash_b, comp_b)


def _xor_hash(hash_a: int, hash_b: int, parity: int) -> int:
    """Hash of an XOR with both fan-in complements folded to ``parity``."""
    if hash_a > hash_b:
        hash_a, hash_b = hash_b, hash_a
    return _mix(_TAG_XOR, parity, hash_a, hash_b)


def _gate_hash(xag: Xag, node: int, values: Dict[int, int]) -> int:
    """Hash of one gate from child hashes in ``values`` (shared kernel)."""
    f0, f1 = xag.fanins(node)
    h0 = values[lit_node(f0)]
    h1 = values[lit_node(f1)]
    if xag.is_and(node):
        return _and_hash(h0, f0 & 1, h1, f1 & 1)
    return _xor_hash(h0, h1, (f0 & 1) ^ (f1 & 1))


# ----------------------------------------------------------------------
# one-shot computations (no subscription)
# ----------------------------------------------------------------------
def node_hashes(xag: Xag) -> List[int]:
    """Fresh per-node hashes in one topological pass (dead nodes read 0).

    :class:`StructHashTracker` memoises it; property tests check the memo
    against a fresh call across random substitution/rollback/balance
    sequences.
    """
    hashes = [0] * xag.num_nodes
    hashes[0] = CONST_HASH
    for slot, node in enumerate(xag.pis()):
        hashes[node] = pi_hash(slot)
    fanin0 = xag._fanin0
    fanin1 = xag._fanin1
    kinds = xag._kind
    and_kind = NodeKind.AND
    xor_kind = NodeKind.XOR
    for node in xag.topological_order():
        kind = kinds[node]
        if kind != and_kind and kind != xor_kind:
            continue
        f0 = fanin0[node]
        f1 = fanin1[node]
        h0 = hashes[f0 >> 1]
        h1 = hashes[f1 >> 1]
        if kind == and_kind:
            hashes[node] = _and_hash(h0, f0 & 1, h1, f1 & 1)
        else:
            hashes[node] = _xor_hash(h0, h1, (f0 & 1) ^ (f1 & 1))
    return hashes


def graph_hash(xag: Xag, hashes: Optional[Sequence[int]] = None) -> int:
    """Whole-graph hash over the PO literal list.

    Invariant under PI/PO renaming, gate creation-order permutation and
    serialisation round-trips; sensitive to the PI count, the PO order and
    every structural difference in the PO cones.  ``hashes`` may pass
    per-node hashes already computed (a tracker's memo).
    """
    if hashes is None:
        hashes = node_hashes(xag)
    parts: List[int] = [_TAG_GRAPH, xag.num_pis]
    for lit in xag.po_literals():
        parts.append(hashes[lit_node(lit)])
        parts.append(lit & 1)
    return _mix(*parts)


def cone_hash(xag: Xag, root: int, leaves: Sequence[int],
              interior: Optional[Iterable[int]] = None) -> int:
    """Content address of the ``(root, leaves)`` cut cone.

    Leaf ``i`` hashes as abstract variable ``i`` — nothing below the cut
    leaks into the hash, so structurally identical cones in different
    networks (or different processes) share one address.  The hash
    determines the cone *structure*, hence also its truth table over the
    leaves.  ``interior`` may pass
    the cone's topological interior (from
    :func:`repro.cuts.enumeration.cut_cone`) to skip the traversal.
    """
    if interior is None:
        from repro.cuts.enumeration import cut_cone
        interior = cut_cone(xag, root, tuple(leaves))
    values: Dict[int, int] = {0: CONST_HASH}
    for position, leaf in enumerate(leaves):
        values[leaf] = leaf_hash(position)
    for node in interior:
        values[node] = _gate_hash(xag, node, values)
    return _mix(_TAG_CONE, len(leaves), values[root])


# ----------------------------------------------------------------------
# per-network memo
# ----------------------------------------------------------------------
class StructHashTracker:
    """Per-node hashes of one :class:`Xag`, recomputed after each change.

    A memo of :func:`node_hashes`, kept like the levels of
    :class:`repro.xag.levels.LevelTracker`: a substitution or a rollback
    drops it, and the next query recomputes it in one topological pass (so
    does a query after nodes were appended, which do not notify).  Only
    live-node hashes are meaningful.
    """

    def __init__(self, xag: Xag) -> None:
        self.xag = xag
        self._hashes: Optional[List[int]] = None
        xag.subscribe(self)

    # ------------------------------------------------------------------
    # mutation events
    # ------------------------------------------------------------------
    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """An in-place edit invalidates every stored hash."""
        self._hashes = None

    def on_rollback(self, xag: Xag) -> None:
        """A rollback invalidates every stored hash."""
        self._hashes = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Recompute the hashes if the network changed since the last query."""
        xag = self.xag
        if self._hashes is not None and len(self._hashes) == xag.num_nodes:
            return
        self._hashes = node_hashes(xag)

    def hashes(self) -> List[int]:
        """Hash of every node (do not mutate; replaced after a change).

        Only live-node hashes are meaningful.
        """
        self.sync()
        return self._hashes

    def graph_hash(self) -> int:
        """Whole-graph hash over the PO literal list (see module docs).

        Served from the memoised per-node hashes, so repeated reads of an
        unchanged network hash nothing again.
        """
        self.sync()
        return graph_hash(self.xag, self._hashes)
