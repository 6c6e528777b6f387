"""Canonical content-addressed structural identity of XAG nodes.

Every cache layer of the stack needs to answer "have I seen this structure
before?" — and before this module each layer invented its own answer:
cone functions were keyed by per-network ``(root, leaves)`` node tuples
that die with the circuit, warm-start bundles deduped by installation
order, and the engine had no notion of having optimised a circuit before.
This module provides the one identity they all share: a **canonical
structural hash** propagated bottom-up (the ``NodeHash``/``propagate_hash``
idiom), with three consumers:

* **per-node hashes** — :class:`StructHashTracker` maintains one hash per
  node *incrementally* under the substitution-event API, following the
  exact discipline of :class:`repro.xag.levels.LevelTracker`: appending
  nodes only hashes the new suffix, an in-place substitution recomputes
  only the dirty transitive fanout (pruning where a recomputed hash is
  unchanged), and a rollback resets the tracker via the network's rollback
  epoch;
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
from typing import Dict, Iterable, List, Optional, Sequence, Set

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
    """Fresh per-node hashes in one topological pass (dead entries stale).

    The from-scratch reference :class:`StructHashTracker` must agree with
    bit-exactly — property tests pin the two against each other across
    random substitution/rollback/balance sequences.
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
    per-node hashes already computed (a maintained tracker's array).
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
# incremental maintenance
# ----------------------------------------------------------------------
class StructHashTracker:
    """Incrementally maintained per-node hashes bound to one :class:`Xag`.

    Follows the :class:`repro.xag.levels.LevelTracker` event discipline:
    lazy invalidation records from :meth:`on_substitution`, a cheap
    suffix-only pass while the network is append-only, one change-pruned
    topological sweep otherwise, and an epoch-checked reset on rollback.
    Entries of dead nodes are stale — only live-node hashes are
    meaningful, mirroring the :class:`~repro.xag.levels.LevelTracker`
    level-array contract.
    """

    def __init__(self, xag: Xag) -> None:
        self.xag = xag
        self._hashes: List[int] = []
        self._pi_slots: Dict[int, int] = {}
        self._synced = 0
        self._rollback_epoch = xag._rollback_epoch
        #: nodes rewired/revived by substitutions since the last sync.
        self._pending_dirty: Set[int] = set()
        #: nodes hashed by suffix syncs (initial pass + appended nodes).
        self.full_updates = 0
        #: nodes recomputed by transitive-fanout invalidation sweeps.
        self.incremental_updates = 0
        xag.subscribe(self)

    # ------------------------------------------------------------------
    # mutation events
    # ------------------------------------------------------------------
    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """Record per-node invalidations from an in-place edit (lazy)."""
        if xag is not self.xag:
            return
        synced = self._synced
        pending = self._pending_dirty
        for node in result.dirty:
            if node < synced:
                pending.add(node)
        for node in result.revived:
            if node < synced:
                pending.add(node)
        for node in result.killed:
            pending.discard(node)

    def on_rollback(self, xag: Xag) -> None:
        """Rollback invalidates everything; :meth:`sync` resets via the epoch."""
        self._pending_dirty.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Bring the hash array up to date with the network."""
        xag = self.xag
        count = xag.num_nodes
        if xag._rollback_epoch != self._rollback_epoch:
            self._rollback_epoch = xag._rollback_epoch
            del self._hashes[:]
            self._pi_slots.clear()
            self._synced = 0
            self._pending_dirty.clear()
        if len(self._pi_slots) != xag.num_pis:
            # PIs are append-only between rollbacks; refresh the slot map.
            self._pi_slots = {node: slot
                              for slot, node in enumerate(xag.pis())}
        pending = self._pending_dirty
        if count == self._synced and not pending:
            return
        self._hashes.extend([0] * (count - len(self._hashes)))
        if xag.is_topo_clean() and not pending:
            self._compute_range(self._synced, count)
            self.full_updates += count - self._synced
        else:
            self._resync(count)
            pending.clear()
        self._synced = count

    def hashes(self) -> List[int]:
        """Hash of every node (live list — do not mutate).

        Entries of dead nodes are stale; only live-node hashes are
        meaningful.
        """
        self.sync()
        return self._hashes

    def graph_hash(self) -> int:
        """Whole-graph hash over the PO literal list (see module docs).

        Served from the maintained array, so mid-flow re-hashing costs one
        incremental sync over the dirty fanout instead of a from-scratch
        topological pass.
        """
        self.sync()
        return graph_hash(self.xag, self._hashes)

    def cone_hash(self, root: int, leaves: Sequence[int],
                  interior: Optional[Iterable[int]] = None) -> int:
        """Leaf-relative content address of a cut cone (see :func:`cone_hash`).

        Cone hashes substitute abstract variables for the leaves, so they
        are *not* derived from the maintained per-node hashes — the tracker
        only lends its network binding here.
        """
        return cone_hash(self.xag, root, leaves, interior)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _compute_range(self, start: int, end: int) -> None:
        xag = self.xag
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        hashes = self._hashes
        pi_slots = self._pi_slots
        and_kind = NodeKind.AND
        xor_kind = NodeKind.XOR
        pi_kind = NodeKind.PI
        for node in range(start, end):
            kind = kinds[node]
            if kind == and_kind:
                f0 = fanin0[node]
                f1 = fanin1[node]
                hashes[node] = _and_hash(hashes[f0 >> 1], f0 & 1,
                                         hashes[f1 >> 1], f1 & 1)
            elif kind == xor_kind:
                f0 = fanin0[node]
                f1 = fanin1[node]
                hashes[node] = _xor_hash(hashes[f0 >> 1], hashes[f1 >> 1],
                                         (f0 & 1) ^ (f1 & 1))
            elif kind == pi_kind:
                hashes[node] = pi_hash(pi_slots[node])
            else:
                hashes[node] = CONST_HASH

    def _resync(self, count: int) -> None:
        """One topological pass recomputing new and invalidated nodes only.

        Mirrors :meth:`LevelTracker._resync`: a gate is recomputed when it
        is new, was rewired, or has a fan-in whose hash changed; a
        recomputation that reproduces the stored hash stops the
        propagation.
        """
        xag = self.xag
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        hashes = self._hashes
        pending = self._pending_dirty
        new_start = self._synced
        and_kind = NodeKind.AND
        xor_kind = NodeKind.XOR
        pi_kind = NodeKind.PI
        pi_slots = self._pi_slots
        changed = bytearray(count)
        appended = 0
        recomputed = 0
        for node in xag.topological_order():
            kind = kinds[node]
            if kind != and_kind and kind != xor_kind:
                if node >= new_start:
                    hashes[node] = (pi_hash(pi_slots[node])
                                    if kind == pi_kind else CONST_HASH)
                    appended += 1
                continue
            f0 = fanin0[node]
            f1 = fanin1[node]
            is_new = node >= new_start
            if not (is_new or node in pending
                    or changed[f0 >> 1] or changed[f1 >> 1]):
                continue
            if kind == and_kind:
                value = _and_hash(hashes[f0 >> 1], f0 & 1,
                                  hashes[f1 >> 1], f1 & 1)
            else:
                value = _xor_hash(hashes[f0 >> 1], hashes[f1 >> 1],
                                  (f0 & 1) ^ (f1 & 1))
            if is_new:
                appended += 1
            else:
                recomputed += 1
            if value != hashes[node]:
                hashes[node] = value
                changed[node] = 1
        self.full_updates += appended
        self.incremental_updates += recomputed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StructHashTracker nodes={self._synced}/"
                f"{self.xag.num_nodes} full={self.full_updates} "
                f"incr={self.incremental_updates}>")
