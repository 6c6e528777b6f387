"""XOR-AND graph (XAG) with complemented edges, structural hashing and
in-place substitution.

An XAG is the logic representation used throughout the paper: every internal
node is a 2-input AND or a 2-input XOR, and edges may be complemented.  The
number of AND nodes is the *multiplicative complexity of the circuit*.

Signals ("literals") are encoded as ``node_index * 2 + complement`` exactly as
in AIGER/mockturtle, so ``constant false`` is literal ``0`` and ``constant
true`` is literal ``1``.  Nodes are stored in creation order.

The network supports two editing disciplines:

* **append-only construction** — gates are only ever added bottom-up (with
  constant propagation and structural hashing), optionally undone through
  :meth:`Xag.checkpoint` / :meth:`Xag.rollback`.  In this regime the node
  index order is a valid topological order and every full-network pass can
  simply scan indices.

* **in-place substitution** — :meth:`Xag.substitute_node` redirects every
  reference of a node (fan-out gates and primary outputs, with complement
  propagation) to a replacement literal, mockturtle-style.  Nodes whose last
  reference disappears are *dereferenced* (marked dead and excluded from the
  gate counters/iteration, see :meth:`Xag.is_dead` / :meth:`Xag.take_out_node`),
  and nodes that become referenced again are revived.  After a substitution
  the index order is no longer topological; :meth:`Xag.topological_order`
  (and :meth:`Xag.gates`, which is defined in terms of it) provide the
  fanin-before-fanout order every consumer should iterate in.

Observers (level trackers, cone-function memos) can subscribe to the
network's mutation events (:meth:`Xag.subscribe`): they receive per-node
invalidations — which gates were rewired, killed or revived — instead of the
all-or-nothing rollback epoch, so state for untouched cones stays valid
across in-place rewrites.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import (Deque, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)


class NodeKind:
    """Integer tags for node types (kept as plain ints for speed)."""

    CONST = 0
    PI = 1
    AND = 2
    XOR = 3

    NAMES = {CONST: "const", PI: "pi", AND: "and", XOR: "xor"}


FALSE = 0
TRUE = 1


def literal(node: int, complemented: bool = False) -> int:
    """Build a literal from a node index and a complement flag."""
    return (node << 1) | int(complemented)


def lit_node(lit: int) -> int:
    """Node index of a literal."""
    return lit >> 1


def lit_complemented(lit: int) -> bool:
    """True when the literal is complemented."""
    return bool(lit & 1)


def lit_not(lit: int) -> int:
    """Complement of a literal."""
    return lit ^ 1


class Checkpoint:
    """Opaque snapshot of an :class:`Xag` used for speculative construction."""

    __slots__ = ("num_nodes", "strash_log_len", "num_ands", "num_xors",
                 "mutation_epoch")

    def __init__(self, num_nodes: int, strash_log_len: int, num_ands: int,
                 num_xors: int, mutation_epoch: int = 0):
        self.num_nodes = num_nodes
        self.strash_log_len = strash_log_len
        self.num_ands = num_ands
        self.num_xors = num_xors
        self.mutation_epoch = mutation_epoch


class SubstitutionResult:
    """Record of everything one :meth:`Xag.substitute_node` call changed.

    This is both the return value of the substitution and the payload handed
    to subscribed observers, so that incremental state (packed simulation
    words, memoised cone functions) can be invalidated per node instead of
    wholesale:

    * ``pairs`` — the ``(old_node, replacement_literal)`` substitutions that
      were performed, in order.  Cascaded substitutions (a fan-out gate that
      collapsed to a constant, a wire, or strash-merged with an existing
      node) appear here too.
    * ``dirty`` — gate nodes whose stored fan-ins changed (rewired literals
      or propagated complements).  Their simulation values and any cone
      function whose cone contains them must be recomputed.
    * ``killed`` — nodes whose last reference disappeared; they are dead and
      no longer reachable from the primary outputs.
    * ``revived`` — previously dead nodes that became referenced again.

    Observers record ``dirty``, ``revived`` and ``killed`` and expand them
    with :meth:`Xag.edited_closure` when they are next read, so a batch of
    substitutions costs one fanout walk instead of one per event.
    """

    __slots__ = ("pairs", "dirty", "killed", "revived")

    def __init__(self) -> None:
        self.pairs: List[Tuple[int, int]] = []
        self.dirty: Set[int] = set()
        self.killed: List[int] = []
        self.revived: List[int] = []


class Xag:
    """A XOR-AND graph.

    The public surface follows the usual logic-network API: primary inputs and
    outputs, gate constructors with constant propagation and structural
    hashing, counters, iteration, speculative construction via
    :meth:`checkpoint` / :meth:`rollback`, and mockturtle-style in-place
    editing via :meth:`substitute_node` / :meth:`take_out_node` with
    maintained fan-out lists and reference counts.
    """

    def __init__(self) -> None:
        self._kind: List[int] = [NodeKind.CONST]
        self._fanin0: List[int] = [0]
        self._fanin1: List[int] = [0]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []
        self._po_names: List[str] = []
        self._strash: Dict[Tuple[int, int, int], int] = {}
        #: complement-parity XOR gates (stored fan-in complements XOR to 1):
        #: key → node computing ``key_function ^ 1``.  Only in-place
        #: substitution produces such gates; keeping them hashable preserves
        #: full structural dedup across rewrites.
        self._strash_xor1: Dict[Tuple[int, int, int], int] = {}
        self._strash_log: List[Tuple[int, int, int]] = []
        self._num_ands = 0
        self._num_xors = 0
        #: per-node structural reference count (fan-in references of live
        #: gates plus primary outputs).
        self._refs: List[int] = [0]
        #: per-node list of live gate nodes referencing it (POs are counted
        #: in ``_refs`` only).
        self._fanouts: List[List[int]] = [[]]
        #: per-node dead flag (1 = removed by dereferencing).
        self._dead = bytearray(1)
        self._num_dead = 0
        #: bumped on every rollback so observers (e.g. level trackers)
        #: can tell "rolled back and re-grown" apart from "only appended".
        self._rollback_epoch = 0
        #: bumped on every substitution / take-out / revive; checkpoints
        #: record it so a rollback across an in-place edit is rejected.
        self._mutation_epoch = 0
        #: False once a substitution may have broken index == topo order.
        self._topo_clean = True
        self._topo_cache: Optional[List[int]] = None
        self._observers: List["weakref.ref"] = []
        self.name: str = ""

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def get_constant(self, value: bool) -> int:
        """Literal of the constant ``value``."""
        return TRUE if value else FALSE

    def create_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its (non-complemented) literal."""
        node = len(self._kind)
        self._kind.append(NodeKind.PI)
        self._fanin0.append(0)
        self._fanin1.append(0)
        self._refs.append(0)
        self._fanouts.append([])
        self._dead.append(0)
        if self._topo_cache is not None:
            # appended nodes only reference existing ones: the cached
            # topological order stays valid with the node at the end.
            self._topo_cache.append(node)
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"x{len(self._pis) - 1}")
        return literal(node)

    def create_pis(self, count: int, prefix: str = "x") -> List[int]:
        """Create ``count`` primary inputs named ``prefix0 .. prefix{count-1}``."""
        return [self.create_pi(f"{prefix}{i}") for i in range(count)]

    def create_po(self, lit: int, name: Optional[str] = None) -> int:
        """Register a primary output driven by ``lit``; returns the PO index."""
        self._check_literal(lit)
        node = lit >> 1
        if self._dead[node]:
            self._revive_for_reference(node)
        self._refs[node] += 1
        self._pos.append(lit)
        self._po_names.append(name if name is not None else f"y{len(self._pos) - 1}")
        return len(self._pos) - 1

    def replace_po(self, index: int, lit: int) -> None:
        """Re-drive an existing primary output."""
        self._check_literal(lit)
        node = lit >> 1
        if self._dead[node]:
            self._revive_for_reference(node)
        self._refs[node] += 1
        self._refs[self._pos[index] >> 1] -= 1
        self._pos[index] = lit

    def _new_node(self, kind: int, fanin0: int, fanin1: int) -> int:
        node = len(self._kind)
        self._kind.append(kind)
        self._fanin0.append(fanin0)
        self._fanin1.append(fanin1)
        self._refs.append(0)
        self._fanouts.append([])
        self._dead.append(0)
        for child in (fanin0 >> 1, fanin1 >> 1):
            self._refs[child] += 1
            self._fanouts[child].append(node)
        if self._topo_cache is not None:
            # appended nodes only reference existing ones: the cached
            # topological order stays valid with the node at the end.
            self._topo_cache.append(node)
        if kind == NodeKind.AND:
            self._num_ands += 1
        else:
            self._num_xors += 1
        return node

    def create_and(self, a: int, b: int) -> int:
        """AND of two literals (with constant propagation and strashing)."""
        self._check_literal(a)
        self._check_literal(b)
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == lit_not(b):
            return FALSE
        if a > b:
            a, b = b, a
        if self._dead[a >> 1]:
            self._revive_for_reference(a >> 1)
        if self._dead[b >> 1]:
            self._revive_for_reference(b >> 1)
        key = (NodeKind.AND, a, b)
        node = self._strash.get(key)
        if node is None:
            node = self._new_node(NodeKind.AND, a, b)
            self._strash[key] = node
            self._strash_log.append(key)
        return literal(node)

    def create_xor(self, a: int, b: int) -> int:
        """XOR of two literals (complements are pushed to the output)."""
        self._check_literal(a)
        self._check_literal(b)
        if a == b:
            return FALSE
        if a == lit_not(b):
            return TRUE
        if a == FALSE:
            return b
        if a == TRUE:
            return lit_not(b)
        if b == FALSE:
            return a
        if b == TRUE:
            return lit_not(a)
        out_complement = (a & 1) ^ (b & 1)
        a &= ~1
        b &= ~1
        if a > b:
            a, b = b, a
        if self._dead[a >> 1]:
            self._revive_for_reference(a >> 1)
        if self._dead[b >> 1]:
            self._revive_for_reference(b >> 1)
        key = (NodeKind.XOR, a, b)
        node = self._strash.get(key)
        if node is None:
            twin = self._strash_xor1.get(key)
            if twin is not None and not self._dead[twin]:
                # twin computes the complement of the requested function
                return literal(twin) | (out_complement ^ 1)
            node = self._new_node(NodeKind.XOR, a, b)
            self._strash[key] = node
            self._strash_log.append(key)
        return literal(node) | out_complement

    def create_not(self, a: int) -> int:
        """Complement of a literal (free: just flips the complement bit)."""
        self._check_literal(a)
        return lit_not(a)

    def create_or(self, a: int, b: int) -> int:
        """OR realised as a single AND with complemented edges."""
        return lit_not(self.create_and(lit_not(a), lit_not(b)))

    def create_nand(self, a: int, b: int) -> int:
        """NAND of two literals."""
        return lit_not(self.create_and(a, b))

    def create_nor(self, a: int, b: int) -> int:
        """NOR of two literals."""
        return lit_not(self.create_or(a, b))

    def create_xnor(self, a: int, b: int) -> int:
        """XNOR of two literals."""
        return lit_not(self.create_xor(a, b))

    def create_mux(self, sel: int, then_lit: int, else_lit: int) -> int:
        """Multiplexer ``sel ? then : else`` using a single AND gate."""
        return self.create_xor(else_lit, self.create_and(sel, self.create_xor(then_lit, else_lit)))

    def create_maj(self, a: int, b: int, c: int) -> int:
        """Majority of three literals using a single AND gate.

        ``<abc> = ((a ^ c) & (b ^ c)) ^ c`` — the multiplicative-complexity
        optimal construction (MC = 1), matching the paper's Example 3.1.
        """
        return self.create_xor(self.create_and(self.create_xor(a, c), self.create_xor(b, c)), c)

    def create_maj_naive(self, a: int, b: int, c: int) -> int:
        """Majority of three literals with the textbook 3-AND / 2-OR structure."""
        return self.create_or(self.create_or(self.create_and(a, b), self.create_and(a, c)), self.create_and(b, c))

    def create_and_multi(self, literals: Sequence[int]) -> int:
        """Balanced AND of an arbitrary number of literals."""
        return self._reduce(list(literals), self.create_and, TRUE)

    def create_or_multi(self, literals: Sequence[int]) -> int:
        """Balanced OR of an arbitrary number of literals."""
        return self._reduce(list(literals), self.create_or, FALSE)

    def create_xor_multi(self, literals: Sequence[int]) -> int:
        """Balanced XOR of an arbitrary number of literals."""
        return self._reduce(list(literals), self.create_xor, FALSE)

    def _reduce(self, literals: List[int], op, neutral: int) -> int:
        if not literals:
            return neutral
        while len(literals) > 1:
            nxt = []
            for i in range(0, len(literals) - 1, 2):
                nxt.append(op(literals[i], literals[i + 1]))
            if len(literals) & 1:
                nxt.append(literals[-1])
            literals = nxt
        return literals[0]

    # ------------------------------------------------------------------
    # speculative construction
    # ------------------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Snapshot the network so later additions can be undone."""
        return Checkpoint(len(self._kind), len(self._strash_log), self._num_ands,
                          self._num_xors, self._mutation_epoch)

    def rollback(self, checkpoint: Checkpoint) -> None:
        """Remove every node created after ``checkpoint``.

        Only valid when the removed nodes are not referenced by primary
        outputs or by nodes created before the checkpoint (which is always the
        case for bottom-up construction), and when no in-place edit
        (:meth:`substitute_node`, :meth:`take_out_node`) happened since the
        checkpoint was taken — in-place edits rewire pre-checkpoint state
        that a rollback cannot restore, so mixing the two raises.
        """
        if checkpoint.mutation_epoch != self._mutation_epoch:
            raise ValueError(
                "cannot roll back across an in-place edit: the checkpoint was "
                "taken before a substitute_node/take_out_node call")
        for key in self._strash_log[checkpoint.strash_log_len:]:
            del self._strash[key]
        del self._strash_log[checkpoint.strash_log_len:]
        for node in range(checkpoint.num_nodes, len(self._kind)):
            if self._dead[node]:
                self._num_dead -= 1
                continue
            if self._kind[node] not in (NodeKind.AND, NodeKind.XOR):
                continue
            for child in (self._fanin0[node] >> 1, self._fanin1[node] >> 1):
                self._refs[child] -= 1
                self._fanouts[child].remove(node)
        del self._kind[checkpoint.num_nodes:]
        del self._fanin0[checkpoint.num_nodes:]
        del self._fanin1[checkpoint.num_nodes:]
        del self._refs[checkpoint.num_nodes:]
        del self._fanouts[checkpoint.num_nodes:]
        del self._dead[checkpoint.num_nodes:]
        self._num_ands = checkpoint.num_ands
        self._num_xors = checkpoint.num_xors
        self._rollback_epoch += 1
        self._topo_cache = None
        for observer in self._live_observers():
            on_rollback = getattr(observer, "on_rollback", None)
            if on_rollback is not None:
                on_rollback(self)

    # ------------------------------------------------------------------
    # in-place editing
    # ------------------------------------------------------------------
    def is_dead(self, node: int) -> bool:
        """True when the node was removed by dereferencing."""
        return bool(self._dead[node])

    def fanout(self, node: int) -> List[int]:
        """Live gate nodes referencing ``node`` (POs are not listed)."""
        return list(self._fanouts[node])

    def fanout_size(self, node: int) -> int:
        """Maintained reference count of ``node`` (POs count as fan-outs)."""
        return self._refs[node]

    def transitive_fanout(self, seeds: Iterable[int]) -> Set[int]:
        """All live nodes reachable forward from ``seeds`` (seeds included)."""
        seen: Set[int] = set()
        stack = [node for node in seeds if not self._dead[node]]
        seen.update(stack)
        fanouts = self._fanouts
        while stack:
            node = stack.pop()
            for fo in fanouts[node]:
                if fo not in seen and not self._dead[fo]:
                    seen.add(fo)
                    stack.append(fo)
        return seen

    def edited_closure(self, edited: Set[int]) -> Set[int]:
        """Nodes whose transitive fan-in may differ since ``edited`` changed.

        ``edited`` collects the ``dirty``, ``revived`` and ``killed`` nodes
        of any number of :class:`SubstitutionResult` events.  The answer is
        the live transitive fanout of ``edited`` in the current network plus
        the edited nodes that are dead now.  Walked once after a batch of
        events, it agrees with the union of the per-event closures on every
        node that existed before the batch: a fanout path that did not exist
        at some event was created by a later rewire or revival, whose node
        is itself in ``edited``.
        """
        dead = self._dead
        closure = self.transitive_fanout(edited)
        closure.update(node for node in edited if dead[node])
        return closure

    def substitute_node(self, old: int, new_lit: int) -> SubstitutionResult:
        """Redirect every reference of ``old`` to ``new_lit``, in place.

        Fan-out gates have the corresponding fan-in literal replaced (the
        reference's complement bit is XOR-ed into ``new_lit`` — a complement
        landing on an XOR fan-in stays stored on the edge, which is valid
        everywhere literals are read; only freshly *created* XOR gates keep
        the push-complements-out normal form); primary outputs are re-driven
        likewise.  A rewired gate that collapses (constant fan-in, equal or
        complementary fan-ins) or strash-merges with an existing gate is
        substituted in turn — such cascaded replacements are re-derived from
        the gate's current fan-ins at the moment they are applied, so
        earlier steps of the cascade can never leave a stale fold behind.
        ``old`` and any node losing its last reference are dereferenced
        (:meth:`is_dead`); a replacement target that was dead is revived.
        Subscribed observers are notified with the resulting
        :class:`SubstitutionResult`.

        Caller contract: ``new_lit`` must not lie in the transitive fanout
        of ``old`` — redirecting the fanout of ``old`` onto such a literal
        would create a combinational cycle.  (The cut rewriter satisfies
        this structurally: replacement logic is built on the cut leaves,
        which live in the root's transitive fan-in.)
        """
        if not self.is_gate(old):
            raise ValueError(f"substitute_node target {old} is not a gate")
        if self._dead[old]:
            raise ValueError(f"substitute_node target {old} is dead")
        self._check_literal(new_lit)
        result = SubstitutionResult()
        #: (node, replacement) — replacement ``None`` means "re-derive from
        #: the node's current fan-ins when the entry is applied".
        queue: Deque[Tuple[int, Optional[int]]] = deque([(old, new_lit)])
        #: nodes with a queued replacement — they must not rejoin the strash
        folding: Set[int] = {old}
        while queue:
            node, repl = queue.popleft()
            folding.discard(node)
            if self._dead[node]:
                continue
            if repl is None:
                repl = self._resolve_gate(node)
                if repl is None:
                    # the gate no longer collapses/merges: it was re-strashed
                    # by _resolve_gate and simply stays.
                    continue
            if (repl >> 1) == node:
                if repl == literal(node):
                    continue
                raise ValueError(
                    f"cannot substitute node {node} by its own complement")
            target = repl >> 1
            if self._dead[target]:
                self._revive(target, result)
            result.pairs.append((node, repl))
            # primary outputs: gate references live in the fan-out list, so
            # a reference surplus is the only way a PO can point here — skip
            # the O(num_pos) scan for the (vast majority of) interior nodes.
            if self._refs[node] != len(self._fanouts[node]):
                for index, po in enumerate(self._pos):
                    if (po >> 1) == node:
                        self._pos[index] = repl ^ (po & 1)
                        self._refs[node] -= 1
                        self._refs[target] += 1
            # fan-out gates
            for g in list(self._fanouts[node]):
                if self._dead[g]:
                    continue
                self._rewire(g, node, repl, queue, folding, result)
            # garbage-collect the substituted node
            if self._refs[node] == 0 and not self._dead[node]:
                self._take_out(node, result)
        self._mutation_epoch += 1
        self._topo_clean = False
        self._topo_cache = None
        # every outstanding checkpoint is now invalid (epoch guard), so the
        # strash log has no consumers: trim it instead of letting it grow by
        # one entry per gate ever hashed across a whole convergence flow.
        del self._strash_log[:]
        self._notify_substitution(result)
        return result

    def take_out_node(self, node: int) -> List[int]:
        """Dereference an unreferenced gate (and its cone, recursively).

        The node must be a live gate with no remaining references.  Returns
        the list of nodes that died.  This is the explicit entry point for
        callers that dropped their last use of a cone; :meth:`substitute_node`
        calls the same machinery automatically.
        """
        if not self.is_gate(node) or self._dead[node]:
            raise ValueError(f"take_out_node target {node} is not a live gate")
        if self._refs[node] != 0:
            raise ValueError(f"node {node} still has {self._refs[node]} references")
        result = SubstitutionResult()
        self._take_out(node, result)
        self._mutation_epoch += 1
        self._topo_cache = None
        self._notify_substitution(result)
        return list(result.killed)

    # -- observer registry ---------------------------------------------
    def subscribe(self, observer) -> None:
        """Register an observer for mutation events (held by weak reference).

        The observer contract: ``on_substitution(xag, result)`` receives a
        :class:`SubstitutionResult` after every in-place edit (substitution
        or take-out); ``on_rollback(xag)``, if defined, is called after every
        :meth:`rollback`.  Both are optional — missing methods are skipped.
        Observers are compared by identity and never kept alive by the
        network (dead weak references are pruned on notify).
        """
        for ref in self._observers:
            if ref() is observer:
                return
        self._observers.append(weakref.ref(observer))

    def unsubscribe(self, observer) -> None:
        """Remove a previously subscribed observer (no-op when absent)."""
        self._observers = [ref for ref in self._observers
                           if ref() is not None and ref() is not observer]

    def _live_observers(self) -> List[object]:
        observers = []
        live_refs = []
        for ref in self._observers:
            observer = ref()
            if observer is not None:
                observers.append(observer)
                live_refs.append(ref)
        self._observers = live_refs
        return observers

    def _notify_substitution(self, result: SubstitutionResult) -> None:
        for observer in self._live_observers():
            on_substitution = getattr(observer, "on_substitution", None)
            if on_substitution is not None:
                on_substitution(self, result)

    # -- substitution internals ----------------------------------------
    def _unregister(self, node: int) -> None:
        """Drop ``node``'s strash entry, if it is registered under its key."""
        kind = self._kind[node]
        f0 = self._fanin0[node]
        f1 = self._fanin1[node]
        if kind == NodeKind.XOR:
            f0 &= ~1
            f1 &= ~1
        if f0 > f1:
            f0, f1 = f1, f0
        key = (kind, f0, f1)
        if self._strash.get(key) == node:
            del self._strash[key]
        elif kind == NodeKind.XOR and self._strash_xor1.get(key) == node:
            del self._strash_xor1[key]

    def _rewire(self, g: int, from_node: int, repl: int,
                queue: Deque[Tuple[int, Optional[int]]], folding: Set[int],
                result: SubstitutionResult) -> None:
        """Replace ``g``'s references of ``from_node`` with ``repl``."""
        self._unregister(g)
        target = repl >> 1
        f0 = self._fanin0[g]
        f1 = self._fanin1[g]
        if (f0 >> 1) == from_node:
            self._refs[from_node] -= 1
            self._fanouts[from_node].remove(g)
            self._refs[target] += 1
            self._fanouts[target].append(g)
            f0 = repl ^ (f0 & 1)
        if (f1 >> 1) == from_node:
            self._refs[from_node] -= 1
            self._fanouts[from_node].remove(g)
            self._refs[target] += 1
            self._fanouts[target].append(g)
            f1 = repl ^ (f1 & 1)
        self._fanin0[g] = f0
        self._fanin1[g] = f1
        result.dirty.add(g)
        if g in folding:
            # g already has a queued replacement; its (re-derived) fold will
            # see the updated fan-ins when it is applied.
            return
        if self._resolve_gate(g) is not None:
            # collapses or merges: defer, re-deriving at apply time (the
            # fan-ins may be rewired again before the fold is reached).
            queue.append((g, None))
            folding.add(g)

    def _resolve_gate(self, g: int) -> Optional[int]:
        """Re-derive ``g`` from its current fan-ins.

        Returns the literal ``g`` is equivalent to when it collapses
        (constant / equal / complementary fan-ins) or strash-merges with an
        existing gate; otherwise canonicalises the stored fan-ins, registers
        ``g`` in the strash (when its key is free) and returns ``None``.
        Every fan-in rewire and every deferred fold funnels through here, so
        a fold is always derived from the fan-ins it is applied against.
        """
        a = self._fanin0[g]
        b = self._fanin1[g]
        if self._kind[g] == NodeKind.AND:
            if a == FALSE or b == FALSE or a == lit_not(b):
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
                return a
            if a == b:
                return a
            if a > b:
                a, b = b, a
            self._fanin0[g] = a
            self._fanin1[g] = b
            key = (NodeKind.AND, a, b)
            existing = self._strash.get(key)
            if existing is not None and existing != g and not self._dead[existing]:
                return literal(existing)
            self._strash[key] = g
            return None
        parity = (a & 1) ^ (b & 1)
        base_a = a & ~1
        base_b = b & ~1
        if base_a == base_b:
            return FALSE ^ parity
        if base_a == FALSE:
            return base_b ^ parity
        if base_b == FALSE:
            return base_a ^ parity
        if base_a > base_b:
            base_a, base_b = base_b, base_a
        key = (NodeKind.XOR, base_a, base_b)
        existing = self._strash.get(key)
        if existing is not None and existing != g and not self._dead[existing]:
            # existing computes base_a ^ base_b; g additionally carries the
            # fan-in complement parity.
            return literal(existing) | parity
        twin = self._strash_xor1.get(key)
        if twin is not None and twin != g and not self._dead[twin]:
            # twin computes base_a ^ base_b ^ 1.
            return literal(twin) | (parity ^ 1)
        # canonical storage: complements folded into the parity position on
        # the lower-base fan-in, fan-ins sorted by base literal.
        self._fanin0[g] = base_a | parity
        self._fanin1[g] = base_b
        if parity:
            self._strash_xor1[key] = g
        else:
            self._strash[key] = g
        return None

    def _take_out(self, node: int, result: SubstitutionResult) -> None:
        """Mark ``node`` dead and dereference its cone recursively."""
        stack = [node]
        while stack:
            n = stack.pop()
            if self._dead[n] or self._refs[n] != 0 or \
                    self._kind[n] not in (NodeKind.AND, NodeKind.XOR):
                continue
            self._dead[n] = 1
            self._num_dead += 1
            if self._kind[n] == NodeKind.AND:
                self._num_ands -= 1
            else:
                self._num_xors -= 1
            self._unregister(n)
            result.killed.append(n)
            for child in (self._fanin0[n] >> 1, self._fanin1[n] >> 1):
                self._refs[child] -= 1
                self._fanouts[child].remove(n)
                if self._refs[child] == 0 and not self._dead[child]:
                    stack.append(child)

    def _revive_for_reference(self, node: int) -> None:
        """Revive a dead node referenced from a construction-path call.

        This is a mutation like any other: it bumps the mutation epoch
        (invalidating outstanding checkpoints) and notifies observers with
        the revived cone, so incremental state (stale levels in a
        :class:`~repro.xag.levels.LevelTracker`, memoised cone functions)
        is invalidated instead of silently surviving.
        """
        result = SubstitutionResult()
        self._revive(node, result)
        self._mutation_epoch += 1
        self._notify_substitution(result)

    def _revive(self, node: int, result: Optional[SubstitutionResult]) -> None:
        """Resurrect a dead node (and, recursively, its dead fan-in cone)."""
        stack = [node]
        while stack:
            n = stack.pop()
            if not self._dead[n]:
                continue
            self._dead[n] = 0
            self._num_dead -= 1
            if self._kind[n] == NodeKind.AND:
                self._num_ands += 1
            else:
                self._num_xors += 1
            if result is not None:
                result.revived.append(n)
            for child in (self._fanin0[n] >> 1, self._fanin1[n] >> 1):
                if self._dead[child]:
                    stack.append(child)
                self._refs[child] += 1
                self._fanouts[child].append(n)
            kind = self._kind[n]
            f0 = self._fanin0[n]
            f1 = self._fanin1[n]
            if kind == NodeKind.XOR:
                parity = (f0 & 1) ^ (f1 & 1)
                f0 &= ~1
                f1 &= ~1
                if f0 > f1:
                    f0, f1 = f1, f0
                table = self._strash_xor1 if parity else self._strash
                table.setdefault((NodeKind.XOR, f0, f1), n)
            else:
                if f0 > f1:
                    f0, f1 = f1, f0
                self._strash.setdefault((kind, f0, f1), n)
        self._topo_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_literal(self, lit: int) -> None:
        if lit < 0 or (lit >> 1) >= len(self._kind):
            raise ValueError(f"literal {lit} references a node that does not exist")

    @property
    def num_nodes(self) -> int:
        """Total number of node slots including the constant, PIs and dead nodes."""
        return len(self._kind)

    @property
    def num_dead(self) -> int:
        """Number of dead (dereferenced) node slots."""
        return self._num_dead

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def num_gates(self) -> int:
        """Number of live AND and XOR gates."""
        return self._num_ands + self._num_xors

    @property
    def num_ands(self) -> int:
        """Number of live AND gates (the multiplicative complexity of the circuit)."""
        return self._num_ands

    @property
    def num_xors(self) -> int:
        """Number of live XOR gates."""
        return self._num_xors

    def kind(self, node: int) -> int:
        """Node kind tag (see :class:`NodeKind`)."""
        return self._kind[node]

    def is_and(self, node: int) -> bool:
        """True for AND nodes."""
        return self._kind[node] == NodeKind.AND

    def is_xor(self, node: int) -> bool:
        """True for XOR nodes."""
        return self._kind[node] == NodeKind.XOR

    def is_gate(self, node: int) -> bool:
        """True for AND or XOR nodes."""
        return self._kind[node] in (NodeKind.AND, NodeKind.XOR)

    def is_pi(self, node: int) -> bool:
        """True for primary-input nodes."""
        return self._kind[node] == NodeKind.PI

    def is_constant(self, node: int) -> bool:
        """True for the constant node."""
        return self._kind[node] == NodeKind.CONST

    def fanins(self, node: int) -> Tuple[int, int]:
        """Fan-in literals of a gate node."""
        return self._fanin0[node], self._fanin1[node]

    def pis(self) -> List[int]:
        """Node indices of the primary inputs, in creation order."""
        return list(self._pis)

    def pi_literals(self) -> List[int]:
        """Literals of the primary inputs, in creation order."""
        return [literal(node) for node in self._pis]

    def pi_name(self, index: int) -> str:
        """Name of the ``index``-th primary input."""
        return self._pi_names[index]

    def po_literal(self, index: int) -> int:
        """Driving literal of the ``index``-th primary output."""
        return self._pos[index]

    def po_literals(self) -> List[int]:
        """Driving literals of all primary outputs."""
        return list(self._pos)

    def po_name(self, index: int) -> str:
        """Name of the ``index``-th primary output."""
        return self._po_names[index]

    def pi_names(self) -> List[str]:
        """Names of all primary inputs."""
        return list(self._pi_names)

    def po_names(self) -> List[str]:
        """Names of all primary outputs."""
        return list(self._po_names)

    def is_topo_clean(self) -> bool:
        """True while node index order is still a valid topological order."""
        return self._topo_clean

    def topological_order(self) -> List[int]:
        """All live node indices, fan-ins before fan-outs.

        For append-only networks this is simply the (live) index order; after
        an in-place substitution the order is recomputed (and cached until
        the next mutation) by a depth-first traversal.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        if self._topo_clean:
            if self._num_dead == 0:
                order = list(range(len(self._kind)))
            else:
                dead = self._dead
                order = [node for node in range(len(self._kind)) if not dead[node]]
            self._topo_cache = order
            return order
        kind = self._kind
        fanin0 = self._fanin0
        fanin1 = self._fanin1
        dead = self._dead
        visited = bytearray(len(kind))
        order: List[int] = []
        for seed in range(len(kind)):
            if dead[seed] or visited[seed]:
                continue
            stack: List[Tuple[int, bool]] = [(seed, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    order.append(node)
                    continue
                if visited[node]:
                    continue
                visited[node] = 1
                if kind[node] in (NodeKind.AND, NodeKind.XOR):
                    stack.append((node, True))
                    for child in (fanin1[node] >> 1, fanin0[node] >> 1):
                        if not visited[child]:
                            stack.append((child, False))
                else:
                    order.append(node)
        self._topo_cache = order
        return order

    def gates(self) -> Iterator[int]:
        """Iterate over live gate node indices in topological order."""
        if self._topo_clean and self._num_dead == 0:
            for node in range(len(self._kind)):
                if self._kind[node] in (NodeKind.AND, NodeKind.XOR):
                    yield node
            return
        dead = self._dead
        for node in self.topological_order():
            if self._kind[node] in (NodeKind.AND, NodeKind.XOR) and not dead[node]:
                yield node

    def nodes(self) -> Iterator[int]:
        """Iterate over all node indices in creation order (dead included).

        Full-network passes that need fan-ins before fan-outs must iterate
        :meth:`topological_order` instead — after an in-place substitution
        the creation order is no longer topological.
        """
        return iter(range(len(self._kind)))

    def fanout_counts(self) -> List[int]:
        """Fan-out count per node (primary outputs count as fan-outs).

        This is the maintained reference-count array; it equals the
        recomputation from scratch (sum of live-gate fan-in references plus
        PO references) at all times.
        """
        return list(self._refs)

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def clone(self) -> "Xag":
        """Deep copy of the network (observers are not carried over)."""
        other = Xag()
        other._kind = list(self._kind)
        other._fanin0 = list(self._fanin0)
        other._fanin1 = list(self._fanin1)
        other._pis = list(self._pis)
        other._pi_names = list(self._pi_names)
        other._pos = list(self._pos)
        other._po_names = list(self._po_names)
        other._strash = dict(self._strash)
        other._strash_xor1 = dict(self._strash_xor1)
        other._strash_log = list(self._strash_log)
        other._num_ands = self._num_ands
        other._num_xors = self._num_xors
        other._refs = list(self._refs)
        other._fanouts = [list(fanout) for fanout in self._fanouts]
        other._dead = bytearray(self._dead)
        other._num_dead = self._num_dead
        other._topo_clean = self._topo_clean
        other._topo_cache = None
        other.name = self.name
        return other

    def copy_cone(self, target: "Xag", roots: Sequence[int], leaf_map: Dict[int, int],
                  cache_out: Optional[Dict[int, int]] = None) -> List[int]:
        """Copy the cones of ``roots`` into ``target``.

        ``leaf_map`` maps node indices of this network to literals of
        ``target``; every node reachable from the roots must either be a gate
        whose fan-ins are (transitively) covered, a constant, or appear in
        ``leaf_map``.  Returns the literals in ``target`` corresponding to the
        ``roots`` literals of this network.  When ``cache_out`` is given, the
        full old-node → new-literal cache (leaves and every copied gate) is
        stored into it.
        """
        cache: Dict[int, int] = dict(leaf_map)
        cache[0] = FALSE

        ordered = self._collect_cone_nodes([lit_node(r) for r in roots], set(cache))
        for node in ordered:
            f0, f1 = self.fanins(node)
            a = cache[lit_node(f0)] ^ (f0 & 1)
            b = cache[lit_node(f1)] ^ (f1 & 1)
            if self.is_and(node):
                cache[node] = target.create_and(a, b)
            else:
                cache[node] = target.create_xor(a, b)
        if cache_out is not None:
            cache_out.update(cache)
        return [cache[lit_node(r)] ^ (r & 1) for r in roots]

    def _collect_cone_nodes(self, roots: Sequence[int], stop: Iterable[int]) -> List[int]:
        stop_set = set(stop)
        visited = set(stop_set)
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(root, False) for root in roots]
        while stack:
            node, expanded = stack.pop()
            if node in visited and not expanded:
                continue
            if expanded:
                order.append(node)
                continue
            visited.add(node)
            if not self.is_gate(node):
                if node not in stop_set and not self.is_constant(node):
                    raise ValueError(f"cone reaches unmapped non-gate node {node}")
                continue
            stack.append((node, True))
            f0, f1 = self.fanins(node)
            for child in (lit_node(f0), lit_node(f1)):
                if child not in visited:
                    stack.append((child, False))
        return order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" '{self.name}'" if self.name else ""
        return (
            f"<Xag{label} pis={self.num_pis} pos={self.num_pos} "
            f"ands={self.num_ands} xors={self.num_xors}>"
        )
