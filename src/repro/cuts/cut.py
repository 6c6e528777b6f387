"""Cut data type."""

from __future__ import annotations

from typing import Optional, Tuple


class Cut:
    """A cut of a node: the root and a set of leaf nodes.

    Following the paper's definition (Section 2.1), every path from the root
    to a primary input passes through at least one leaf, and every leaf lies
    on such a path.  Leaves are stored as a sorted tuple of node indices.

    Cuts produced by :func:`repro.cuts.enumeration.enumerate_cuts` and
    :class:`repro.cuts.enumeration.CutSetCache` also carry, computed in the
    cut merge, ``table`` — the root's truth table over the leaves (leaf
    ``i`` = variable ``i``) — and ``has_and``, which is true when an AND
    gate lies between the leaves and the root.  A hand-built cut leaves
    both ``None``; :func:`repro.cuts.enumeration.cut_function` simulates
    any cut.  Equality and hashing look at ``root`` and ``leaves`` only.

    A plain ``__slots__`` class rather than a frozen dataclass: hundreds of
    thousands of cuts are built per batch, and a frozen dataclass pays one
    ``object.__setattr__`` per field.
    """

    __slots__ = ("root", "leaves", "table", "has_and")

    def __init__(self, root: int, leaves: Tuple[int, ...],
                 table: Optional[int] = None,
                 has_and: Optional[bool] = None) -> None:
        self.root = root
        self.leaves = leaves
        self.table = table
        self.has_and = has_and

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Cut:
            return NotImplemented
        return self.root == other.root and self.leaves == other.leaves

    def __hash__(self) -> int:
        return hash((self.root, self.leaves))

    def __repr__(self) -> str:
        return (f"Cut(root={self.root!r}, leaves={self.leaves!r}, "
                f"table={self.table!r}, has_and={self.has_and!r})")

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self.leaves)

    def is_trivial(self) -> bool:
        """True for the unit cut ``{root}``."""
        return self.leaves == (self.root,)

    def dominates(self, other: "Cut") -> bool:
        """True when this cut's leaves are a subset of ``other``'s leaves."""
        return set(self.leaves).issubset(other.leaves)
