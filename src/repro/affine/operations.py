"""The five affine operations of paper Definition 2.1 and composite transforms.

The individual operations are:

1. ``swap``            — swap two variables;
2. ``flip_input``      — complement one variable;
3. ``flip_output``     — complement the function;
4. ``translate``       — replace ``x_i`` by ``x_i ^ x_j``;
5. ``xor_output``      — XOR the function with one variable.

All of them are involutions and none of them changes the number of AND gates
of an XAG implementation, which is the key invariance the paper exploits.

The composition of any sequence of these operations has the closed form

    g(x) = f(A x ^ b) ^ <c, x> ^ d

with ``A`` invertible over GF(2).  :class:`AffineTransform` tracks this
closed form; the cut rewriter uses it to re-wire a representative circuit with
XOR gates and inverters only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro import gf2
from repro.tt import operations as tt_ops
from repro.tt.bits import table_mask


@dataclass(frozen=True)
class AffineOp:
    """One elementary affine operation.

    ``kind`` is one of ``swap``, ``flip_input``, ``flip_output``,
    ``translate`` (x_a ← x_a ^ x_b) and ``xor_output`` (f ← f ^ x_a); ``a``
    and ``b`` are variable indices (``b`` is unused for single-variable
    operations and the output complement).
    """

    kind: str
    a: int = 0
    b: int = 0

    def apply_to_table(self, table: int, num_vars: int) -> int:
        """Apply the operation to a truth table."""
        if self.kind == "swap":
            return tt_ops.swap_variables(table, self.a, self.b, num_vars)
        if self.kind == "flip_input":
            return tt_ops.flip_variable(table, self.a, num_vars)
        if self.kind == "flip_output":
            return table ^ table_mask(num_vars)
        if self.kind == "translate":
            return tt_ops.xor_variable_into(table, self.a, self.b, num_vars)
        if self.kind == "xor_output":
            return tt_ops.xor_with_variable(table, self.a, num_vars)
        raise ValueError(f"unknown affine operation {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "swap":
            return f"x{self.a} <-> x{self.b}"
        if self.kind == "flip_input":
            return f"x{self.a} <- ~x{self.a}"
        if self.kind == "flip_output":
            return "f <- ~f"
        if self.kind == "translate":
            return f"x{self.a} <- x{self.a} ^ x{self.b}"
        if self.kind == "xor_output":
            return f"f <- f ^ x{self.a}"
        return self.kind


def apply_ops(table: int, num_vars: int, ops: Sequence[AffineOp]) -> int:
    """Apply a sequence of operations, in order, to a truth table."""
    current = table
    for op in ops:
        current = op.apply_to_table(current, num_vars)
    return current


class AffineTransform:
    """Closed form ``g(x) = f(A x ^ b) ^ <c, x> ^ d`` of a sequence of affine ops.

    The transform is tracked *forward*: starting from the identity, every
    elementary operation applied to the running function updates ``(A, b, c,
    d)`` so that ``current = transform(original)``.  :meth:`inverse` converts
    the result into the transform needed to rebuild the original function from
    the representative, which is what cut rewriting consumes.
    """

    def __init__(self, num_vars: int, matrix: List[int] = None, offset: int = 0,
                 output_linear: int = 0, output_const: int = 0) -> None:
        self.num_vars = num_vars
        self.matrix = matrix if matrix is not None else gf2.identity(num_vars)
        self.offset = offset
        self.output_linear = output_linear
        self.output_const = output_const

    @classmethod
    def identity(cls, num_vars: int) -> "AffineTransform":
        """Identity transform."""
        return cls(num_vars)

    def copy(self) -> "AffineTransform":
        """Independent copy."""
        return AffineTransform(self.num_vars, list(self.matrix), self.offset,
                               self.output_linear, self.output_const)

    # ------------------------------------------------------------------
    # updates (composition with an elementary operation applied *after*)
    # ------------------------------------------------------------------
    def apply_op(self, op: AffineOp) -> None:
        """Update the transform for an elementary operation applied to the function.

        Each elementary input operation is a structured matrix ``M``, so
        the generic composition for ``new(x) = current(M x ^ m)`` (matrix
        ``A · M``, offset ``A m ^ b``, linear part ``c · M``) specialises
        to per-row bit twiddles: a swap
        exchanges two columns of ``A`` (and two bits of ``c``), a
        translation XORs column ``a`` into column ``b``, and an input flip
        folds column ``a`` of ``A`` into the offset.
        """
        kind = op.kind
        if kind == "swap":
            a, b = op.a, op.b
            flip = (1 << a) | (1 << b)
            self.matrix = [
                row ^ flip if ((row >> a) ^ (row >> b)) & 1 else row
                for row in self.matrix]
            c = self.output_linear
            if ((c >> a) ^ (c >> b)) & 1:
                self.output_linear = c ^ flip
        elif kind == "flip_input":
            a = op.a
            column = 0
            for i, row in enumerate(self.matrix):
                column |= ((row >> a) & 1) << i
            self.offset ^= column
            self.output_const ^= (self.output_linear >> a) & 1
        elif kind == "translate":
            a, b = op.a, op.b
            self.matrix = [
                row ^ (((row >> a) & 1) << b) for row in self.matrix]
            c = self.output_linear
            self.output_linear = c ^ (((c >> a) & 1) << b)
        elif kind == "flip_output":
            self.output_const ^= 1
        elif kind == "xor_output":
            self.output_linear ^= 1 << op.a
        else:
            raise ValueError(f"unknown affine operation {op.kind!r}")

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def apply_to_table(self, table: int) -> int:
        """Apply the transform to a truth table."""
        result = tt_ops.apply_input_transform(table, self.matrix, self.offset, self.num_vars)
        return tt_ops.apply_output_affine(result, self.output_linear, self.output_const,
                                          self.num_vars)

    def inverse(self) -> "AffineTransform":
        """Transform ``S`` with ``original = S(transformed)``."""
        inv_matrix = gf2.inverse(self.matrix)
        if inv_matrix is None:
            raise ValueError("affine transform matrix is singular")
        inv_offset = gf2.mat_vec(inv_matrix, self.offset)
        inv_linear = gf2.vec_mat(self.output_linear, inv_matrix)
        inv_const = (bin(self.output_linear & inv_offset).count("1") & 1) ^ self.output_const
        return AffineTransform(self.num_vars, inv_matrix, inv_offset, inv_linear, inv_const)

    # ------------------------------------------------------------------
    # persistence (warm-start bundles)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation of the closed form ``(A, b, c, d)``."""
        return {
            "num_vars": self.num_vars,
            "matrix": list(self.matrix),
            "offset": self.offset,
            "output_linear": self.output_linear,
            "output_const": self.output_const,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AffineTransform":
        """Rebuild a transform from :meth:`to_dict` output."""
        try:
            num_vars = int(data["num_vars"])
            matrix = [int(row) for row in data["matrix"]]
            offset = int(data["offset"])
            output_linear = int(data["output_linear"])
            output_const = int(data["output_const"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed affine transform payload: {exc!r}") from exc
        if num_vars < 0 or len(matrix) != num_vars:
            raise ValueError(
                f"affine transform payload has {len(matrix)} matrix rows "
                f"for {num_vars} variables")
        return cls(num_vars, matrix, offset, output_linear, output_const)

    def is_identity(self) -> bool:
        """True when the transform leaves every function unchanged."""
        return (self.matrix == gf2.identity(self.num_vars) and self.offset == 0
                and self.output_linear == 0 and self.output_const == 0)

    def to_ops(self) -> List[AffineOp]:
        """Decompose into a sequence of elementary operations.

        Applying the returned operations to ``f``, in order, yields the same
        function as :meth:`apply_to_table`.
        """
        ops: List[AffineOp] = []
        # offset first: g1(x) = f(x ^ b') must satisfy A b' = ... we apply the
        # flips before the linear part, so the flipped vector is A^{-1} b
        # composed ...  Simpler: build as flips on b' then matrix A:
        #   g1(x) = f(x ^ b'); g2(x) = g1(A x) = f(A x ^ b') -> b' must be the
        #   stored offset directly.
        for var in range(self.num_vars):
            if (self.offset >> var) & 1:
                ops.append(AffineOp("flip_input", var))
        factors = gf2.elementary_decomposition(self.matrix)
        # elementary_decomposition returns R_1..R_k with matrix = R_k ... R_1
        # (left-multiplication order); function application composes matrices
        # in the opposite order, hence the reversal.
        for kind, a, b in reversed(factors):
            if kind == "swap":
                if a != b:
                    ops.append(AffineOp("swap", a, b))
            else:
                ops.append(AffineOp("translate", a, b))
        for var in range(self.num_vars):
            if (self.output_linear >> var) & 1:
                ops.append(AffineOp("xor_output", var))
        if self.output_const:
            ops.append(AffineOp("flip_output"))
        return ops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = gf2.to_rows(self.matrix, self.num_vars)
        return (f"AffineTransform(A={rows}, b={self.offset:0{self.num_vars}b}, "
                f"c={self.output_linear:0{self.num_vars}b}, d={self.output_const})")


def compose_key(transform: AffineTransform) -> Tuple:
    """Hashable key of a transform (used in tests for uniqueness checks)."""
    return (tuple(transform.matrix), transform.offset, transform.output_linear,
            transform.output_const)
