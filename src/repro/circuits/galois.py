"""Galois-field arithmetic: software reference and circuit generators.

The cryptographic benchmark generators (most prominently the AES S-box) need
binary-field arithmetic both *in software* — to compute constants, conversion
matrices and expected values — and *as circuits* — AND/XOR networks inserted
into the benchmark XAGs.  Both live here.

Software elements of GF(2^k) are plain ints interpreted as polynomials over
GF(2) (bit ``i`` is the coefficient of ``x^i``); the field is defined by an
irreducible polynomial given as an int including the leading term.
"""

from __future__ import annotations

from typing import List, Sequence

from repro import gf2
from repro.circuits import word as W
from repro.xag.graph import Xag


class BinaryField:
    """Software arithmetic in GF(2^degree) with a given irreducible polynomial."""

    def __init__(self, degree: int, polynomial: int) -> None:
        if polynomial.bit_length() != degree + 1:
            raise ValueError("polynomial degree does not match the field degree")
        self.degree = degree
        self.polynomial = polynomial
        self.order = 1 << degree

    def multiply(self, a: int, b: int) -> int:
        """Product of two field elements."""
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a >> self.degree:
                a ^= self.polynomial
        return result

    def power(self, a: int, exponent: int) -> int:
        """Exponentiation by squaring."""
        result = 1
        base = a
        while exponent:
            if exponent & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            exponent >>= 1
        return result

    def inverse(self, a: int) -> int:
        """Multiplicative inverse; by convention ``inverse(0) = 0`` (as in AES)."""
        if a == 0:
            return 0
        return self.power(a, self.order - 2)


#: The AES field GF(2^8) with the Rijndael polynomial x^8 + x^4 + x^3 + x + 1.
AES_FIELD = BinaryField(8, 0x11B)


# ----------------------------------------------------------------------
# circuit generators
# ----------------------------------------------------------------------
def gf_multiply_circuit(xag: Xag, a: Sequence[int], b: Sequence[int], field: BinaryField) -> List[int]:
    """Schoolbook GF(2^k) multiplier circuit (``k^2`` AND gates, XOR reduction)."""
    degree = field.degree
    if len(a) != degree or len(b) != degree:
        raise ValueError("operand width must match the field degree")
    # partial products into a polynomial of degree 2k-2
    columns: List[List[int]] = [[] for _ in range(2 * degree - 1)]
    for i in range(degree):
        for j in range(degree):
            columns[i + j].append(xag.create_and(a[i], b[j]))
    raw = [xag.create_xor_multi(column) for column in columns]
    # modular reduction is linear: x^(k+t) mod p is a fixed GF(2) combination
    reduction = _reduction_rows(field)
    result = list(raw[:degree])
    for t, row in enumerate(reduction):
        high_bit = raw[degree + t]
        for target in range(degree):
            if (row >> target) & 1:
                result[target] = xag.create_xor(result[target], high_bit)
    return result


def gf_constant_multiply_circuit(xag: Xag, a: Sequence[int], constant: int,
                                 field: BinaryField) -> List[int]:
    """Multiplication by a constant — a linear map, hence XOR-only."""
    matrix = constant_multiplier_matrix(constant, field)
    return apply_linear_map(xag, a, matrix)


def gf_square_circuit(xag: Xag, a: Sequence[int], field: BinaryField) -> List[int]:
    """Squaring — the Frobenius map is linear, hence XOR-only."""
    matrix = squaring_matrix(field)
    return apply_linear_map(xag, a, matrix)


def apply_linear_map(xag: Xag, bits: Sequence[int], matrix: Sequence[int]) -> List[int]:
    """Apply a GF(2) matrix (row bitmasks) to a vector of literals with XOR gates."""
    outputs = []
    for row in matrix:
        outputs.append(xag.create_xor_multi([bits[j] for j in range(len(bits)) if (row >> j) & 1]))
    return outputs


# ----------------------------------------------------------------------
# matrices describing linear maps of a field
# ----------------------------------------------------------------------
def _reduction_rows(field: BinaryField) -> List[int]:
    """Row ``t``: the representation of ``x^(degree + t)`` in the field."""
    rows = []
    value = field.multiply(1 << (field.degree - 1), 2)  # x^degree reduced
    for _ in range(field.degree - 1):
        rows.append(value)
        value = field.multiply(value, 2)
    return rows


def constant_multiplier_matrix(constant: int, field: BinaryField) -> List[int]:
    """Matrix of the linear map ``a -> constant * a`` (row ``i`` = output bit ``i``)."""
    columns = [field.multiply(constant, 1 << j) for j in range(field.degree)]
    return _columns_to_rows(columns, field.degree)


def squaring_matrix(field: BinaryField) -> List[int]:
    """Matrix of the Frobenius map ``a -> a^2``."""
    columns = [field.multiply(1 << j, 1 << j) for j in range(field.degree)]
    return _columns_to_rows(columns, field.degree)


def _columns_to_rows(columns: Sequence[int], degree: int) -> List[int]:
    rows = [0] * degree
    for j, column in enumerate(columns):
        for i in range(degree):
            if (column >> i) & 1:
                rows[i] |= 1 << j
    return rows


def invert_matrix(matrix: Sequence[int]) -> List[int]:
    """Inverse of a GF(2) matrix (delegates to :mod:`repro.gf2`)."""
    inverse = gf2.inverse(list(matrix))
    if inverse is None:
        raise ValueError("matrix is singular")
    return inverse
