"""AES-128 circuit generator with a composite-field (tower) S-box.

The S-box is where all the AND gates of AES live: inversion in GF(2^8) is
implemented over the tower GF(((2^2)^2)^2), in which only the small-field
multiplications need AND gates (≈ 36 per S-box); every basis conversion, the
squarings, the AES affine map, MixColumns and AddRoundKey are GF(2)-linear and
therefore XOR-only.  This reproduces the character of the best-known MPC/FHE
AES circuits used in the paper's Table 2 (≈ 34 ANDs per S-box), which is why
the optimiser finds essentially nothing left to improve on AES.

Everything — tower arithmetic, basis-change matrices, the affine constant — is
derived from first principles in software (no hard-coded gate lists), and the
generated circuits are validated against a software AES model.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro import gf2
from repro.circuits import word as W
from repro.circuits.galois import AES_FIELD, apply_linear_map
from repro.xag.graph import Xag

# ----------------------------------------------------------------------
# software tower-field arithmetic
# ----------------------------------------------------------------------
# GF(4) = GF(2)[w]/(w^2+w+1); elements are 2-bit ints (bit1 = w, bit0 = 1).
# GF(16) = GF(4)[y]/(y^2+y+N) with N = w (0b10); nibble = (hi << 2) | lo.
# GF(256) = GF(16)[z]/(z^2+z+M); byte = (hi << 4) | lo.  M is selected below.

GF4_N = 0b10


def gf4_mul(a: int, b: int) -> int:
    """Multiply two GF(4) elements."""
    a0, a1 = a & 1, (a >> 1) & 1
    b0, b1 = b & 1, (b >> 1) & 1
    m1 = a1 & b1
    m2 = a0 & b0
    m3 = (a1 ^ a0) & (b1 ^ b0)
    hi = m3 ^ m2
    lo = m2 ^ m1
    return (hi << 1) | lo


def gf16_mul(a: int, b: int) -> int:
    """Multiply two GF(16) elements in the tower basis."""
    ah, al = (a >> 2) & 0b11, a & 0b11
    bh, bl = (b >> 2) & 0b11, b & 0b11
    m1 = gf4_mul(ah, bh)
    m2 = gf4_mul(al, bl)
    m3 = gf4_mul(ah ^ al, bh ^ bl)
    hi = m3 ^ m2
    lo = gf4_mul(m1, GF4_N) ^ m2
    return (hi << 2) | lo


def _select_gf256_modulus() -> int:
    """Smallest M in GF(16) such that z^2 + z + M is irreducible over GF(16)."""
    images = {gf16_mul(u, u) ^ u for u in range(16)}
    for candidate in range(1, 16):
        if candidate not in images:
            return candidate
    raise AssertionError("no irreducible quadratic found over GF(16)")


GF16_M = _select_gf256_modulus()


def gf256_mul(a: int, b: int) -> int:
    """Multiply two GF(256) elements in the tower basis."""
    ah, al = (a >> 4) & 0xF, a & 0xF
    bh, bl = (b >> 4) & 0xF, b & 0xF
    m1 = gf16_mul(ah, bh)
    m2 = gf16_mul(al, bl)
    m3 = gf16_mul(ah ^ al, bh ^ bl)
    hi = m3 ^ m2
    lo = gf16_mul(m1, GF16_M) ^ m2
    return (hi << 4) | lo


# ----------------------------------------------------------------------
# basis conversion between the AES polynomial basis and the tower basis
# ----------------------------------------------------------------------
def _find_isomorphism() -> Tuple[List[int], List[int]]:
    """Matrices (rows as bitmasks) converting AES basis -> tower and back.

    The map sends the AES generator ``x`` (0x02) to a root ``beta`` of the
    Rijndael polynomial found inside the tower field; linearity then fixes the
    whole isomorphism.
    """
    rijndael_coeffs = [1, 1, 0, 1, 1, 0, 0, 0, 1]  # x^8 + x^4 + x^3 + x + 1
    for beta in range(2, 256):
        accumulator = 0
        power = 1
        for coeff in rijndael_coeffs:
            if coeff:
                accumulator ^= power
            power = gf256_mul(power, beta)
        if accumulator != 0:
            continue
        # columns of AES->tower are the tower representations of beta^i
        columns = []
        value = 1
        for _ in range(8):
            columns.append(value)
            value = gf256_mul(value, beta)
        rows = [0] * 8
        for j, column in enumerate(columns):
            for i in range(8):
                if (column >> i) & 1:
                    rows[i] |= 1 << j
        inverse_rows = gf2.inverse(rows)
        if inverse_rows is None:
            continue
        return rows, inverse_rows
    raise AssertionError("no isomorphism between AES field and tower field found")


AES_TO_TOWER, TOWER_TO_AES = _find_isomorphism()

#: AES affine transformation matrix (row i is a bitmask over input bits):
#: output bit i = a_i ^ a_{i+4} ^ a_{i+5} ^ a_{i+6} ^ a_{i+7} (indices mod 8).
AFFINE_MATRIX = [
    sum(1 << ((i + offset) % 8) for offset in (0, 4, 5, 6, 7)) for i in range(8)
]
AFFINE_CONSTANT = 0x63


def sbox_value(byte: int) -> int:
    """Software AES S-box (derived, not table-driven)."""
    inverse = AES_FIELD.inverse(byte)
    result = 0
    for i in range(8):
        bit = bin(AFFINE_MATRIX[i] & inverse).count("1") & 1
        result |= bit << i
    return result ^ AFFINE_CONSTANT


# ----------------------------------------------------------------------
# circuit builders
# ----------------------------------------------------------------------
def _gf4_mul_circuit(xag: Xag, a: Sequence[int], b: Sequence[int]) -> List[int]:
    m1 = xag.create_and(a[1], b[1])
    m2 = xag.create_and(a[0], b[0])
    m3 = xag.create_and(xag.create_xor(a[1], a[0]), xag.create_xor(b[1], b[0]))
    return [xag.create_xor(m2, m1), xag.create_xor(m3, m2)]


def _gf4_square_circuit(xag: Xag, a: Sequence[int]) -> List[int]:
    return [xag.create_xor(a[0], a[1]), a[1]]


def _gf4_mul_n_circuit(xag: Xag, a: Sequence[int]) -> List[int]:
    # multiply by N = w: (a1 w + a0) * w = (a1 + a0) w + a1
    return [a[1], xag.create_xor(a[0], a[1])]


def _gf16_mul_circuit(xag: Xag, a: Sequence[int], b: Sequence[int]) -> List[int]:
    ah, al = a[2:], a[:2]
    bh, bl = b[2:], b[:2]
    m1 = _gf4_mul_circuit(xag, ah, bh)
    m2 = _gf4_mul_circuit(xag, al, bl)
    m3 = _gf4_mul_circuit(xag, [xag.create_xor(ah[0], al[0]), xag.create_xor(ah[1], al[1])],
                          [xag.create_xor(bh[0], bl[0]), xag.create_xor(bh[1], bl[1])])
    hi = [xag.create_xor(m3[0], m2[0]), xag.create_xor(m3[1], m2[1])]
    m1n = _gf4_mul_n_circuit(xag, m1)
    lo = [xag.create_xor(m1n[0], m2[0]), xag.create_xor(m1n[1], m2[1])]
    return lo + hi


def _gf16_square_circuit(xag: Xag, a: Sequence[int]) -> List[int]:
    ah, al = a[2:], a[:2]
    ah_sq = _gf4_square_circuit(xag, ah)
    al_sq = _gf4_square_circuit(xag, al)
    hi = ah_sq
    lo_part = _gf4_mul_n_circuit(xag, ah_sq)
    lo = [xag.create_xor(lo_part[0], al_sq[0]), xag.create_xor(lo_part[1], al_sq[1])]
    return lo + hi


def _gf16_inverse_circuit(xag: Xag, a: Sequence[int]) -> List[int]:
    ah, al = a[2:], a[:2]
    ah_sq_n = _gf4_mul_n_circuit(xag, _gf4_square_circuit(xag, ah))
    ah_al = _gf4_mul_circuit(xag, ah, al)
    al_sq = _gf4_square_circuit(xag, al)
    delta = [xag.create_xor(xag.create_xor(ah_sq_n[0], ah_al[0]), al_sq[0]),
             xag.create_xor(xag.create_xor(ah_sq_n[1], ah_al[1]), al_sq[1])]
    delta_inv = _gf4_square_circuit(xag, delta)
    hi = _gf4_mul_circuit(xag, ah, delta_inv)
    lo = _gf4_mul_circuit(xag, [xag.create_xor(ah[0], al[0]), xag.create_xor(ah[1], al[1])],
                          delta_inv)
    return lo + hi


def _gf16_mul_m_circuit(xag: Xag, a: Sequence[int]) -> List[int]:
    """Multiplication by the constant M (a linear map, derived in software)."""
    rows = [0] * 4
    for j in range(4):
        product = gf16_mul(GF16_M, 1 << j)
        for i in range(4):
            if (product >> i) & 1:
                rows[i] |= 1 << j
    return apply_linear_map(xag, list(a), rows)


def gf256_inverse_circuit(xag: Xag, bits: Sequence[int]) -> List[int]:
    """Inversion in the tower basis of GF(256) (~36 AND gates)."""
    al, ah = list(bits[:4]), list(bits[4:])
    ah_sq = _gf16_square_circuit(xag, ah)
    ah_sq_m = _gf16_mul_m_circuit(xag, ah_sq)
    ah_al = _gf16_mul_circuit(xag, ah, al)
    al_sq = _gf16_square_circuit(xag, al)
    delta = [xag.create_xor(xag.create_xor(ah_sq_m[i], ah_al[i]), al_sq[i]) for i in range(4)]
    delta_inv = _gf16_inverse_circuit(xag, delta)
    hi = _gf16_mul_circuit(xag, ah, delta_inv)
    lo = _gf16_mul_circuit(xag, [xag.create_xor(ah[i], al[i]) for i in range(4)], delta_inv)
    return lo + hi


def sbox_circuit(xag: Xag, byte: Sequence[int]) -> List[int]:
    """AES S-box on 8 literals (LSB first); returns 8 output literals."""
    tower = apply_linear_map(xag, list(byte), AES_TO_TOWER)
    inverse_tower = gf256_inverse_circuit(xag, tower)
    # combined output map: AES affine matrix composed with tower->AES
    combined = gf2.mat_mul(AFFINE_MATRIX, TOWER_TO_AES)
    result = apply_linear_map(xag, inverse_tower, combined)
    return [xag.create_not(bit) if (AFFINE_CONSTANT >> i) & 1 else bit
            for i, bit in enumerate(result)]


# ----------------------------------------------------------------------
# AES-128 data path
# ----------------------------------------------------------------------
RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime_matrix() -> List[int]:
    """Matrix of multiplication by 0x02 in the AES field (for MixColumns)."""
    rows = [0] * 8
    for j in range(8):
        product = AES_FIELD.multiply(2, 1 << j)
        for i in range(8):
            if (product >> i) & 1:
                rows[i] |= 1 << j
    return rows


XTIME_MATRIX = _xtime_matrix()


def _mix_single_column(xag: Xag, column: Sequence[Sequence[int]]) -> List[List[int]]:
    """MixColumns on one column of four bytes (XOR-only)."""
    def xtime(byte: Sequence[int]) -> List[int]:
        return apply_linear_map(xag, list(byte), XTIME_MATRIX)

    def xor_bytes(*operands: Sequence[int]) -> List[int]:
        result = list(operands[0])
        for other in operands[1:]:
            result = [xag.create_xor(x, y) for x, y in zip(result, other)]
        return result

    b0, b1, b2, b3 = column
    return [
        xor_bytes(xtime(b0), xtime(b1), b1, b2, b3),
        xor_bytes(b0, xtime(b1), xtime(b2), b2, b3),
        xor_bytes(b0, b1, xtime(b2), xtime(b3), b3),
        xor_bytes(xtime(b0), b0, b1, b2, xtime(b3)),
    ]


def _add_round_key(xag: Xag, state: List[List[int]], round_key: List[List[int]]) -> List[List[int]]:
    return [[xag.create_xor(s, k) for s, k in zip(sb, kb)] for sb, kb in zip(state, round_key)]


def _sub_bytes(xag: Xag, state: List[List[int]]) -> List[List[int]]:
    return [sbox_circuit(xag, byte) for byte in state]


def _shift_rows(state: List[List[int]]) -> List[List[int]]:
    # state is column-major: byte index = 4*col + row
    shifted = [None] * 16
    for col in range(4):
        for row in range(4):
            shifted[4 * col + row] = state[4 * ((col + row) % 4) + row]
    return shifted


def _mix_columns(xag: Xag, state: List[List[int]]) -> List[List[int]]:
    result: List[List[int]] = []
    for col in range(4):
        result.extend(_mix_single_column(xag, state[4 * col:4 * col + 4]))
    return result


def _key_schedule(xag: Xag, key_bytes: List[List[int]]) -> List[List[List[int]]]:
    """Expand a 16-byte key into 11 round keys (44 words of 4 bytes)."""
    words: List[List[List[int]]] = [key_bytes[4 * i:4 * i + 4] for i in range(4)]
    for i in range(4, 44):
        temp = [list(b) for b in words[i - 1]]
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]                      # RotWord
            temp = [sbox_circuit(xag, b) for b in temp]     # SubWord
            rcon = RCON[i // 4 - 1]
            temp[0] = [xag.create_not(bit) if (rcon >> k) & 1 else bit
                       for k, bit in enumerate(temp[0])]
        new_word = [[xag.create_xor(a, b) for a, b in zip(words[i - 4][j], temp[j])]
                    for j in range(4)]
        words.append(new_word)
    round_keys = []
    for round_index in range(11):
        round_key: List[List[int]] = []
        for word in words[4 * round_index:4 * round_index + 4]:
            round_key.extend(word)
        round_keys.append(round_key)
    return round_keys


def aes128(expanded_key_inputs: bool = False, num_rounds: int = 10) -> Xag:
    """AES-128 encryption circuit.

    With ``expanded_key_inputs`` the 11 round keys are primary inputs (the
    paper's "AES (Key Expansion)" row, 1536 inputs); otherwise the key
    schedule is part of the circuit (the "AES (No Key Expansion)" row, 256
    inputs).  ``num_rounds`` can be lowered for reduced-scale experiments (the
    result is then no longer standard AES).
    """
    xag = Xag()
    xag.name = "aes128" + ("_expanded_key" if expanded_key_inputs else "")
    plaintext_bits = W.input_word(xag, 128, "pt")
    state = [plaintext_bits[8 * i:8 * i + 8] for i in range(16)]

    if expanded_key_inputs:
        key_bits = W.input_word(xag, 128 * (num_rounds + 1), "rk")
        round_keys = []
        for round_index in range(num_rounds + 1):
            offset = 128 * round_index
            round_keys.append([key_bits[offset + 8 * i:offset + 8 * i + 8] for i in range(16)])
    else:
        key_bits = W.input_word(xag, 128, "key")
        key_bytes = [key_bits[8 * i:8 * i + 8] for i in range(16)]
        round_keys = _key_schedule(xag, key_bytes)[:num_rounds + 1]

    state = _add_round_key(xag, state, round_keys[0])
    for round_index in range(1, num_rounds + 1):
        state = _sub_bytes(xag, state)
        state = _shift_rows(state)
        if round_index != num_rounds:
            state = _mix_columns(xag, state)
        state = _add_round_key(xag, state, round_keys[round_index])

    for byte_index, byte in enumerate(state):
        for bit_index, bit in enumerate(byte):
            xag.create_po(bit, f"ct{8 * byte_index + bit_index}")
    return xag


def aes_sbox_only() -> Xag:
    """A single S-box as a standalone benchmark / unit-test circuit."""
    xag = Xag()
    xag.name = "aes_sbox"
    byte = W.input_word(xag, 8, "x")
    for index, bit in enumerate(sbox_circuit(xag, byte)):
        xag.create_po(bit, f"y{index}")
    return xag


# ----------------------------------------------------------------------
# software reference model (for validation)
# ----------------------------------------------------------------------
def aes128_encrypt_reference(plaintext: bytes, key: bytes) -> bytes:
    """Straightforward software AES-128 used to validate the circuit."""
    if len(plaintext) != 16 or len(key) != 16:
        raise ValueError("AES-128 operates on 16-byte blocks and keys")

    def sub_word(word: List[int]) -> List[int]:
        return [sbox_value(b) for b in word]

    expanded = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        temp = list(expanded[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = sub_word(temp)
            temp[0] ^= RCON[i // 4 - 1]
        expanded.append([a ^ b for a, b in zip(expanded[i - 4], temp)])

    state = list(plaintext)

    def add_round_key(state: List[int], round_index: int) -> List[int]:
        key_bytes = [b for word in expanded[4 * round_index:4 * round_index + 4] for b in word]
        return [s ^ k for s, k in zip(state, key_bytes)]

    def shift_rows(state: List[int]) -> List[int]:
        out = [0] * 16
        for col in range(4):
            for row in range(4):
                out[4 * col + row] = state[4 * ((col + row) % 4) + row]
        return out

    def mix_columns(state: List[int]) -> List[int]:
        out = []
        for col in range(4):
            a = state[4 * col:4 * col + 4]
            def xt(v: int) -> int:
                return AES_FIELD.multiply(v, 2)
            out.extend([
                xt(a[0]) ^ xt(a[1]) ^ a[1] ^ a[2] ^ a[3],
                a[0] ^ xt(a[1]) ^ xt(a[2]) ^ a[2] ^ a[3],
                a[0] ^ a[1] ^ xt(a[2]) ^ xt(a[3]) ^ a[3],
                xt(a[0]) ^ a[0] ^ a[1] ^ a[2] ^ xt(a[3]),
            ])
        return out

    state = add_round_key(state, 0)
    for round_index in range(1, 11):
        state = [sbox_value(b) for b in state]
        state = shift_rows(state)
        if round_index != 10:
            state = mix_columns(state)
        state = add_round_key(state, round_index)
    return bytes(state)
