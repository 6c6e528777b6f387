"""Tests for affine operations, transforms, classification and the cache.

:func:`reference_spectral_classify` is the oracle of the spectral greedy:
its state is a signed permutation of the original spectrum whose truth
table is materialised by an inverse Walsh transform, and a position's
candidates are listed and tie-searched element by element.  The shipped
classifier must return exactly what it returns.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import gf2
from repro.affine import (
    AffineClassifier,
    AffineOp,
    AffineTransform,
    Classification,
    ClassificationCache,
    apply_ops,
)
from repro.affine import classify as classify_module
from repro.tt import bits, random_table
from repro.tt.anf import degree, from_anf
from repro.tt.spectrum import (spectrum_signature, table_from_spectrum,
                               walsh_spectrum)

OP_KINDS = ["swap", "flip_input", "flip_output", "translate", "xor_output"]


def random_op(rng: random.Random, num_vars: int) -> AffineOp:
    kind = rng.choice(OP_KINDS)
    a = rng.randrange(num_vars)
    b = rng.randrange(num_vars)
    while b == a and num_vars > 1:
        b = rng.randrange(num_vars)
    return AffineOp(kind, a, b)


# ----------------------------------------------------------------------
# elementary operations
# ----------------------------------------------------------------------
def test_ops_are_involutions():
    rng = random.Random(1)
    for _ in range(40):
        num_vars = rng.randint(2, 6)
        table = random_table(num_vars, rng)
        op = random_op(rng, num_vars)
        assert op.apply_to_table(op.apply_to_table(table, num_vars), num_vars) == table


def test_ops_preserve_spectrum_signature():
    rng = random.Random(2)
    for _ in range(30):
        num_vars = rng.randint(2, 5)
        table = random_table(num_vars, rng)
        op = random_op(rng, num_vars)
        assert spectrum_signature(op.apply_to_table(table, num_vars), num_vars) == \
            spectrum_signature(table, num_vars)


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        AffineOp("rotate", 0, 1).apply_to_table(0b1000, 2)
    transform = AffineTransform.identity(2)
    with pytest.raises(ValueError):
        transform.apply_op(AffineOp("rotate", 0, 1))


def test_op_str_rendering():
    assert "x0" in str(AffineOp("flip_input", 0))
    assert "<->" in str(AffineOp("swap", 0, 1))
    assert str(AffineOp("flip_output"))


def test_example_2_3_of_the_paper():
    """<x1 x2 x3> is affine-equivalent to the 2-input AND (paper Example 2.3)."""
    majority = 0xE8
    and_gate = 0x88  # x0 & x1 as a 3-variable function (x2 is a don't care)
    ops = [
        AffineOp("flip_input", 1),
        AffineOp("translate", 1, 2),
        AffineOp("translate", 0, 1),
        AffineOp("xor_output", 0),
    ]
    assert apply_ops(and_gate, 3, ops) == majority


# ----------------------------------------------------------------------
# composite transform
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(min_value=0, max_value=2**30))
def test_transform_tracks_op_sequences(num_vars, seed):
    rnd = random.Random(seed)
    table = random_table(num_vars, rnd)
    transform = AffineTransform.identity(num_vars)
    current = table
    for _ in range(8):
        op = random_op(rnd, num_vars)
        current = op.apply_to_table(current, num_vars)
        transform.apply_op(op)
    assert transform.apply_to_table(table) == current
    inverse = transform.inverse()
    assert inverse.apply_to_table(current) == table
    # decomposition into elementary ops reproduces the same function
    assert apply_ops(table, num_vars, transform.to_ops()) == current


def test_identity_transform():
    transform = AffineTransform.identity(4)
    assert transform.is_identity()
    assert transform.to_ops() == []
    table = 0xBEEF
    assert transform.apply_to_table(table) == table


def test_transform_copy_is_independent():
    transform = AffineTransform.identity(3)
    clone = transform.copy()
    clone.apply_op(AffineOp("flip_output"))
    assert transform.is_identity()
    assert not clone.is_identity()


def test_inverse_of_singular_matrix_rejected():
    transform = AffineTransform(2, matrix=[1, 1])
    with pytest.raises(ValueError):
        transform.inverse()


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def test_three_variable_classification_is_exact():
    """All 256 3-variable functions collapse into exactly 3 affine classes."""
    classifier = AffineClassifier()
    representatives = {classifier.classify(table, 3).representative for table in range(256)}
    assert len(representatives) == 3


def test_two_variable_classification_is_exact():
    classifier = AffineClassifier()
    representatives = {classifier.classify(table, 2).representative for table in range(16)}
    assert len(representatives) == 2  # affine functions and the AND class


def test_exhaustive_search_stops_at_the_class_minimum(monkeypatch):
    """Stopping the exhaustive search at the known class minimum returns
    what the full search returns — same representative, ops and transform —
    on every one of the 278 tables with at most three variables."""
    from repro.affine import classify as classify_module

    tables = [(table, num_vars) for num_vars in range(4)
              for table in range(1 << (1 << num_vars))]
    assert len(tables) == 278
    early = AffineClassifier()
    stopped = [early.classify(table, num_vars) for table, num_vars in tables]
    monkeypatch.setattr(classify_module, "_class_minimum",
                        lambda table, num_vars: None)
    full = AffineClassifier()
    for (table, num_vars), result in zip(tables, stopped):
        reference = full.classify(table, num_vars)
        assert result.representative == reference.representative
        assert result.ops == reference.ops
        assert result.from_representative.to_dict() == \
            reference.from_representative.to_dict()
        # the representative is the minimum the degree predicts
        assert result.representative == \
            classify_module._CLASS_MINIMA[num_vars][degree(table, num_vars)]


def test_classification_transform_is_always_valid():
    classifier = AffineClassifier()
    rng = random.Random(3)
    for _ in range(25):
        num_vars = rng.randint(2, 6)
        table = random_table(num_vars, rng)
        result = classifier.classify(table, num_vars)
        assert result.verify()
        assert apply_ops(table, num_vars, result.ops) == result.representative
        assert spectrum_signature(result.representative, num_vars) == \
            spectrum_signature(table, num_vars)


def test_classification_of_named_functions():
    classifier = AffineClassifier()
    majority = classifier.classify(0xE8, 3)
    and2 = classifier.classify(0x88, 3)
    assert majority.representative == and2.representative
    assert majority.method == "exhaustive"


def test_spectral_classification_of_degree_two_functions():
    """Equivalent degree-2 functions keep their invariants through classification.

    The greedy spectral canonisation is not guaranteed to be perfectly
    canonical in the presence of spectrum ties (bent functions are the extreme
    case), so the hard guarantees checked here are the ones the rewriting
    algorithm relies on: the transform is valid, the spectrum signature is
    preserved, and the representative has the same multiplicative complexity.
    """
    from repro.mc import McSynthesizer
    from repro.tt.anf import from_anf

    classifier = AffineClassifier()
    synthesizer = McSynthesizer()
    inner_product = from_anf((1 << 0b0011) | (1 << 0b1100), 4)
    rotated = from_anf((1 << 0b0101) | (1 << 0b1010), 4)
    first = classifier.classify(inner_product, 4)
    second = classifier.classify(rotated, 4)
    assert spectrum_signature(first.representative, 4) == \
        spectrum_signature(second.representative, 4)
    assert synthesizer.upper_bound(first.representative, 4) == \
        synthesizer.upper_bound(second.representative, 4) == 2


def test_classifier_rejects_negative_arity():
    with pytest.raises(ValueError):
        AffineClassifier().classify(0, -1)


def test_classification_constant_functions():
    classifier = AffineClassifier()
    zero = classifier.classify(0, 4)
    one = classifier.classify(bits.table_mask(4), 4)
    assert zero.representative == one.representative == 0


# ----------------------------------------------------------------------
# the spectral greedy against its inverse-Walsh reference
# ----------------------------------------------------------------------
class _ReferenceState:
    """Spectral state as the view ``W(w) = sign * (-1)^{<linear_sign, w>} *
    spectrum[perm[w]]`` over the original spectrum; :meth:`table` runs an
    inverse Walsh transform."""

    def __init__(self, num_vars, spectrum, magnitudes, perm, sign,
                 linear_sign, ops):
        self.num_vars = num_vars
        self.size = len(spectrum)
        self.spectrum = spectrum
        self.magnitudes = magnitudes
        self.perm = perm
        self.sign = sign
        self.linear_sign = linear_sign
        self.ops = ops

    @classmethod
    def initial(cls, num_vars, spectrum, magnitudes):
        return cls(num_vars, spectrum, magnitudes, list(range(len(spectrum))),
                   1, 0, [])

    def copy(self):
        return _ReferenceState(self.num_vars, self.spectrum, self.magnitudes,
                               list(self.perm), self.sign, self.linear_sign,
                               list(self.ops))

    def coefficient(self, w):
        value = self.sign * self.spectrum[self.perm[w]]
        return -value if bin(self.linear_sign & w).count("1") & 1 else value

    def xor_output(self, var):
        mask = 1 << var
        self.perm = [self.perm[w ^ mask] for w in range(self.size)]
        if (self.linear_sign >> var) & 1:
            self.sign = -self.sign
        self.ops.append(AffineOp("xor_output", var))

    def flip_output(self):
        self.sign = -self.sign
        self.ops.append(AffineOp("flip_output"))

    def flip_input(self, var):
        self.linear_sign ^= 1 << var
        self.ops.append(AffineOp("flip_input", var))

    def apply_placement(self, source, position):
        ops, mperm, minv = _reference_placement(source, position,
                                                self.num_vars)
        self.perm = [self.perm[m] for m in mperm]
        self.linear_sign = gf2.mat_vec(minv, self.linear_sign)
        self.ops.extend(ops)

    def tied_best(self, candidates):
        """Candidates of maximal magnitude, in candidate order."""
        best = max(self.magnitudes[self.perm[w]] for w in candidates)
        return [w for w in candidates
                if self.magnitudes[self.perm[w]] == best]

    def table(self):
        return table_from_spectrum(
            [self.coefficient(w) for w in range(self.size)], self.num_vars)


@functools.lru_cache(maxsize=None)
def _reference_placement(source, position, num_vars):
    """(ops, spectral index permutation, inverse matrix) of ``x -> M x``."""
    rows = classify_module._placement_matrix_rows(source, position, num_vars)
    minv = gf2.inverse(rows)
    minv_t = gf2.transpose(minv)
    mperm = tuple(gf2.mat_vec(minv_t, w) for w in range(1 << num_vars))
    return classify_module._matrix_to_ops(rows), mperm, tuple(minv)


def _position_candidates(size, position):
    """Spectral indices reachable for ``position``, in index order."""
    return [w for w in range(1, size) if (w >> position) != 0]


def reference_spectral_classify(table, num_vars, exhaustive_limit=3,
                                iteration_limit=64):
    """``AffineClassifier(exhaustive_limit, iteration_limit).classify`` with
    the spectral greedy run over :class:`_ReferenceState`."""
    table &= bits.table_mask(num_vars)
    if num_vars <= exhaustive_limit:
        return AffineClassifier(exhaustive_limit, iteration_limit) \
            ._classify_exhaustive(table, num_vars)
    budget = [iteration_limit]
    best = [None]
    size = 1 << num_vars

    def consider(state):
        candidate = state.table()
        if best[0] is None or candidate < best[0][0]:
            best[0] = (candidate, list(state.ops))

    def place(state, source, position):
        state.apply_placement(source, position)
        if state.coefficient(1 << position) < 0:
            state.flip_input(position)

    def finish_greedily(state, start_position):
        for position in range(start_position, num_vars):
            candidates = _position_candidates(size, position)
            place(state, state.tied_best(candidates)[0], position)

    def greedy_pass(state, zero_target, allow_branching):
        budget[0] -= 1
        for var in range(num_vars):
            if (zero_target >> var) & 1:
                state.xor_output(var)
        if state.coefficient(0) < 0:
            state.flip_output()
        for position in range(num_vars):
            tied = state.tied_best(_position_candidates(size, position))
            if allow_branching:
                for alternative in tied[1:]:
                    if budget[0] <= 0:
                        break
                    budget[0] -= 1
                    branch = state.copy()
                    place(branch, alternative, position)
                    finish_greedily(branch, position + 1)
                    consider(branch)
            place(state, tied[0], position)
        consider(state)

    spectrum = walsh_spectrum(table, num_vars)
    magnitudes = [abs(value) for value in spectrum]
    top = max(magnitudes)
    zero_targets = [w for w in range(size) if magnitudes[w] == top]
    for index, target in enumerate(zero_targets):
        if index > 0 and (budget[0] <= 0
                          or best[0] is not None and index >= 4):
            break
        greedy_pass(_ReferenceState.initial(num_vars, spectrum, magnitudes),
                    target, allow_branching=(index == 0))
    representative, ops = best[0]
    forward = AffineTransform.identity(num_vars)
    for op in ops:
        forward.apply_op(op)
    return Classification(table=table, num_vars=num_vars,
                          representative=representative,
                          from_representative=forward.inverse(), ops=ops,
                          method="spectral", canonical=budget[0] > 0)


def classification_key(result):
    """Everything a classification hands its callers."""
    transform = result.from_representative
    return (result.representative, result.ops, transform.matrix,
            transform.offset, transform.output_linear,
            transform.output_const, result.canonical, result.method)


def _sparse_anf_table(num_vars, rng):
    """A function of a few low-degree monomials: spectra full of ties."""
    monomials = [m for m in range(1 << num_vars) if bin(m).count("1") <= 3]
    chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 5)))
    return from_anf(sum(1 << m for m in chosen), num_vars)


def _assert_matches_reference(tables, exhaustive_limit=3, iteration_limit=64):
    classifier = AffineClassifier(exhaustive_limit, iteration_limit)
    results = []
    for table, num_vars in tables:
        result = classifier.classify(table, num_vars)
        assert classification_key(result) == classification_key(
            reference_spectral_classify(table, num_vars, exhaustive_limit,
                                        iteration_limit)), (table, num_vars)
        results.append(result)
    return results


@pytest.mark.parametrize("num_vars", [4, 5, 6])
def test_spectral_classifier_matches_inverse_walsh_reference(num_vars):
    rng = random.Random(4000 + num_vars)
    tables = [(random_table(num_vars, rng), num_vars) for _ in range(200)]
    tables += [(_sparse_anf_table(num_vars, rng), num_vars)
               for _ in range(100)]
    results = _assert_matches_reference(tables)
    assert {result.method for result in results} == {"spectral"}


@pytest.mark.parametrize("num_vars, exhaustive_limit",
                         [(0, -1), (0, 0), (1, 0), (2, 0), (3, 0), (7, 0)])
def test_spectral_classifier_matches_reference_on_small_and_wide_tables(
        num_vars, exhaustive_limit):
    if num_vars <= 3:
        tables = [(table, num_vars) for table in range(1 << (1 << num_vars))]
    else:
        rng = random.Random(4700)
        tables = [(random_table(num_vars, rng), num_vars) for _ in range(12)]
        tables += [(_sparse_anf_table(num_vars, rng), num_vars)
                   for _ in range(12)]
    _assert_matches_reference(tables, exhaustive_limit=exhaustive_limit)


def test_spectral_classifier_matches_reference_on_named_functions():
    inner_product = from_anf((1 << 0b0011) | (1 << 0b1100), 4)
    bent6 = from_anf((1 << 0b000011) | (1 << 0b001100) | (1 << 0b110000), 6)
    tables = [
        (0xE8, 3), (0x88, 3), (0x96, 3),              # MAJ, AND, parity
        (inner_product, 4), (bent6, 6),
        (from_anf(1 << 0b1111, 4), 4),                # 4-input AND
        (from_anf(1 << 0b111111, 6), 6),              # 6-input AND
        (from_anf((1 << 0b0111) | (1 << 0b1011) | (1 << 0b1101)
                  | (1 << 0b1110), 4), 4),            # symmetric cubic
        (0, 5), (bits.table_mask(5), 5), (bits.projection(2, 5), 5),
    ]
    for exhaustive_limit in (0, 3):
        _assert_matches_reference(tables, exhaustive_limit=exhaustive_limit)


@pytest.mark.parametrize("iteration_limit", [1, 2])
def test_spectral_classifier_matches_reference_when_the_budget_runs_out(
        iteration_limit):
    rng = random.Random(4800 + iteration_limit)
    tables = [(_sparse_anf_table(num_vars, rng), num_vars)
              for num_vars in (4, 5, 6) for _ in range(40)]
    tables += [(random_table(num_vars, rng), num_vars)
               for num_vars in (4, 5, 6) for _ in range(20)]
    results = _assert_matches_reference(tables,
                                        iteration_limit=iteration_limit)
    assert not any(result.canonical for result in results)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << (1 << n)) - 1),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63),
                       st.integers(0, 63)), max_size=10))))
def test_spectral_state_table_is_its_spectral_view(case):
    """After every op the carried table is the inverse Walsh transform of
    the state's signed spectral view, and what the ops make of the table."""
    num_vars, table, steps = case
    size = 1 << num_vars
    spectrum = walsh_spectrum(table, num_vars)
    magnitudes = [abs(value) for value in spectrum]
    state = classify_module._State.initial(num_vars, table, spectrum,
                                           magnitudes)
    reference = _ReferenceState.initial(num_vars, spectrum, magnitudes)
    for kind, a, b in steps:
        if kind == 0:
            ops = ("flip_output",)
        elif not num_vars:
            continue
        elif kind == 1:
            ops = ("xor_output", a % num_vars)
        elif kind == 2:
            ops = ("flip_input", a % num_vars)
        else:
            position = a % num_vars
            ops = ("apply_placement",
                   (1 << position) + b % (size - (1 << position)), position)
        for target in (state, reference):
            getattr(target, ops[0])(*ops[1:])
        view = [state.coefficient(w) for w in range(size)]
        assert state.table == table_from_spectrum(view, num_vars)
        assert list(state.magnitudes) == [abs(value) for value in view]
        assert state.table == apply_ops(table, num_vars, state.ops)
        assert state.table == reference.table()
        assert state.ops == reference.ops


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def test_transform_dict_round_trip():
    rng = random.Random(7)
    for num_vars in (2, 3, 4, 6):
        transform = AffineTransform(num_vars)
        for _ in range(8):
            kind = rng.choice(OP_KINDS)
            a, b = rng.sample(range(num_vars), 2) if num_vars >= 2 else (0, 0)
            transform.apply_op(AffineOp(kind, a, b))
        rebuilt = AffineTransform.from_dict(transform.to_dict())
        table = random_table(num_vars, rng)
        assert rebuilt.apply_to_table(table) == transform.apply_to_table(table)
        assert rebuilt.num_vars == transform.num_vars


def test_transform_from_dict_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        AffineTransform.from_dict({"num_vars": 2})          # missing keys
    with pytest.raises(ValueError):
        AffineTransform.from_dict({"num_vars": 3, "matrix": [1, 2], "offset": 0,
                                   "output_linear": 0, "output_const": 0})


def test_classification_cache_payload_round_trip():
    cache = ClassificationCache()
    rng = random.Random(11)
    for _ in range(6):
        num_vars = rng.randint(2, 4)
        cache.classify(random_table(num_vars, rng), num_vars)

    restored = ClassificationCache()
    installed = restored.install_payload(cache.to_payload())
    assert installed == len(cache)
    for key, entry in cache._entries.items():
        twin = restored.peek(*key)
        assert twin is not None
        assert twin.representative == entry.representative
        assert twin.verify()
        # the elementary-op view is rebuilt from the stored closed form
        assert apply_ops(twin.table, twin.num_vars, twin.ops) == twin.representative
    # peek never touches the statistics
    assert restored.hits == 0 and restored.misses == 0


def test_classification_cache_install_rejects_corrupt_entry():
    cache = ClassificationCache()
    cache.classify(0xE8, 3)
    payload = cache.to_payload()
    payload[0]["table"] ^= 0x55
    with pytest.raises(ValueError, match="corrupt"):
        ClassificationCache().install_payload(payload)


def test_classification_cache_hits():
    cache = ClassificationCache()
    table = 0xE8
    first = cache.classify(table, 3)
    second = cache.classify(table, 3)
    assert first is second
    assert cache.hits == 1
    assert cache.misses == 1
    assert cache.hit_rate == 0.5
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.hit_rate == 0.0
