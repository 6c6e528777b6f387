"""The kernel layer (:mod:`repro.kernels`) and the reference kernels.

Truth-table, classifier and packed-simulation kernels run on the
pure-Python reference only; each is checked here against its definition
(row-by-row remaps, the Walsh sum, the cache-free :func:`simulate_words`
oracle).  The one kernel with two backends, the batched cut-cone
simulation, must agree bit-exactly with the per-cone reference, and whole
optimisation runs must give the same (ANDs, depth, rounds) triples and
cache counters on both backends.

The numpy-specific tests skip cleanly when numpy is not installed (CI runs
a dedicated no-numpy leg).
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import gf2, kernels
from repro.affine.classify import AffineClassifier
from repro.affine.operations import apply_ops
from repro.cuts.cache import _simulate_cone
from repro.cuts.enumeration import cut_cone, enumerate_cuts
from repro.engine import EngineConfig
from repro.engine.core import run_batch, select_cases
from repro.rewriting import RewriteParams, optimize
from repro.testing import random_xag
from repro.tt.bits import random_table
from repro.tt.operations import (apply_input_transform, flip_variable,
                                 swap_variables, translate_rows)
from repro.tt.spectrum import table_from_spectrum, walsh_spectrum
from repro.xag import BitSimulator, equivalent, multiplicative_depth
from repro.xag.bitsim import SimulationCache
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.simulate import simulate_words

requires_numpy = pytest.mark.skipif(not kernels.numpy_available(),
                                    reason="numpy is not installed")


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ValueError):
        kernels.resolve_backend("fortran")
    assert kernels.resolve_backend("python") == "python"


def test_python_backend_is_always_available():
    assert "python" in kernels.available_backends()
    with kernels.use_backend("python") as backend:
        assert not backend.accelerated
        assert kernels.backend_name() == "python"


@requires_numpy
def test_auto_resolves_to_numpy_when_available():
    assert kernels.resolve_backend("auto") == "numpy"
    with kernels.use_backend("numpy") as backend:
        assert backend.accelerated
        assert kernels.backend_name() == "numpy"


def test_engine_import_and_backend_selection_load_no_numpy():
    """numpy is detected, not imported: importing the engine, resolving
    ``auto`` and activating the numpy backend leave it out of
    ``sys.modules`` (only a call of the numpy kernel imports it)."""
    code = textwrap.dedent("""
        import sys
        import repro.engine
        from repro import kernels
        backend = kernels.resolve_backend("auto")
        if kernels.numpy_available():
            with kernels.use_backend("numpy"):
                pass
        assert "numpy" not in sys.modules, sorted(sys.modules)
        print(backend)
    """)
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parent.parent)]
        + [path for path in [env.get("PYTHONPATH")] if path])
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == \
        ["numpy" if kernels.numpy_available() else "python"]


def test_auto_keeps_a_forced_backend():
    # "auto" means "don't change anything": a REPRO_BACKEND / set_backend
    # choice survives engine runs that pass the default backend="auto".
    with kernels.use_backend("python"):
        assert kernels.resolve_backend("auto") == "python"


# ----------------------------------------------------------------------
# truth-table kernels
# ----------------------------------------------------------------------
def _parity(value):
    return bin(value).count("1") & 1


def _remap_rows(table, num_vars, source_row):
    """``g(x) = f(source_row(x))``, one row at a time."""
    result = 0
    for row in range(1 << num_vars):
        if (table >> source_row(row)) & 1:
            result |= 1 << row
    return result


@pytest.mark.parametrize("num_vars", range(0, 9))
def test_walsh_spectrum_parity(num_vars):
    """The spectrum equals its defining sum, and inverts back to the table."""
    rng = random.Random(100 + num_vars)
    rows = range(1 << num_vars)
    for _ in range(10):
        table = random_table(num_vars, rng)
        spectrum = walsh_spectrum(table, num_vars)
        assert spectrum == [
            sum(1 - 2 * (((table >> x) & 1) ^ _parity(w & x)) for x in rows)
            for w in rows]
        assert table_from_spectrum(spectrum, num_vars) == table


@pytest.mark.parametrize("num_vars", [7, 8, 10])
def test_variable_op_parity(num_vars):
    """Flip, translate and swap on multi-word tables match a row remap."""
    rng = random.Random(200 + num_vars)
    for _ in range(10):
        table = random_table(num_vars, rng)
        var_a = rng.randrange(num_vars)
        var_b = rng.randrange(num_vars)
        delta = rng.randrange(1 << num_vars)

        def swapped(row):
            differ = ((row >> var_a) ^ (row >> var_b)) & 1
            return row ^ (differ << var_a) ^ (differ << var_b)

        assert flip_variable(table, var_a, num_vars) == _remap_rows(
            table, num_vars, lambda row: row ^ (1 << var_a))
        assert translate_rows(table, delta, num_vars) == _remap_rows(
            table, num_vars, lambda row: row ^ delta)
        assert swap_variables(table, var_a, var_b, num_vars) == _remap_rows(
            table, num_vars, swapped)


def _affine_row(matrix, offset, row):
    """``A x ^ b`` with ``A`` given as row masks (bit ``i`` = input ``i``)."""
    image = offset
    for i, mask in enumerate(matrix):
        image ^= _parity(mask & row) << i
    return image


@pytest.mark.parametrize("num_vars", [2, 3, 4, 5, 6])
def test_apply_input_transform_parity(num_vars):
    """``apply_input_transform`` is ``f(A x ^ b)`` row by row."""
    rng = random.Random(300 + num_vars)
    for _ in range(10):
        table = random_table(num_vars, rng)
        while True:
            matrix = [rng.randrange(1, 1 << num_vars)
                      for _ in range(num_vars)]
            if gf2.rank(list(matrix)) == num_vars:
                break
        offset = rng.randrange(1 << num_vars)
        assert apply_input_transform(table, matrix, offset, num_vars) == \
            _remap_rows(table, num_vars,
                        lambda row: _affine_row(matrix, offset, row))


# ----------------------------------------------------------------------
# batched cone simulation
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("cut_size", [6, 8])
def test_simulate_cones_matches_per_cone_reference(cut_size):
    """Bit-exact batched tables, also for cones wider than one word."""
    backend = kernels.set_backend("numpy")
    try:
        widest = 0
        for seed in range(6):
            xag = random_xag(random.Random(seed), num_pis=10, num_gates=50)
            requests = []
            expected = []
            for node, cuts in enumerate_cuts(xag, cut_size=cut_size).items():
                for cut in cuts:
                    interior = cut_cone(xag, cut.root, cut.leaves)
                    requests.append((cut.root, cut.leaves, interior))
                    expected.append(_simulate_cone(xag, cut.root, cut.leaves,
                                                   interior))
                    widest = max(widest, cut.size)
            assert backend.simulate_cones(xag, requests) == expected
        # the wide case must exercise cones beyond one 64-bit word
        assert (widest > 6) == (cut_size > 6)
    finally:
        kernels.set_backend("auto")


# ----------------------------------------------------------------------
# incremental simulator and equivalence against the cache-free oracle
# ----------------------------------------------------------------------
def _random_substitutions(xag, rng, count):
    """Apply ``count`` random acyclic substitutions; deterministic per rng."""
    applied = 0
    for _ in range(count * 4):
        if applied >= count:
            break
        gates = sorted(node for node in xag.topological_order()
                       if xag.is_gate(node))
        if not gates:
            break
        root = gates[rng.randrange(len(gates))]
        blocked = xag.transitive_fanout([root])
        blocked.add(root)
        pool = sorted(node for node in xag.topological_order()
                      if node not in blocked)
        if not pool:
            continue
        target = pool[rng.randrange(len(pool))]
        xag.substitute_node(root, (target << 1) | rng.randrange(2))
        applied += 1


@pytest.mark.parametrize("seed", range(8))
def test_bit_simulator_parity_under_mutations(seed):
    """Every step of a mutate/rollback script reads the PO words a fresh
    :func:`simulate_words` pass computes for the network at that step."""
    rng = random.Random(seed)
    xag = random_xag(random.Random(seed), num_pis=6, num_gates=40)
    words, mask, _ = equivalence_stimulus(xag.num_pis)
    sim = BitSimulator(xag, words, mask)

    def check_live_values():
        assert sim.po_words() == simulate_words(xag, words, mask)

    check_live_values()
    _random_substitutions(xag, rng, 3)
    check_live_values()

    # speculative growth: checkpoint, append, query, roll back
    checkpoint = xag.checkpoint()
    lits = [node << 1 for node in xag.pis()]
    xag.create_and(lits[0], xag.create_xor(lits[1], lits[2]))
    check_live_values()
    xag.rollback(checkpoint)
    check_live_values()

    _random_substitutions(xag, rng, 2)
    check_live_values()


def test_po_snapshot_matches_across_modes():
    """A snapshot equals the one-shot and the cached simulation's POs, and
    stops matching once an edit changes a PO."""
    xag = random_xag(random.Random(7), num_pis=5, num_gates=30)
    words, mask, _ = equivalence_stimulus(xag.num_pis)
    sim = BitSimulator(xag, words, mask)
    snapshot = sim.po_snapshot()
    assert snapshot == simulate_words(xag, words, mask)
    cached = SimulationCache().simulator(xag, words, mask)
    assert cached.po_matches(snapshot)
    assert sim.po_matches(snapshot)
    other = xag.clone()
    other._pos[0] ^= 1  # complement one PO: a guaranteed difference
    assert not BitSimulator(other, words, mask).po_matches(snapshot)


@pytest.mark.parametrize("mutate", [False, True])
def test_equivalence_verdict_parity(mutate):
    """Verdicts are right under the exhaustive proof and under packed
    random patterns."""
    for seed in range(5):
        xag = random_xag(random.Random(seed), num_pis=6, num_gates=40)
        other = xag.clone()
        if mutate:
            # flip one PO literal: a guaranteed functional difference
            other._pos[0] ^= 1
        for limit in (14, 0):  # exhaustive proof, then random patterns
            assert equivalent(xag, other, exhaustive_limit=limit) == \
                (not mutate)


# ----------------------------------------------------------------------
# affine classifier against the definition of its transform
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_vars", [3, 4, 5, 6])
def test_classifier_parity(num_vars):
    """``f(x) = r(A x ^ b) ^ <c, x> ^ d`` row by row, the op list maps ``f``
    to ``r``, and a fresh classifier repeats the result exactly."""
    rng = random.Random(400 + num_vars)
    tables = [random_table(num_vars, rng) for _ in range(40)]
    first = [AffineClassifier().classify(table, num_vars) for table in tables]
    classifier = AffineClassifier()
    for table, result in zip(tables, first):
        transform = result.from_representative
        rebuilt = 0
        for row in range(1 << num_vars):
            image = _affine_row(transform.matrix, transform.offset, row)
            bit = ((result.representative >> image) & 1) \
                ^ _parity(transform.output_linear & row) \
                ^ transform.output_const
            rebuilt |= bit << row
        assert rebuilt == table
        assert apply_ops(table, num_vars, result.ops) == result.representative
        again = classifier.classify(table, num_vars)
        assert (again.representative, again.ops, again.canonical) == \
            (result.representative, result.ops, result.canonical)


# ----------------------------------------------------------------------
# whole-flow parity on the EPFL control registry
# ----------------------------------------------------------------------
#: (ANDs, multiplicative depth, rounds) of ``optimize`` with
#: ``RewriteParams()`` defaults and ``max_rounds=3``, captured on the
#: python backend.  Both backends must reproduce these exactly.
CONTROL_PINS = {
    "arbiter": (133, 21, 1),
    "alu_ctrl": (30, 5, 2),
    "cavlc": (82, 12, 3),
    "decoder": (92, 3, 1),
    "i2c": (224, 10, 2),
    "int2float": (71, 15, 3),
    "mem_ctrl": (249, 10, 2),
    "priority": (196, 32, 3),
    "router": (61, 6, 2),
    "voter": (57, 5, 1),
}


def _control_triple(name, backend_name):
    case = select_cases(EngineConfig(suites=("epfl",), circuits=[name]))[0]
    with kernels.use_backend(backend_name):
        xag = case.build()
        result = optimize(xag, params=RewriteParams(), max_rounds=3)
        return (result.final.num_ands, multiplicative_depth(result.final),
                len(result.rounds))


@pytest.mark.parametrize("name", sorted(CONTROL_PINS))
def test_control_triples_pinned_python(name):
    assert _control_triple(name, "python") == CONTROL_PINS[name]


@requires_numpy
@pytest.mark.parametrize("name", sorted(CONTROL_PINS))
def test_control_triples_pinned_numpy(name):
    assert _control_triple(name, "numpy") == CONTROL_PINS[name]


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def test_run_batch_records_resolved_backend():
    config = EngineConfig(circuits=["router"], max_rounds=1,
                          backend="python")
    batch = run_batch(config)
    assert batch.backend == "python"
    assert "[python kernels]" in batch.render()


def test_run_batch_rejects_unknown_backend():
    with pytest.raises(ValueError):
        run_batch(EngineConfig(circuits=["router"], backend="fortran"))


@requires_numpy
def test_converged_batch_cache_counters_match_across_backends():
    """Converged runs must leave every cut-cache and database counter equal
    on both backends, not just the results.  Selection reads each cut's
    table from the cut merge, so the cone-function counters read 0; the
    plan and pruning counters guard against a vacuous run."""
    base = dict(suites=("epfl",), circuits=["decoder", "int2float"],
                max_rounds=None)
    python = run_batch(EngineConfig(**base, backend="python"))
    numpy = run_batch(EngineConfig(**base, backend="numpy"))
    for left, right in zip(python.reports, numpy.reports):
        assert left.error is None and right.error is None
        assert (left.ands_after, left.depth_after, len(left.rounds)) == \
            (right.ands_after, right.depth_after, len(right.rounds))
    assert python.cut_cache_stats["plan_misses"] > 0
    assert python.cut_cache_stats["plans_pruned"] > 0
    assert python.cut_cache_stats == numpy.cut_cache_stats
    assert python.database_stats == numpy.database_stats


@requires_numpy
def test_wide_cuts_give_the_same_result_on_both_backends():
    """7-leaf cuts: the numpy batch must not alias a 7th leaf with an
    interior slot, which yields 50 ANDs and a wrong network here."""
    base = dict(suites=("epfl",), circuits=["int2float"], cut_size=7,
                max_rounds=1, verify_limit=0)
    rows = []
    for backend in ("python", "numpy"):
        batch = run_batch(EngineConfig(**base, backend=backend))
        report = batch.reports[0]
        assert report.error is None
        rows.append((report.ands_after, report.xors_after, report.depth_after))
    assert rows[0] == rows[1]


@requires_numpy
def test_run_batch_auto_resolves_and_renders_numpy():
    batch = run_batch(EngineConfig(circuits=["router"], max_rounds=1,
                                   backend="auto"))
    assert batch.backend == "numpy"
    assert "[numpy kernels]" in batch.render()


def test_cli_rejects_unknown_backend_with_exit_2(capsys):
    from repro.engine.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--backend", "fortran", "--circuits", "router"])
    assert excinfo.value.code == 2


def test_cli_json_payload_records_backend(tmp_path):
    import json

    from repro.engine.cli import main

    path = tmp_path / "report.json"
    assert main(["--circuits", "router", "--rounds", "1",
                 "--backend", "python", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["config"]["backend"] == "python"
