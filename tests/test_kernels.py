"""Cross-backend parity of the kernel layer (:mod:`repro.kernels`).

Every test runs the same computation on the pure-Python reference backend
and on the numpy backend and requires bit-exact agreement — packed
simulation words, cone truth tables, classifier transforms, equivalence
verdicts and the (ANDs, depth, rounds) triples of whole optimisation runs.
The backends are allowed to differ in speed only.

The numpy-specific tests skip cleanly when numpy is not importable (CI runs
a dedicated no-numpy leg); the python reference paths are covered by the
rest of the suite either way.
"""

import random

import pytest

from repro import kernels
from repro.affine.classify import AffineClassifier
from repro.cuts.cache import _simulate_cone
from repro.cuts.enumeration import cut_cone, enumerate_cuts
from repro.engine import EngineConfig
from repro.engine.core import run_batch, select_cases
from repro.rewriting import RewriteParams, optimize
from repro.testing import random_xag
from repro.tt.bits import random_table, table_mask
from repro.tt.operations import (apply_input_transform, flip_variable,
                                 swap_variables, translate_rows)
from repro.tt.spectrum import table_from_spectrum, walsh_spectrum
from repro.xag import BitSimulator, Xag, equivalent, multiplicative_depth
from repro.xag.bitsim import SimulationCache
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.simulate import node_values

requires_numpy = pytest.mark.skipif(not kernels.numpy_available(),
                                    reason="numpy backend not importable")


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


def test_auto_keeps_a_forced_backend():
    # "auto" means "don't change anything": a REPRO_BACKEND / set_backend
    # choice survives engine runs that pass the default backend="auto".
    with kernels.use_backend("python"):
        assert kernels.resolve_backend("auto") == "python"


# ----------------------------------------------------------------------
# truth-table kernels
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("num_vars", range(0, 9))
def test_walsh_spectrum_parity(num_vars):
    rng = random.Random(100 + num_vars)
    numpy_backend = kernels.set_backend("numpy")
    try:
        for _ in range(10):
            table = random_table(num_vars, rng)
            with kernels.use_backend("python"):
                reference = walsh_spectrum(table, num_vars)
            assert numpy_backend.walsh_spectrum(table, num_vars) == reference
            # the inverse transform must round-trip on both backends
            assert numpy_backend.table_from_spectrum(reference,
                                                     num_vars) == table
            with kernels.use_backend("python"):
                assert table_from_spectrum(reference, num_vars) == table
    finally:
        kernels.set_backend("auto")


@requires_numpy
@pytest.mark.parametrize("num_vars", [7, 8, 10])
def test_variable_op_parity(num_vars):
    """Wide tables dispatch to the numpy word kernels; results must match."""
    rng = random.Random(200 + num_vars)
    for _ in range(10):
        table = random_table(num_vars, rng)
        var_a = rng.randrange(num_vars)
        var_b = rng.randrange(num_vars)
        delta = rng.randrange(1 << num_vars)
        with kernels.use_backend("python"):
            reference = (flip_variable(table, var_a, num_vars),
                         translate_rows(table, delta, num_vars),
                         swap_variables(table, var_a, var_b, num_vars))
        with kernels.use_backend("numpy"):
            accelerated = (flip_variable(table, var_a, num_vars),
                           translate_rows(table, delta, num_vars),
                           swap_variables(table, var_a, var_b, num_vars))
        assert accelerated == reference


@requires_numpy
@pytest.mark.parametrize("num_vars", [2, 3, 4, 5, 6])
def test_apply_input_transform_parity(num_vars):
    from repro import gf2

    rng = random.Random(300 + num_vars)
    backend = kernels.set_backend("numpy")
    try:
        for _ in range(10):
            table = random_table(num_vars, rng)
            while True:
                matrix = [rng.randrange(1, 1 << num_vars)
                          for _ in range(num_vars)]
                if gf2.rank(list(matrix)) == num_vars:
                    break
            offset = rng.randrange(1 << num_vars)
            with kernels.use_backend("python"):
                reference = apply_input_transform(table, matrix, offset,
                                                  num_vars)
            assert backend.apply_input_transform(table, matrix, offset,
                                                 num_vars) == reference
    finally:
        kernels.set_backend("auto")


# ----------------------------------------------------------------------
# batched cone simulation
# ----------------------------------------------------------------------
@requires_numpy
def test_simulate_cones_matches_per_cone_reference():
    backend = kernels.set_backend("numpy")
    try:
        for seed in range(6):
            xag = random_xag(random.Random(seed), num_pis=6, num_gates=50)
            requests = []
            expected = []
            for node, cuts in enumerate_cuts(xag).items():
                for cut in cuts:
                    interior = cut_cone(xag, cut.root, cut.leaves)
                    requests.append((cut.root, cut.leaves, interior))
                    expected.append(_simulate_cone(xag, cut.root, cut.leaves,
                                                   interior))
            assert backend.simulate_cones(xag, requests) == expected
    finally:
        kernels.set_backend("auto")


# ----------------------------------------------------------------------
# incremental simulator: python words vs numpy store
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


def _simulator_trace(backend_name, seed):
    """Packed words + counters after a scripted mutate/rollback sequence."""
    with kernels.use_backend(backend_name):
        rng = random.Random(seed)
        xag = random_xag(random.Random(seed), num_pis=6, num_gates=40)
        words, mask, _ = equivalence_stimulus(xag.num_pis)
        sim = BitSimulator(xag, words, mask)
        trace = [sim.po_words()]

        _random_substitutions(xag, rng, 3)
        trace.append(sim.po_words())

        # speculative growth: checkpoint, append, query, roll back
        checkpoint = xag.checkpoint()
        lits = [node << 1 for node in xag.pis()]
        extra = xag.create_and(lits[0], xag.create_xor(lits[1], lits[2]))
        trace.append(sim.literal_value(extra))
        xag.rollback(checkpoint)
        trace.append(sim.po_words())

        _random_substitutions(xag, rng, 2)
        live = [node for node in xag.topological_order()]
        values = sim.values()
        trace.append([values[node] for node in live])
        reference = node_values(xag, words, mask)
        assert [values[node] for node in live] == \
            [reference[node] for node in live]
        trace.append((sim.full_updates, sim.incremental_updates))
    return trace


@requires_numpy
@pytest.mark.parametrize("seed", range(8))
def test_bit_simulator_parity_under_mutations(seed):
    """Words, PO values and update counters match across backends."""
    assert _simulator_trace("python", seed) == _simulator_trace("numpy", seed)


@requires_numpy
def test_po_snapshot_matches_across_modes():
    xag = random_xag(random.Random(7), num_pis=5, num_gates=30)
    words, mask, _ = equivalence_stimulus(xag.num_pis)
    with kernels.use_backend("numpy"):
        sim = BitSimulator(xag, words, mask)
        snapshot = sim.po_snapshot()
        assert sim.po_matrix() is not None
        assert sim.po_matches(snapshot)
        assert sim.po_matches(sim.po_words())  # list snapshots also accepted
    with kernels.use_backend("python"):
        sim = BitSimulator(xag, words, mask)
        assert sim.po_matrix() is None
        assert sim.po_matches(sim.po_snapshot())


@requires_numpy
@pytest.mark.parametrize("mutate", [False, True])
def test_equivalence_verdict_parity(mutate):
    for seed in range(5):
        xag = random_xag(random.Random(seed), num_pis=6, num_gates=40)
        other = xag.clone()
        if mutate:
            # flip one PO literal: a guaranteed functional difference
            other._pos[0] ^= 1
        verdicts = {}
        for name in ("python", "numpy"):
            with kernels.use_backend(name):
                verdicts[name] = (
                    equivalent(xag, other),
                    equivalent(xag, other, sim_cache=SimulationCache()),
                )
        assert verdicts["python"] == verdicts["numpy"]
        assert verdicts["python"][0] == (not mutate)


# ----------------------------------------------------------------------
# affine classifier parity
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("num_vars", [3, 4, 5, 6])
def test_classifier_parity(num_vars):
    rng = random.Random(400 + num_vars)
    tables = [random_table(num_vars, rng) for _ in range(40)]
    results = {}
    for name in ("python", "numpy"):
        with kernels.use_backend(name):
            classifier = AffineClassifier()
            results[name] = [classifier.classify(table, num_vars)
                             for table in tables]
    for left, right in zip(results["python"], results["numpy"]):
        assert left.representative == right.representative
        assert left.canonical == right.canonical
        assert left.ops == right.ops
        assert left.from_representative.matrix == \
            right.from_representative.matrix
        assert left.from_representative.offset == \
            right.from_representative.offset
        assert left.from_representative.output_linear == \
            right.from_representative.output_linear
        assert left.from_representative.output_const == \
            right.from_representative.output_const
        assert right.verify()


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
    """The numpy backend simulates a drain's missing cones in one batch and
    installs them with one miss each: converged runs must leave every
    cut-cache and database counter equal to the per-cone python path, not
    just the results."""
    base = dict(suites=("epfl",), circuits=["decoder", "int2float"],
                max_rounds=None)
    python = run_batch(EngineConfig(**base, backend="python"))
    numpy = run_batch(EngineConfig(**base, backend="numpy"))
    for left, right in zip(python.reports, numpy.reports):
        assert left.error is None and right.error is None
        assert (left.ands_after, left.depth_after, len(left.rounds)) == \
            (right.ands_after, right.depth_after, len(right.rounds))
    assert python.cut_cache_stats["function_misses"] > 0
    assert python.cut_cache_stats == numpy.cut_cache_stats
    assert python.database_stats == numpy.database_stats


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
