"""Workload definitions and seeded input generation for the benchmark.

A workload is a fixed list of registry cases plus the engine settings it
runs under.  The engine never builds those cases itself: the benchmark
builds each one, optionally permutes it under the run's seed, and writes
it as a serialised-XAG JSON file into a fresh directory handed to the
engine through ``EngineConfig.corpus_dirs`` (with no registry suite
loaded), so the only netlists a timed run sees are the generated ones.

Seed 0 writes every circuit exactly as registered.  Any other seed writes
the same functions with a seeded primary-input order and a seeded valid
topological gate-creation order; primary outputs keep their order.  File
stems carry a two-digit position prefix, so the generated names can never
collide with a registry name and sorted file order is registry order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: registry cases plus engine settings."""

    name: str
    #: registry suite the cases are taken from.
    suite: str
    #: case names, in registry order.
    cases: Tuple[str, ...]
    #: engine cost model.
    objective: str
    #: engine worker processes (1 = in-process, sequential).
    jobs: int
    #: load a warm-start bundle built in set-up, save it to a per-run path.
    warm: bool = False


EPFL_CASES = (
    "adder", "barrel_shifter", "divisor", "log2", "max", "multiplier",
    "sine", "square_root", "square",
    "arbiter", "alu_ctrl", "cavlc", "decoder", "i2c", "int2float",
    "mem_ctrl", "priority", "router", "voter",
)

CRYPTO_CASES = ("md5", "sha1", "des", "sha256", "aes_128")

#: the arithmetic-sweep and control-sweep corpus minus divisor_16 and
#: square_root_32, which alone take over half of the serial time.
SWEEP_CASES = (
    "full_adder", "log2_8", "sine_8", "rotator_32", "max_8_2", "max_16_8",
    "adder_8", "adder_16", "adder_128", "subtractor_16", "subtractor_32",
    "multiplier_4", "square_4", "divisor_4", "multiplier_16", "square_16",
    "comparator_ult_16", "comparator_sleq_16", "barrel_shifter_16",
    "comparator_ult_64", "comparator_sleq_64", "barrel_shifter_64",
    "square_root_8",
    "decoder_4", "priority_16", "arbiter_8", "voter_31", "int2float_16",
)

WORKLOADS: Dict[str, Workload] = {
    "epfl-cold": Workload("epfl-cold", "epfl", EPFL_CASES, "mc", jobs=1),
    "crypto-warm": Workload("crypto-warm", "crypto", CRYPTO_CASES, "mc",
                            jobs=1, warm=True),
    "sweep-pool": Workload("sweep-pool", "corpus", SWEEP_CASES, "mc-depth",
                           jobs=2),
}


def file_stem(position: int, case: str) -> str:
    """Generated file stem (also the engine's case name for it)."""
    return f"p{position:02d}_{case}"


def case_of(stem: str) -> str:
    """Registry case name of a generated file stem."""
    return stem.split("_", 1)[1]


def permuted(xag, seed: int, case: str):
    """Copy of ``xag`` with seeded PI order and gate-creation order.

    The copy computes the same output functions (primary inputs keep their
    names, primary outputs their order); only node indices differ.  Seed 0
    returns ``xag`` itself.
    """
    if seed == 0:
        return xag
    from repro.xag.graph import Xag, lit_node

    rng = random.Random(f"{seed}:{case}")
    copy = Xag()
    copy.name = xag.name
    lit_of: Dict[int, int] = {0: 0}
    order = list(range(xag.num_pis))
    rng.shuffle(order)
    pis = xag.pis()
    for index in order:
        lit_of[pis[index]] = copy.create_pi(xag.pi_name(index))

    remaining: Dict[int, int] = {}
    dependents: Dict[int, List[int]] = {}
    ready: List[int] = []
    for gate in xag.topological_order():
        if not xag.is_gate(gate):
            continue
        f0, f1 = xag.fanins(gate)
        pending = {lit_node(f0), lit_node(f1)} - set(lit_of)
        remaining[gate] = len(pending)
        for dep in pending:
            dependents.setdefault(dep, []).append(gate)
        if not pending:
            ready.append(gate)
    while ready:
        gate = ready.pop(rng.randrange(len(ready)))
        f0, f1 = xag.fanins(gate)
        a = lit_of[lit_node(f0)] ^ (f0 & 1)
        b = lit_of[lit_node(f1)] ^ (f1 & 1)
        lit_of[gate] = (copy.create_and(a, b) if xag.is_and(gate)
                        else copy.create_xor(a, b))
        for waiter in dependents.pop(gate, []):
            remaining[waiter] -= 1
            if remaining[waiter] == 0:
                ready.append(waiter)
    for index, po in enumerate(xag.po_literals()):
        copy.create_po(lit_of[lit_node(po)] ^ (po & 1), xag.po_name(index))
    return copy


def registry_cases(workload: Workload) -> list:
    """The workload's registry cases, in workload order."""
    from repro.engine.core import available_cases

    by_name = {case.name: case for case in available_cases((workload.suite,))}
    return [by_name[name] for name in workload.cases]


def generate_inputs(workload: Workload, seed: int, directory: Path,
                    only: Optional[Sequence[str]] = None) -> str:
    """Write the workload's seeded netlists into ``directory``.

    ``only`` restricts generation to the named cases (tests use it).
    Returns a digest of every written file, so repeated set-ups can check
    that one seed always yields byte-identical inputs.
    """
    from repro.xag import serialize

    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for position, case in enumerate(registry_cases(workload)):
        if only is not None and case.name not in only:
            continue
        xag = permuted(case.build(), seed, case.name)
        path = directory / f"{file_stem(position, case.name)}.json"
        serialize.save(xag, path)
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
