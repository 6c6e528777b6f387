"""repro — multiplicative-complexity minimisation of XOR-AND graphs.

A from-scratch reproduction of *"Reducing the Multiplicative Complexity in
Logic Networks for Cryptography and Security Applications"* (Testa, Soeken,
Amarù, De Micheli — DAC 2019).

The package is organised in layers:

* :mod:`repro.tt`, :mod:`repro.gf2` — truth tables and GF(2) linear algebra;
* :mod:`repro.xag` — the XOR-AND graph data structure;
* :mod:`repro.affine` — affine classification (paper Section 2.2);
* :mod:`repro.mc` — MC-oriented synthesis and the representative database;
* :mod:`repro.cuts`, :mod:`repro.rewriting` — cut enumeration and the cut
  rewriting algorithm (paper Sections 3–4);
* :mod:`repro.circuits` — EPFL-style and MPC/FHE benchmark generators;
* :mod:`repro.io`, :mod:`repro.analysis` — interchange formats and reporting;
* :mod:`repro.engine` — batch orchestration over the benchmark registries
  with shared caches and per-stage timing (CLI: ``python -m repro.engine``).

Quick start::

    from repro import Xag, optimize

    xag = Xag()
    a, b, cin = xag.create_pis(3)
    xag.create_po(xag.create_xor_multi([a, b, cin]), "sum")
    xag.create_po(xag.create_maj_naive(a, b, cin), "cout")
    result = optimize(xag)
    print(result.final.num_ands)   # 1 — the multiplicative complexity of a full adder
"""

from repro.xag.graph import Xag
from repro.xag.bitsim import BitSimulator, SimulationCache
from repro.xag.equivalence import equivalent
from repro.xag.depth import depth, multiplicative_depth
from repro.cuts.cache import CutFunctionCache
from repro.mc.database import McDatabase
from repro.mc.synthesize import McSynthesizer
from repro.affine.classify import AffineClassifier
from repro.rewriting.pipeline import (PipelineResult, optimize, parse_flow,
                                      run_pipeline, standard_flow)
from repro.rewriting.rewrite import CutRewriter, RewriteParams

__version__ = "0.1.0"

__all__ = [
    "Xag",
    "BitSimulator",
    "SimulationCache",
    "CutFunctionCache",
    "equivalent",
    "depth",
    "multiplicative_depth",
    "McDatabase",
    "McSynthesizer",
    "AffineClassifier",
    "optimize",
    "PipelineResult",
    "parse_flow",
    "run_pipeline",
    "standard_flow",
    "CutRewriter",
    "RewriteParams",
    "__version__",
]
