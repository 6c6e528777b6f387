"""Lower bounds on multiplicative complexity.

These are used to (i) prove optimality of the exact synthesis tiers in tests
and (ii) report the optimality gap of the heuristic tier in the ablation
benchmarks.  The bounds implemented here are classical:

* an affine function needs 0 AND gates;
* ``MC(f) >= deg(f) - 1`` — every AND gate can raise the algebraic degree by
  at most one (Schnorr);
* for degree-2 functions ``MC(f)`` equals half the rank of the associated
  symplectic form (Dickson), which we can evaluate exactly.
"""

from __future__ import annotations

from repro.mc.dickson import quadratic_form_from_anf, symplectic_rank
from repro.tt.anf import degree_from_anf, to_anf


def lower_bound(table: int, num_vars: int) -> int:
    """Best available lower bound on the multiplicative complexity."""
    return lower_bound_from_anf(to_anf(table, num_vars), num_vars)


def lower_bound_from_anf(anf: int, num_vars: int) -> int:
    """:func:`lower_bound` of the function with ANF coefficients ``anf``.

    One algebraic normal form serves all three bounds: degree at most 1 is
    affine, degree 2 takes Dickson's rank, higher degrees ``deg - 1``.
    """
    top = degree_from_anf(anf, num_vars)
    if top <= 1:
        return 0
    if top == 2:
        form = quadratic_form_from_anf(anf, num_vars)
        assert form is not None
        return symplectic_rank(form[0]) // 2
    return top - 1


def is_provably_optimal(table: int, num_vars: int, achieved_ands: int) -> bool:
    """True when ``achieved_ands`` matches a known lower bound."""
    return achieved_ands == lower_bound(table, num_vars)
