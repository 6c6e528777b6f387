"""Shared testing utilities: generators, oracles and the differential harness.

This package is the single source of truth for the random-circuit
generators and equivalence assertions used by the test suite (they used to
be duplicated in ``tests/helpers.py``), plus the continuous differential
harness (``python -m repro.testing.diff``) that cross-checks runs with
shared and with fresh caches on seeded random XAGs.
"""

from repro.testing.generate import full_adder_naive, random_xag, seeded_xag
from repro.testing.oracle import (assert_equivalent, find_counterexample,
                                  merge_entries, reference_stimulus,
                                  reference_words)
from repro.testing.shrink import shrink_xag

#: re-exported lazily so ``python -m repro.testing.diff`` does not import
#: the module twice (once through the package, once as ``__main__``).
_DIFF_EXPORTS = ("DiffConfig", "DiffReport", "SeedOutcome", "check_modes",
                 "run_diff", "load_reproducer", "replay_reproducer",
                 "write_reproducer", "generator_knobs", "DEFAULT_FLOWS")


def __getattr__(name: str):
    if name in _DIFF_EXPORTS:
        from repro.testing import diff
        return getattr(diff, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "random_xag",
    "seeded_xag",
    "full_adder_naive",
    "assert_equivalent",
    "find_counterexample",
    "merge_entries",
    "reference_stimulus",
    "reference_words",
    "shrink_xag",
    *_DIFF_EXPORTS,
]
