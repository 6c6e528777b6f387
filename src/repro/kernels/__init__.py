"""Kernel backends: where the batched cut-cone simulation runs.

Truth tables, affine classification and packed verification run on the
pure-Python big-int reference (:mod:`repro.tt`, :mod:`repro.affine`,
:mod:`repro.xag`) on every backend.  One kernel is pluggable: the batched
simulation of a drain round's missing cut cones in
:meth:`repro.rewriting.rewrite.CutRewriter._select_candidates`.

* the **python** backend simulates each cone with the per-cone big-int
  reference (:func:`repro.cuts.cache._simulate_cone`);
* the **numpy** backend evaluates every missing cone of a round in one
  level-ordered ``uint64`` sweep
  (:meth:`repro.kernels.numpy_backend.NumpyBackend.simulate_cones`).

The two backends are *bit-exact*: the optimisation results — AND counts,
depths, round trajectories, equivalence verdicts and cache counters — are
identical and only the wall time changes.

Selection: ``auto`` (the default) picks numpy when it is importable and
falls back to python otherwise.  The choice can be forced through
:func:`set_backend`, the :envvar:`REPRO_BACKEND` environment variable,
``EngineConfig.backend`` or the engine's ``--backend`` flag.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple


class KernelBackend:
    """Pure-Python reference backend (also the base class).

    ``accelerated`` is the flag candidate selection checks before it
    batches the round's missing cones through ``simulate_cones``: the
    python backend leaves it ``False``, so each cone is simulated by the
    per-cone reference when it is first read.
    """

    name = "python"
    accelerated = False


BACKEND_CHOICES: Tuple[str, ...] = ("auto", "python", "numpy")

_NUMPY_BACKEND: Optional[KernelBackend] = None
_NUMPY_ERROR: Optional[str] = None


def numpy_available() -> bool:
    """True when the numpy backend can be constructed in this process."""
    return _load_numpy_backend() is not None


def _load_numpy_backend() -> Optional[KernelBackend]:
    global _NUMPY_BACKEND, _NUMPY_ERROR
    if _NUMPY_BACKEND is None and _NUMPY_ERROR is None:
        try:
            from repro.kernels.numpy_backend import NumpyBackend
        except ImportError as error:
            _NUMPY_ERROR = str(error)
        else:
            _NUMPY_BACKEND = NumpyBackend()
    return _NUMPY_BACKEND


def available_backends() -> Tuple[str, ...]:
    """Names of the backends usable in this process (always has python)."""
    names = ["python"]
    if numpy_available():
        names.append("numpy")
    return tuple(names)


def resolve_backend(name: str = "auto") -> str:
    """Map a requested backend name to a concrete one, validating it.

    ``auto`` keeps whatever backend is active — the import-time detection
    (numpy when importable, else python) unless :envvar:`REPRO_BACKEND`
    or :func:`set_backend` chose otherwise.  Unknown names and explicit
    requests for an unavailable backend raise :class:`ValueError` (the
    engine CLI turns that into exit code 2).
    """
    if name not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(choose from {', '.join(BACKEND_CHOICES)})")
    if name == "auto":
        return _ACTIVE.name
    if name == "numpy" and not numpy_available():
        raise ValueError(
            f"kernel backend 'numpy' requested but numpy is not importable "
            f"({_NUMPY_ERROR}); install the 'numpy' extra or use --backend python")
    return name


_PYTHON_BACKEND = KernelBackend()
_ACTIVE: KernelBackend = _PYTHON_BACKEND
_ENV_CHOICE = os.environ.get("REPRO_BACKEND", "auto")


def set_backend(name: str) -> KernelBackend:
    """Activate a backend process-wide and return it (accepts ``auto``)."""
    global _ACTIVE
    resolved = resolve_backend(name)
    _ACTIVE = _load_numpy_backend() if resolved == "numpy" else _PYTHON_BACKEND
    assert _ACTIVE is not None
    return _ACTIVE


def active_backend() -> KernelBackend:
    """The backend kernels dispatch to right now."""
    return _ACTIVE


def backend_name() -> str:
    """Name of the active backend (``python`` or ``numpy``)."""
    return _ACTIVE.name


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Context manager: activate ``name``, restoring the previous backend."""
    global _ACTIVE
    previous = _ACTIVE
    backend = set_backend(name)
    try:
        yield backend
    finally:
        _ACTIVE = previous


# Auto-detect at import: numpy when importable, else the reference.
# REPRO_BACKEND overrides the detection; an unknown value fails loudly
# here rather than silently running the wrong backend.
_ACTIVE = _load_numpy_backend() or _PYTHON_BACKEND
if _ENV_CHOICE != "auto":
    set_backend(_ENV_CHOICE)
