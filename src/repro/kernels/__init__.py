"""Kernel backends: where batched cut-cone simulation runs.

Truth tables, affine classification and packed verification run on the
pure-Python big-int reference (:mod:`repro.tt`, :mod:`repro.affine`,
:mod:`repro.xag`) on every backend.  One kernel is pluggable, the batched
simulation of many cut cones:

* the **python** backend simulates each cone with the per-cone big-int
  reference (:func:`repro.cuts.cache._simulate_cone`);
* the **numpy** backend evaluates a list of cones in one level-ordered
  ``uint64`` sweep
  (:meth:`repro.kernels.numpy_backend.NumpyBackend.simulate_cones`).

Candidate selection no longer dispatches to a backend: every cut carries
its truth table from the cut merge (:mod:`repro.cuts.enumeration`), so no
cone is simulated while rewriting and both backends run the same code.
The backend choice, :envvar:`REPRO_BACKEND`, ``EngineConfig.backend`` and
the engine's ``--backend`` flag stay until the benchmark stops tracing
``simulate_cones`` by name; the kernel stays bit-exact against the
reference (``tests/test_kernels.py``).

Selection: ``auto`` (the default) picks numpy when it is installed and
falls back to python otherwise.  The choice can be forced through
:func:`set_backend`, the :envvar:`REPRO_BACKEND` environment variable,
``EngineConfig.backend`` or the engine's ``--backend`` flag.  Detection
looks numpy up without importing it (:func:`importlib.util.find_spec`);
only a call of the numpy kernel imports numpy, so no engine process pays
for it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from importlib.util import find_spec
from typing import Iterator, Optional, Tuple


class KernelBackend:
    """Pure-Python reference backend (also the base class).

    ``accelerated`` is ``True`` on a backend that provides the batched
    ``simulate_cones`` kernel; the python backend leaves it ``False``.
    """

    name = "python"
    accelerated = False


BACKEND_CHOICES: Tuple[str, ...] = ("auto", "python", "numpy")

_NUMPY_BACKEND: Optional[KernelBackend] = None
_NUMPY_ERROR: Optional[str] = None


def numpy_available() -> bool:
    """True when numpy is installed, so the numpy backend can be used."""
    return _load_numpy_backend() is not None


def _load_numpy_backend() -> Optional[KernelBackend]:
    global _NUMPY_BACKEND, _NUMPY_ERROR
    if _NUMPY_BACKEND is None and _NUMPY_ERROR is None:
        if find_spec("numpy") is None:
            _NUMPY_ERROR = "No module named 'numpy'"
        else:
            from repro.kernels.numpy_backend import NumpyBackend
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
    (numpy when installed, else python) unless :envvar:`REPRO_BACKEND`
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
            f"kernel backend 'numpy' requested but numpy is not installed "
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


# Auto-detect at import: numpy when installed, else the reference.
# REPRO_BACKEND overrides the detection; an unknown value fails loudly
# here rather than silently running the wrong backend.
_ACTIVE = _load_numpy_backend() or _PYTHON_BACKEND
if _ENV_CHOICE != "auto":
    set_backend(_ENV_CHOICE)
