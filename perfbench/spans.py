"""Span recorder for the benchmark's traced run.

The recorder wraps the engine's public functions from outside — nothing
under ``src/`` changes.  Every wrapped call records one span: its layer
name, start, end and parent span (the innermost open span of the process)
plus the run id shared by every span of the run.  Spans stay in memory in
flat ``array`` columns and are written once, when the process's part of
the run ends; :func:`layer_totals` turns them into per-layer call counts and
self times (span duration minus the part covered by child spans).

A function is wrapped at every attribute it can be looked up through: its
defining class or module, and any ``repro`` module that imported it by name
(``repro.rewriting.rewrite.mffc`` for example).  :meth:`Tracer.remove`
restores every original, so a run after a traced run sees the unwrapped
functions.  Under the ``fork`` start method pool workers inherit the
wrappers; the wrapped worker entry gives each worker its own span columns
and writes them when the worker stops.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: layer name → targets ``"module:attribute"`` or ``"module:Class.method"``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "affine.classify": ("repro.affine.cache:ClassificationCache.classify",),
    "mc.synthesize": ("repro.mc.synthesize:McSynthesizer.synthesize",),
    "cuts.plan_for": ("repro.cuts.cache:CutFunctionCache.plan_for",),
    "cuts.enumerate": ("repro.cuts.enumeration:CutSetCache.cuts",),
    "cuts.cone_interior": ("repro.cuts.cache:CutFunctionCache.cone_interior",),
    "cuts.cone_hash": ("repro.cuts.cache:CutFunctionCache.cone_hash_for",),
    "cuts.cone_function": (
        "repro.cuts.cache:CutFunctionCache.cone_function",
        "repro.cuts.cache:CutFunctionCache.has_cone_function",
        "repro.cuts.cache:CutFunctionCache.install_cone_functions"),
    "cuts.mffc": ("repro.cuts.mffc:mffc",),
    "kernels.simulate_cones": (
        "repro.kernels.numpy_backend:NumpyBackend.simulate_cones",),
    "rewriting.round": ("repro.rewriting.rewrite:CutRewriter.rewrite_in_place",),
    "rewriting.insert": ("repro.rewriting.insert:insert_plan",),
    "xag.substitute": ("repro.xag.graph:Xag.substitute_node",),
    "xag.observers": tuple(
        f"{module}:{cls}.{method}"
        for module, cls in (("repro.cuts.cache", "CutFunctionCache"),
                            ("repro.cuts.enumeration", "CutSetCache"),
                            ("repro.xag.levels", "LevelTracker"),
                            ("repro.xag.bitsim", "BitSimulator"),
                            ("repro.xag.structhash", "StructHashTracker"))
        for method in ("on_substitution", "on_rollback")),
    "xag.verify": ("repro.xag.bitsim:SimulationCache.simulator",
                   "repro.xag.bitsim:BitSimulator.po_snapshot",
                   "repro.xag.bitsim:BitSimulator.po_matches",
                   "repro.xag.bitsim:BitSimulator.sync",
                   "repro.xag.equivalence:equivalent"),
    "xag.sweep": ("repro.xag.cleanup:sweep", "repro.xag.cleanup:sweep_owned"),
    "xag.balance": ("repro.xag.balance:balance_in_place",),
    "xag.levels": ("repro.xag.levels:LevelTracker.levels",
                   "repro.xag.levels:LevelTracker.critical_level",
                   "repro.xag.levels:LevelTracker.sync"),
    "xag.rollback": ("repro.xag.graph:Xag.rollback",),
    "mc.bundle_load": ("repro.engine.core:load_warm_start",),
    "mc.bundle_save": ("repro.engine.core:persist_warm_start",),
    "io.load": ("repro.circuits.external:_build",),
    "engine.run_circuit": ("repro.engine.core:run_circuit",),
    "engine.pool": ("repro.engine.parallel:run_pool_batch",),
    "engine.pool.install": ("repro.engine.parallel:install_delta",),
    "engine.pool.collect": ("repro.engine.parallel:DeltaCursor.collect",),
    "engine.pool.spawn": ("multiprocessing.process:BaseProcess.start",),
    "engine.pool.wait": ("multiprocessing.queues:Queue.get",),
}

#: the layers reported as ``<name>.calls`` / ``<name>.self_s``.
REPORTED_LAYERS = (
    "affine.classify", "mc.synthesize", "cuts.plan_for", "cuts.enumerate",
    "cuts.cone_interior", "cuts.cone_hash", "cuts.cone_function", "cuts.mffc",
    "kernels.simulate_cones", "rewriting.round", "rewriting.insert",
    "xag.substitute", "xag.observers", "xag.verify", "xag.sweep",
    "xag.balance", "xag.levels", "mc.bundle_load", "mc.bundle_save",
    "io.load", "engine.run_circuit",
)

#: spans that hold a process's whole traced interval (not layers).
ROOT = "bench.root"
#: spans of a process blocked on another process (not busy time).
WAIT = "engine.pool.wait"
#: container layer whose self time is glue between the named layers.
CONTAINER = "engine.run_circuit"


def _resolve(target: str):
    """``(owner, attribute, original)`` of a ``module:attr`` target."""
    module_name, _, path = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute, owner.__dict__[attribute]


class Tracer:
    """Records spans of wrapped calls into flat in-memory columns."""

    def __init__(self, run_id: str, out_dir: Path) -> None:
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded (a forked worker starts afresh)."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        #: named counters recorded next to the spans (bytes, items).
        self.counters: Dict[str, float] = {}
        #: optimised networks captured at the pipeline boundary.
        self.finals: List[Tuple[str, object]] = []

    def name_id(self, name: str) -> int:
        """Small integer standing for a span name in the columns."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace ``original`` in every ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attribute, replacement)

    def install(self, extras: Dict[str, Callable] = None) -> None:
        """Wrap every layer target (``extras``: target → wrapper factory)."""
        extras = extras or {}
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attribute, original = _resolve(target)
                factory = extras.get(target)
                replacement = (factory(original) if factory is not None
                               else self.wrap(original, layer))
                if isinstance(owner, type):
                    self.patch(owner, attribute, replacement)
                else:
                    self._patch_everywhere(original, replacement)

    def remove(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, role: str) -> Path:
        """Write this process's spans and counters; returns the file path."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{role}-{os.getpid()}.bin"
        header = json.dumps({
            "run_id": self.run_id, "role": role, "pid": os.getpid(),
            "names": self.names, "spans": len(self.span_start),
            "counters": self.counters,
        }).encode()
        with open(path, "wb") as handle:
            handle.write(len(header).to_bytes(8, "little"))
            handle.write(header)
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)
        return path


def read_spans(path: Path) -> Tuple[Dict, List[str], array, array, array, array]:
    """Inverse of :meth:`Tracer.write`."""
    with open(path, "rb") as handle:
        size = int.from_bytes(handle.read(8), "little")
        header = json.loads(handle.read(size))
        count = header["spans"]
        columns = []
        for typecode in ("i", "i", "d", "d"):
            column = array(typecode)
            column.fromfile(handle, count)
            columns.append(column)
    return (header, header["names"], *columns)


def self_times(parents: Sequence[int], starts: Sequence[float],
               ends: Sequence[float]) -> List[float]:
    """Per-span self time: duration minus the duration of direct children.

    Spans are recorded in call order, so a child always follows its parent
    and nests inside it; summing children durations per parent is exact.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    own = list(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[index]
    return own


def layer_totals(names: Sequence[str], name_ids: Sequence[int],
                 parents: Sequence[int], starts: Sequence[float],
                 ends: Sequence[float]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls", "self_s", "wall_s"}}`` over one process's spans.

    ``wall_s`` sums durations of the layer's outermost spans only (a span
    nested in a span of the same layer is not counted twice).
    """
    own = self_times(parents, starts, ends)
    totals: Dict[str, Dict[str, float]] = {}
    for index, name_id in enumerate(name_ids):
        name = names[name_id]
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "wall_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[index]
        parent = parents[index]
        if parent < 0 or name_ids[parent] != name_id:
            entry["wall_s"] += ends[index] - starts[index]
    return totals


def coverage(totals: Dict[str, Dict[str, float]]) -> Optional[float]:
    """Share of a process's busy time claimed by named layer spans.

    Busy time is the root span minus the time blocked waiting on another
    process.  Named layers are all layers except the root, the waits and
    the ``engine.run_circuit`` container, whose self time is the pipeline
    glue no layer names.  ``None`` when the process was never busy.
    """
    root = totals.get(ROOT, {}).get("wall_s", 0.0)
    busy = root - totals.get(WAIT, {}).get("self_s", 0.0)
    if busy <= 0:
        return None
    named = sum(entry["self_s"] for layer, entry in totals.items()
                if layer not in (ROOT, WAIT, CONTAINER))
    return named / busy


def merge(per_process: Iterable[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum per-layer totals over processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for totals in per_process:
        for layer, entry in totals.items():
            target = merged.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                               "wall_s": 0.0})
            for key, value in entry.items():
                target[key] += value
    return merged
