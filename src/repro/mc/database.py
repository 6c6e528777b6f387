"""Database of MC-oriented XAG recipes for affine class representatives.

This is the reproduction's analogue of the paper's ``XAG_DB``: a mapping from
affine class representatives to XAGs implementing them with as few AND gates
as the synthesis tiers can achieve.  Unlike the paper (which ships a
pre-computed 12 MB file derived from the NIST optimal-circuit collection), the
database here is *populated on demand*: the first time a representative is
requested its recipe is synthesised and cached; the database can be saved to
and loaded from a JSON warm-start bundle so that long optimisation campaigns
can reuse earlier work (see DESIGN.md, substitution table).  A bundle holds
learnt synthesis state only — recipes, classifications and cut-function plan
keys — never finished circuits.

This is the canonical (affine-representative-keyed) level of the two-level
caching scheme: :class:`repro.cuts.cache.CutFunctionCache` resolves exact
truth tables in front of it, so during rewriting a given cut function
reaches :meth:`McDatabase.plan_for` once per batch of circuits.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.affine.cache import ClassificationCache
from repro.affine.classify import AffineClassifier
from repro.affine.operations import AffineTransform
from repro.mc.synthesize import McSynthesizer
from repro.tt.bits import table_mask
from repro.xag import serialize as xag_serialize
from repro.xag.graph import Xag
from repro.xag.simulate import output_truth_tables
from repro.xag.structhash import graph_hash


@dataclass
class ImplementationPlan:
    """Everything needed to implement one cut function inside a larger XAG.

    ``recipe`` computes ``representative`` over ``num_vars`` inputs;
    ``transform`` maps the representative back to ``table`` using XOR gates,
    inverters and wire permutations only, so the AND cost of the plan equals
    ``recipe.num_ands``.
    """

    table: int
    num_vars: int
    representative: int
    recipe: Xag
    transform: AffineTransform

    @property
    def num_ands(self) -> int:
        """AND gates required to realise the plan (affine re-wiring is free)."""
        return self.recipe.num_ands

    @cached_property
    def estimated_gates(self) -> int:
        """Upper bound on the gates :func:`~repro.rewriting.insert.insert_plan`
        adds (before structural hashing): the recipe's gates, ``w - 1`` XORs
        per transform row of weight ``w`` and one XOR per output-correction
        leaf.  Computed on first use, once per plan."""
        transform = self.transform
        correction_xors = 0
        for row in transform.matrix:
            weight = bin(row).count("1")
            if weight:
                correction_xors += weight - 1
        correction_xors += bin(transform.output_linear).count("1")
        return self.recipe.num_gates + correction_xors

    @cached_property
    def level_terms(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """The output's AND-level as terms over the leaf levels.

        :func:`~repro.rewriting.insert.insert_plan` feeds recipe input ``v``
        the XOR of the leaves in transform row ``v`` and XORs the
        output-correction leaves onto the recipe output; XOR gates are
        depth-transparent and every recipe AND adds one level.  So with
        leaf ``j`` at level ``L_j >= 0`` the built output sits at most at
        ``max(c, max_j L_j + d_j)`` (structural hashing can only build
        shallower), and the bound is exact for that XOR/AND structure:
        ``d_j`` is the most recipe ANDs on a path from leaf ``j`` to the
        output (0 for a correction leaf; leaves with no path are left out)
        and ``c`` the most on any path from a recipe input or the constant.
        Returns ``(c, ((j, d_j), ...))``, derived once per plan on first
        use; :meth:`and_level` evaluates it.
        """
        transform = self.transform
        recipe = self.recipe
        # per recipe node: (c, {leaf position: d})
        terms: Dict[int, Tuple[int, Dict[int, int]]] = {0: (0, {})}
        for var, node in enumerate(recipe.pis()):
            row = transform.matrix[var]
            terms[node] = (0, {j: 0 for j in range(self.num_vars)
                               if row >> j & 1})
        for node in recipe.gates():
            f0, f1 = recipe.fanins(node)
            c0, leaves0 = terms[f0 >> 1]
            c1, leaves1 = terms[f1 >> 1]
            weight = 1 if recipe.is_and(node) else 0
            merged = {j: d + weight for j, d in leaves0.items()}
            for j, d in leaves1.items():
                if d + weight > merged.get(j, -1):
                    merged[j] = d + weight
            terms[node] = (max(c0, c1) + weight, merged)
        constant, output = terms[recipe.po_literal(0) >> 1]
        output = dict(output)
        for j in range(self.num_vars):
            if transform.output_linear >> j & 1:
                output.setdefault(j, 0)
        return constant, tuple(sorted(output.items()))

    def and_level(self, leaf_levels: Sequence[int]) -> int:
        """Upper bound on the AND-level of the output
        :func:`~repro.rewriting.insert.insert_plan` builds over leaves at
        ``leaf_levels`` (by variable): ``max(c, max_j L_j + d_j)`` over
        :attr:`level_terms`."""
        level, terms = self.level_terms
        for position, extra in terms:
            reached = leaf_levels[position] + extra
            if reached > level:
                level = reached
        return level


class McDatabase:
    """Representative → recipe store with on-demand synthesis."""

    def __init__(self,
                 classifier: Optional[AffineClassifier] = None,
                 synthesizer: Optional[McSynthesizer] = None,
                 use_classification: bool = True) -> None:
        self.classification_cache = ClassificationCache(classifier or AffineClassifier())
        self.synthesizer = synthesizer or McSynthesizer()
        #: when False the database bypasses affine classification and
        #: synthesises every cut function directly (ablation mode).
        self.use_classification = use_classification
        self._recipes: Dict[Tuple[int, int], Xag] = {}
        #: canonical structural hash (hex) of every stored recipe — the
        #: content address entries carry in v3 bundles and the dedup index
        #: that makes :meth:`install_bundle` idempotent by construction.
        self._recipe_hashes: Dict[Tuple[int, int], str] = {}
        self.synthesis_calls = 0

    # ------------------------------------------------------------------
    # main API
    # ------------------------------------------------------------------
    def plan_for(self, table: int, num_vars: int) -> ImplementationPlan:
        """Implementation plan (recipe + affine re-wiring) for ``table``."""
        return self._plan(table, num_vars, peek_first=False)

    def and_cost(self, table: int, num_vars: int) -> int:
        """AND gates needed to implement ``table`` through the database."""
        return self.plan_for(table, num_vars).num_ands

    def materialize_plan(self, table: int, num_vars: int) -> ImplementationPlan:
        """Plan for ``table`` without perturbing the hit/miss statistics.

        This is the warm-start path: classifications restored from a bundle
        are consulted via :meth:`ClassificationCache.peek`, so rebuilding the
        plans of a previous run does not inflate the hit counters (and a
        restored run reporting ~zero misses really did no new work).  Keys
        missing from the cache fall back to a real, counted classification.
        """
        return self._plan(table, num_vars, peek_first=True)

    def _plan(self, table: int, num_vars: int, peek_first: bool) -> ImplementationPlan:
        table &= table_mask(num_vars)
        if not self.use_classification:
            recipe = self._recipe_for(table, num_vars)
            return ImplementationPlan(table, num_vars, table, recipe,
                                      AffineTransform.identity(num_vars))
        classification = (self.classification_cache.peek(table, num_vars)
                          if peek_first else None)
        if classification is None:
            classification = self.classification_cache.classify(table, num_vars)
        recipe = self._recipe_for(classification.representative, num_vars)
        return ImplementationPlan(table, num_vars, classification.representative,
                                  recipe, classification.from_representative)

    def _recipe_for(self, representative: int, num_vars: int) -> Xag:
        key = (representative, num_vars)
        recipe = self._recipes.get(key)
        if recipe is None:
            recipe = self.synthesizer.synthesize(representative, num_vars)
            self._store_recipe(key, recipe)
            self.synthesis_calls += 1
        return recipe

    def _store_recipe(self, key: Tuple[int, int], recipe: Xag) -> None:
        """Insert a recipe and its content address (recipes are immutable)."""
        self._recipes[key] = recipe
        self._recipe_hashes[key] = format(graph_hash(recipe), "x")

    # ------------------------------------------------------------------
    # persistence and inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._recipes)

    def stats(self) -> Dict[str, float]:
        """Counters useful for the ablation benchmarks."""
        return {
            "stored_recipes": len(self._recipes),
            "synthesis_calls": self.synthesis_calls,
            "classification_hits": self.classification_cache.hits,
            "classification_misses": self.classification_cache.misses,
            "classification_hit_rate": self.classification_cache.hit_rate,
            "total_recipe_ands": sum(r.num_ands for r in self._recipes.values()),
        }

    #: bundle file magic / schema version.  Version 3 is a content-addressed
    #: store: every recipe entry carries the canonical structural hash of
    #: its XAG (entries sorted by it), next to classifications and plan
    #: keys.  Older versions (v1 bare recipe lists, v2 bundles without
    #: hashes) are rejected; the ``cones`` and ``results`` sections older
    #: v3 writers added are ignored.
    BUNDLE_FORMAT = "repro-warm-start"
    BUNDLE_VERSION = 3

    def to_bundle(self, plan_keys: Optional[Iterable[Tuple[int, int]]] = None
                  ) -> Dict:
        """Versioned warm-start bundle of everything the database has learnt.

        The bundle carries the reusable state layer by layer: synthesised
        recipes (each under its content hash, sorted by it), classification
        results (serialised through
        :class:`~repro.affine.operations.AffineTransform`), and — when the
        caller passes them — the ``(table, num_vars)`` keys of the
        :class:`~repro.cuts.cache.CutFunctionCache` plans resolved so far.
        Plans are stored as keys only: their recipe and transform are shared
        with the other sections, so they are rebuilt on load without
        re-running classification or synthesis.
        """
        bundle: Dict = {
            "format": self.BUNDLE_FORMAT,
            "version": self.BUNDLE_VERSION,
            "recipes": self.recipe_entries(),
            "classifications": self.classification_cache.to_payload(),
        }
        if plan_keys is not None:
            bundle["plans"] = [[table, num_vars]
                               for table, num_vars in sorted(plan_keys)]
        return bundle

    def recipe_keys(self) -> List[Tuple[int, int]]:
        """``(representative, num_vars)`` keys of every stored recipe."""
        return list(self._recipes)

    def recipe_entries(self, keys: Optional[Sequence[Tuple[int, int]]] = None
                       ) -> List[Dict]:
        """Content-addressed bundle entries for the given recipe keys.

        ``None`` selects every stored recipe (the full-bundle case); a key
        subset produces a delta-sized payload in the identical entry format,
        sorted by content hash either way so equal stores serialise equal.
        """
        selected = (list(self._recipes.items()) if keys is None
                    else [(key, self._recipes[key]) for key in keys])
        entries = []
        for key, recipe in selected:
            digest = self._recipe_hashes.get(key)
            if digest is None:  # pre-filled store (tests) — hash lazily
                digest = format(graph_hash(recipe), "x")
                self._recipe_hashes[key] = digest
            entries.append({"hash": digest,
                            "representative": key[0], "num_vars": key[1],
                            "recipe": xag_serialize.to_dict(recipe)})
        entries.sort(key=lambda entry: entry["hash"])
        return entries

    def install_bundle(self, bundle: Dict, validate: bool = True,
                       origin: str = "bundle") -> Dict[str, int]:
        """Merge a v3 bundle into this database.

        Merging is idempotent and order-independent *by construction*: an
        entry is identified by its content hash, so an entry whose hash is
        already installed is skipped without even deserialising competitors
        for the same ``(representative, num_vars)`` key, and already-present
        keys win as before — exactly what the engine's shard merge needs.
        With ``validate`` every recipe is re-simulated over its ``num_vars``
        inputs and checked against its claimed representative, every
        classification transform is checked to rebuild its table, and every
        claimed content hash is recomputed from the deserialised recipe; a
        stale or hand-edited bundle is rejected with a descriptive error
        instead of silently producing wrong rewrites whenever verification
        is off.  A bundle of any other version — including a legacy v1 bare
        recipe list — raises :class:`ValueError` naming ``origin`` and the
        version.
        """
        if isinstance(bundle, list):  # the v1 layout: a bare recipe list
            version = 1
        elif isinstance(bundle, dict):
            file_format = bundle.get("format", self.BUNDLE_FORMAT)
            if file_format != self.BUNDLE_FORMAT:
                raise ValueError(f"{origin}: not a warm-start bundle "
                                 f"(format {file_format!r})")
            version = int(bundle.get("version", self.BUNDLE_VERSION))
        else:
            raise ValueError(f"{origin}: bundle must be a mapping, "
                             f"got {type(bundle).__name__}")
        if version != self.BUNDLE_VERSION:
            raise ValueError(f"{origin}: unsupported bundle version {version} "
                             f"(only version {self.BUNDLE_VERSION} loads)")

        installed = 0
        installed_hashes = set(self._recipe_hashes.values())
        for position, entry in enumerate(bundle.get("recipes", [])):
            claimed_hash = entry.get("hash") if isinstance(entry, dict) else None
            if claimed_hash in installed_hashes:
                continue  # content already present — skip by address alone
            try:
                representative = int(entry["representative"])
                num_vars = int(entry["num_vars"])
                recipe = xag_serialize.from_dict(entry["recipe"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{origin}: malformed recipe entry "
                                 f"#{position}: {exc}") from exc
            digest = format(graph_hash(recipe), "x")
            if validate:
                self._validate_recipe(recipe, representative, num_vars,
                                      f"{origin}: recipe entry #{position}")
                if claimed_hash != digest:
                    raise ValueError(
                        f"{origin}: recipe entry #{position} claims content "
                        f"hash {claimed_hash} but its XAG hashes to {digest}; "
                        f"rejecting the bundle")
            key = (representative, num_vars)
            if key not in self._recipes:
                self._recipes[key] = recipe
                self._recipe_hashes[key] = digest
                installed_hashes.add(digest)
                installed += 1
        installed_classifications = self.classification_cache.install_payload(
            bundle.get("classifications", []), validate=validate, origin=origin)
        return {
            "recipes": installed,
            "classifications": installed_classifications,
            "plans": len(bundle.get("plans", [])),
        }

    @staticmethod
    def _validate_recipe(recipe: Xag, representative: int, num_vars: int,
                         origin: str) -> None:
        """Check that ``recipe`` really computes ``representative``."""
        if recipe.num_pos != 1:
            raise ValueError(f"{origin}: recipe for representative "
                             f"{representative:#x} has {recipe.num_pos} outputs "
                             f"(expected exactly 1)")
        if recipe.num_pis != num_vars:
            raise ValueError(f"{origin}: recipe for representative "
                             f"{representative:#x} has {recipe.num_pis} inputs "
                             f"but claims {num_vars} variables")
        computed = output_truth_tables(recipe)[0]
        expected = representative & table_mask(num_vars)
        if computed != expected:
            raise ValueError(
                f"{origin}: corrupt recipe — claims representative "
                f"{expected:#x} over {num_vars} vars but computes "
                f"{computed:#x}; rejecting the bundle")

    def save(self, path: Union[str, Path],
             plan_keys: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        """Persist the warm-start bundle as JSON, atomically.

        The bundle is serialised into a temporary file in the destination
        directory and moved over the target with :func:`os.replace`, so a
        crash — or a raising serialiser — at any point leaves either the old
        bundle or the new one on disk, never a truncated hybrid.
        """
        target = Path(path)
        payload = json.dumps(self.to_bundle(plan_keys))
        fd, tmp_name = tempfile.mkstemp(dir=str(target.parent) or ".",
                                        prefix=target.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def load(self, path: Union[str, Path], validate: bool = True) -> int:
        """Load a v3 bundle from a JSON file; returns the number of recipes read.

        Other versions and entries failing validation abort the load with a
        descriptive :class:`ValueError` (see :meth:`install_bundle`).
        """
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid JSON bundle: {exc}") from exc
        counts = self.install_bundle(payload, validate=validate, origin=str(path))
        return counts["recipes"]

    def export_combined_xag(self) -> Xag:
        """Single multi-output XAG with one output per stored representative.

        This mirrors the paper's ``XAG_DB`` representation (a 6-input network
        with one output per class representative).
        """
        max_vars = max((nv for _, nv in self._recipes), default=0)
        combined = Xag()
        combined.name = "XAG_DB"
        inputs = combined.create_pis(max_vars)
        for (rep, nv), recipe in sorted(self._recipes.items()):
            leaf_map = {node: inputs[i] for i, node in enumerate(recipe.pis())}
            out = recipe.copy_cone(combined, [recipe.po_literal(0)], leaf_map)[0]
            combined.create_po(out, f"rep_{nv}_{rep:x}")
        return combined


class BundleCursor:
    """Incremental view over a database's recipes and classifications.

    Construction marks everything currently stored as already seen; each
    :meth:`collect` returns bundle-format entries for only the recipes and
    classifications learnt since — the database half of the engine pool's
    streaming delta protocol (:class:`repro.engine.parallel.DeltaCursor`
    composes this with the cut cache's plan-key diff).  Both stores
    are append-only (first write wins everywhere), so tracking *keys* is
    sufficient: an entry can be added but never changed or removed.
    """

    def __init__(self, database: McDatabase) -> None:
        self._database = database
        self._recipes = set(database.recipe_keys())
        self._classifications = set(database.classification_cache.keys())

    def advance(self) -> None:
        """Mark the current contents as seen without building any payload."""
        self._recipes.update(self._database.recipe_keys())
        self._classifications.update(
            self._database.classification_cache.keys())

    def collect(self) -> Tuple[List[Dict], List[Dict]]:
        """New ``(recipes, classifications)`` bundle entries since last call."""
        new_recipes = [key for key in self._database.recipe_keys()
                       if key not in self._recipes]
        self._recipes.update(new_recipes)
        new_classifications = [
            key for key in self._database.classification_cache.keys()
            if key not in self._classifications]
        self._classifications.update(new_classifications)
        return (self._database.recipe_entries(new_recipes),
                self._database.classification_cache.to_payload(
                    new_classifications))
