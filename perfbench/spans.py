"""Outside-in tracing of quivalg's layers.

The tracer wraps public functions of the ``quivalg`` modules from outside the
package.  The modules import each other's functions by name (for example
``from .linalg import rref, solve``), so a wrapper replaces the binding in
every loaded ``quivalg`` module namespace, not only in the defining one.
Class entry points (``PrimeMatrix.rank``, ``Algebra.content_hash``,
``Algebra._validate``, ``HomSpace.__init__``) are wrapped on the class.

Each call records a span ``[name, start, end, parent index]`` in memory.
``layer_metrics`` turns the spans and the counters gathered at the same
boundaries into the per-layer metrics; a layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("linalg", "algebra", "modules", "homology", "checks", "catalog", "cli")

# span name -> (module, attribute, class name or None)
TARGETS = {
    "linalg.rref": ("linalg", "rref", None),
    "linalg.solve": ("linalg", "solve", None),
    "linalg.nullspace": ("linalg", "nullspace", None),
    "linalg.rank": ("linalg", "rank", "PrimeMatrix"),
    "algebra.build_from_quiver": ("algebra", "build_from_quiver", None),
    "algebra.tensor_product": ("algebra", "tensor_product", None),
    "algebra.enveloping": ("algebra", "enveloping", None),
    "algebra.validate": ("algebra", "_validate", "Algebra"),
    "algebra.content_hash": ("algebra", "content_hash", "Algebra"),
    "algebra.column_span_basis": ("algebra", "column_span_basis", None),
    "modules.submodule": ("modules", "submodule", None),
    "modules.projective_cover": ("modules", "projective_cover", None),
    "modules.kernel": ("modules", "kernel", None),
    "modules.HomSpace": ("modules", "__init__", "HomSpace"),
    "modules.endo_structure_constants": ("modules", "endo_structure_constants", None),
    "modules.is_isomorphic": ("modules", "is_isomorphic", None),
    "modules.standard_modules": ("modules", "standard_modules", None),
    "homology.minimal_resolution": ("homology", "minimal_resolution", None),
    "homology.ext_dims": ("homology", "ext_dims", None),
    "homology.dominant_dimension": ("homology", "dominant_dimension", None),
    "homology.endomorphism_algebra": ("homology", "endomorphism_algebra", None),
    "homology.nakayama": ("homology", "nakayama", None),
    "homology.minimal_gen_cogen": ("homology", "minimal_gen_cogen", None),
    "checks.bar_ext_oracle": ("checks", "bar_ext_oracle", None),
    "checks.muller_check": ("checks", "muller_check", None),
    "checks.wg_lemma_check": ("checks", "wg_lemma_check", None),
    "checks.remark32_check": ("checks", "remark32_check", None),
    "checks.kunneth_check": ("checks", "kunneth_check", None),
    "checks.diamond": ("checks", "diamond", None),
    "checks.nc_evidence_scan": ("checks", "nc_evidence_scan", None),
    "checks.thick_shadow_check": ("checks", "thick_shadow_check", None),
    "catalog.load": ("catalog", "load", None),
    "catalog.resolve_expression": ("catalog", "resolve_expression", None),
    "catalog.cache_get": ("catalog", "cache_get", None),
    "catalog.cache_put": ("catalog", "cache_put", None),
    "cli.main": ("cli", "main", None),
}

# spans that make up "algebra.build": construction plus validation
BUILD_SPANS = (
    "algebra.build_from_quiver",
    "algebra.tensor_product",
    "algebra.enveloping",
    "algebra.validate",
)
CHECK_FNS = (
    "muller_check",
    "wg_lemma_check",
    "remark32_check",
    "kunneth_check",
    "diamond",
    "nc_evidence_scan",
    "thick_shadow_check",
)
SMALL_CELLS = 64

# (metric name, unit); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = (
    [(f"linalg.rref.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"), ("cells", "count"), ("small_share", "ratio"))]
    + [("linalg.solve.calls", "count"), ("linalg.solve.self_s", "s"), ("linalg.solve.repeat_lhs_share", "ratio")]
    + [("linalg.nullspace.calls", "count"), ("linalg.nullspace.self_s", "s")]
    + [("linalg.rank.calls", "count"), ("linalg.rank.self_s", "s"), ("linalg.rank.cells", "count")]
    + [("linalg.self_s", "s")]
    + [("algebra.build.calls", "count"), ("algebra.build.self_s", "s")]
    + [("algebra.content_hash.calls", "count"), ("algebra.content_hash.self_s", "s")]
    + [("algebra.column_span_basis.calls", "count"), ("algebra.self_s", "s")]
    + [
        (f"modules.{fn}.{k}", u)
        for fn in ("submodule", "projective_cover", "kernel", "HomSpace")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [("modules.HomSpace.constraint_cells", "count")]
    + [
        (f"modules.{fn}.{k}", u)
        for fn in ("endo_structure_constants", "is_isomorphic", "standard_modules")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [("modules.self_s", "s")]
    + [
        ("homology.minimal_resolution.calls", "count"),
        ("homology.minimal_resolution.self_s", "s"),
        ("homology.minimal_resolution.miss_ratio", "ratio"),
        ("homology.betti_total", "count"),
    ]
    + [
        (f"homology.{fn}.{k}", u)
        for fn in ("ext_dims", "dominant_dimension", "endomorphism_algebra", "nakayama", "minimal_gen_cogen")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [("homology.self_s", "s")]
    + [("checks.bar_ext_oracle.calls", "count"), ("checks.bar_ext_oracle.self_s", "s")]
    + [(f"checks.{fn}.s", "s") for fn in CHECK_FNS]
    + [("checks.self_s", "s")]
    + [
        ("catalog.load.calls", "count"),
        ("catalog.load.self_s", "s"),
        ("catalog.resolve_expression.calls", "count"),
        ("catalog.resolve_expression.self_s", "s"),
        ("catalog.cache_get.calls", "count"),
        ("catalog.cache_get.hits", "count"),
        ("catalog.cache_get.self_s", "s"),
        ("catalog.cache_put.calls", "count"),
        ("catalog.cache_put.self_s", "s"),
        ("catalog.cache.hit_ratio", "ratio"),
    ]
    + [("cli.main.calls", "count"), ("cli.main.s", "s"), ("cli.self_s", "s")]
    + [("trace_overhead", "ratio")]
)


def _shape_cells(m) -> int:
    rows, cols = m.a.shape
    return rows * cols


class Tracer:
    """Spans and counters for one traced pass.  ``install`` swaps the
    wrappers in, ``uninstall`` restores every original binding."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._seen_lhs: dict[int, object] = {}  # id -> matrix, kept alive so ids stay unique
        self._patched: list[tuple[object, str, object]] = []

    # -- counters gathered at the span boundaries ---------------------------

    def _count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _pre(self, name: str, args):
        if name == "linalg.rref":
            cells = _shape_cells(args[0])
            self._count("linalg.rref.cells", cells)
            if cells <= SMALL_CELLS:
                self._count("linalg.rref.small")
        elif name == "linalg.rank":
            self._count("linalg.rank.cells", _shape_cells(args[0]))
        elif name == "linalg.solve":
            if id(args[0]) in self._seen_lhs:
                self._count("linalg.solve.repeat_lhs")
            else:
                self._seen_lhs[id(args[0])] = args[0]
        elif name == "modules.HomSpace":
            m, n = args[1], args[2]
            self._count("modules.HomSpace.constraint_cells", m.algebra.dim * (m.dim * n.dim) ** 2)

    def _post(self, name: str, result):
        if name == "homology.minimal_resolution":
            self._count("homology.betti_total", sum(len(s) for s in result.term_summands))
        elif name == "catalog.cache_get" and result is not None:
            self._count("catalog.cache_get.hits")

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pre = self._pre if name in ("linalg.rref", "linalg.rank", "linalg.solve", "modules.HomSpace") else None
        post = self._post if name in ("homology.minimal_resolution", "catalog.cache_get") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(name, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(name, result)
            return result

        return traced

    # -- installing and removing the wrappers -------------------------------

    def install(self):
        for mod in ("linalg", "algebra", "modules", "homology", "checks", "catalog", "corpus", "cli"):
            importlib.import_module(f"quivalg.{mod}")
        loaded = [m for k, m in sorted(sys.modules.items()) if k == "quivalg" or k.startswith("quivalg.")]
        for name, (mod, attr, cls) in TARGETS.items():
            home = sys.modules[f"quivalg.{mod}"]
            if cls is not None:
                owner = getattr(home, cls)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace_overhead`` excluded)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    def has_ancestor(i: int, names) -> bool:
        j = spans[i][3]
        while j >= 0:
            if spans[j][0] in names:
                return True
            j = spans[j][3]
        return False

    def inclusive(name: str) -> float:
        return sum((dur[i] for i, s in enumerate(spans) if s[0] == name and not has_ancestor(i, (name,))), 0.0)

    missed = set()
    for i, s in enumerate(spans):
        if s[0] == "modules.projective_cover":
            j = s[3]
            while j >= 0:
                if spans[j][0] == "homology.minimal_resolution":
                    missed.add(j)
                j = spans[j][3]

    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out["linalg.rref.cells"] = counters.get("linalg.rref.cells", 0)
    out["linalg.rref.small_share"] = _ratio(counters.get("linalg.rref.small", 0), calls.get("linalg.rref", 0))
    out["linalg.solve.repeat_lhs_share"] = _ratio(
        counters.get("linalg.solve.repeat_lhs", 0), calls.get("linalg.solve", 0)
    )
    out["linalg.rank.cells"] = counters.get("linalg.rank.cells", 0)
    out["algebra.build.calls"] = sum(
        1 for i, s in enumerate(spans) if s[0] in BUILD_SPANS and not has_ancestor(i, BUILD_SPANS)
    )
    out["algebra.build.self_s"] = sum(self_s.get(k, 0.0) for k in BUILD_SPANS)
    out["modules.HomSpace.constraint_cells"] = counters.get("modules.HomSpace.constraint_cells", 0)
    out["homology.minimal_resolution.miss_ratio"] = _ratio(len(missed), calls.get("homology.minimal_resolution", 0))
    out["homology.betti_total"] = counters.get("homology.betti_total", 0)
    for fn in CHECK_FNS:
        out[f"checks.{fn}.s"] = inclusive(f"checks.{fn}")
    out["catalog.cache_get.hits"] = counters.get("catalog.cache_get.hits", 0)
    out["catalog.cache.hit_ratio"] = _ratio(out["catalog.cache_get.hits"], calls.get("catalog.cache_get", 0))
    out["cli.main.s"] = inclusive("cli.main")
    return {name: out[name] for name, _ in PER_LAYER if name in out}


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that are counts: they must repeat exactly across passes."""
    units = dict(PER_LAYER)
    return {k: v for k, v in metrics.items() if units[k] == "count"}
