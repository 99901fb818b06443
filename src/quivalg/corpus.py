"""Built-in corpus: fixture registry, per-entry check matrix, expected outcomes.

Each entry names a shipped .alg fixture and the checks that apply to it,
together with the verdict each check is expected to produce at the default
cutoff.  ``corpus run`` executes the matrix and reports any drift, so the
expected column doubles as a regression oracle.

The wg-lemma rows expect "fail" wherever the compared generator-cogenerator
is not self-orthogonal: the degreewise dimension identity between Ext over
the endomorphism algebra and Ext of the Nakayama image requires that
hypothesis, and it provably breaks on those pairs (degree 3 for the
regular+S family, degree 1 for the hereditary gencogens).  The
statement-level biconditional agrees on every pair; see the README.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import catalog
from .checks import (
    bar_ext_oracle,
    diamond,
    kunneth_check,
    muller_check,
    nc_evidence_scan,
    remark32_check,
    thick_shadow_check,
    wg_lemma_check,
)
from .homology import dominant_dimension, ext_dims
from .modules import standard_modules

__all__ = ["FixtureEntry", "ENTRIES", "NOTE", "fixture_text", "load_entry", "run_entry_checks"]

BAR_SWEEP_DEGREE = 3
BAR_SWEEP_MAX_DIM = 4


# shown beside every entry by ``corpus list``
NOTE = "verdicts checked at p = 2, 3 and 32003 (the radical is exact at every p)"


@dataclass
class FixtureEntry:
    name: str
    title: str
    dim: int  # of the algebra, so that listing builds nothing
    expected: dict[str, str]
    muller_exprs: list[str] = dc_field(default_factory=list)
    thick_names: list[str] = dc_field(default_factory=list)
    tensor_factors: Optional[tuple[str, str]] = None


ENTRIES: list[FixtureEntry] = [
    FixtureEntry(
        name="k",
        title="the ground field",
        dim=1,
        muller_exprs=["regular"],
        thick_names=["regular"],
        expected={
            "domdim": "infinity-certified",
            "diamond": "pass",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "pass",
            "bar-oracle": "pass",
            "muller:regular": "pass",
            "wg-lemma:regular": "pass",
        },
    ),
    FixtureEntry(
        name="k2",
        title="k[x]/(x^2)",
        dim=2,
        muller_exprs=["regular", "regular+S"],
        thick_names=["regular", "S"],
        expected={
            "domdim": "infinity-certified",
            "diamond": "pass",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "pass",
            "bar-oracle": "pass",
            "muller:regular": "pass",
            "muller:regular+S": "pass",
            "wg-lemma:regular": "pass",
            # regular+S is not self-orthogonal (Ext^1(S,S) = 1), so it lies
            # outside the lemma's hypothesis; the degreewise identity then
            # breaks at degree 3, a mathematical outcome, not a defect
            "wg-lemma:regular+S": "fail",
        },
    ),
    FixtureEntry(
        name="k3",
        title="k[x]/(x^3)",
        dim=3,
        muller_exprs=["regular", "regular+S"],
        thick_names=["regular", "S"],
        expected={
            "domdim": "infinity-certified",
            "diamond": "pass",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "pass",
            "bar-oracle": "pass",
            "muller:regular": "pass",
            "muller:regular+S": "pass",
            "wg-lemma:regular": "pass",
            "wg-lemma:regular+S": "fail",
        },
    ),
    FixtureEntry(
        name="k4",
        title="k[x]/(x^4)",
        dim=4,
        muller_exprs=["regular", "regular+S"],
        thick_names=["regular", "S"],
        expected={
            "domdim": "infinity-certified",
            "diamond": "pass",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "pass",
            "bar-oracle": "pass",
            "muller:regular": "pass",
            "muller:regular+S": "pass",
            "wg-lemma:regular": "pass",
            "wg-lemma:regular+S": "fail",
        },
    ),
    FixtureEntry(
        name="ka2",
        title="path algebra of 1 -> 2",
        dim=3,
        muller_exprs=["gencogen"],
        thick_names=["regular"],
        expected={
            "domdim": "1",
            "diamond": "fail",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "inconclusive",
            "bar-oracle": "pass",
            "muller:gencogen": "pass",
            "wg-lemma:gencogen": "fail",
        },
    ),
    FixtureEntry(
        name="ka3",
        title="path algebra of 1 -> 2 -> 3",
        dim=6,
        muller_exprs=["gencogen"],
        thick_names=["regular"],
        expected={
            "domdim": "1",
            "diamond": "fail",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "inconclusive",
            "bar-oracle": "pass",
            "muller:gencogen": "pass",
            "wg-lemma:gencogen": "fail",
        },
    ),
    FixtureEntry(
        name="aus",
        title="endomorphism algebra of (free + simple) over k[x]/(x^2)",
        dim=5,
        muller_exprs=["gencogen"],
        thick_names=["regular"],
        expected={
            "domdim": "2",
            "diamond": "fail",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "inconclusive",
            "bar-oracle": "pass",
            "muller:gencogen": "pass",
            "wg-lemma:gencogen": "fail",
        },
    ),
    FixtureEntry(
        name="k2xk2",
        title="k[x]/(x^2) (x) k[x]/(x^2)",
        dim=4,
        muller_exprs=["regular"],
        thick_names=["regular"],
        tensor_factors=("k2", "k2"),
        expected={
            "domdim": "infinity-certified",
            "diamond": "pass",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "pass",
            "bar-oracle": "pass",
            "kunneth": "pass",
            "muller:regular": "pass",
            "wg-lemma:regular": "pass",
        },
    ),
    FixtureEntry(
        name="ka2xk2",
        title="(path algebra of 1 -> 2) (x) k[x]/(x^2)",
        dim=6,
        muller_exprs=["gencogen"],
        thick_names=["regular"],
        tensor_factors=("ka2", "k2"),
        expected={
            "domdim": "1",
            "diamond": "fail",
            "nc-scan": "pass",
            "remark32": "pass",
            "thick-shadow": "inconclusive",
            "bar-oracle": "pass",
            "kunneth": "pass",
            "muller:gencogen": "pass",
            "wg-lemma:gencogen": "fail",
        },
    ),
]


def fixture_text(name: str) -> str:
    res = importlib.resources.files("quivalg").joinpath(f"fixtures/{name}.alg")
    return res.read_text(encoding="utf-8")


def load_entry(name: str, field_override: Optional[int] = None) -> catalog.LoadedAlgebra:
    return catalog.load(fixture_text(name), field_override)


def _bar_sweep(loaded: catalog.LoadedAlgebra) -> str:
    """Oracle equivalence on every pair of named standard modules of small
    dimension: bar-resolution Ext must equal minimal-resolution Ext."""
    std = standard_modules(loaded.algebra)
    mods = [std.regular, std.coregular] + std.projectives + std.injectives + std.simples
    seen = set()
    pool = []
    for m in mods:
        if m.dim <= BAR_SWEEP_MAX_DIM:
            key = m.content_hash()
            if key not in seen:
                seen.add(key)
                pool.append(m)
    for m in pool:
        for n in pool:
            if bar_ext_oracle(m, n, BAR_SWEEP_DEGREE).dims != ext_dims(m, n, BAR_SWEEP_DEGREE).dims:
                return "fail"
    return "pass"


def run_entry_checks(
    entry: FixtureEntry,
    cutoff: int,
    seed: int = 0,
    field_override: Optional[int] = None,
) -> list[tuple[str, str]]:
    """Run every applicable check for one corpus entry.

    Returns (check key, verdict) pairs in a fixed order; verdicts are
    compared against the registry's expected column by the caller.  Every
    check is exact; ``seed`` is unused and kept for callers that pass one.
    """
    loaded = load_entry(entry.name, field_override)
    a = loaded.algebra
    out: list[tuple[str, str]] = []
    out.append(("domdim", str(dominant_dimension(a, cutoff))))
    out.append(("diamond", diamond(a, cutoff).verdict))
    out.append(("nc-scan", nc_evidence_scan(a, cutoff).verdict))
    out.append(("remark32", remark32_check(a, cutoff).verdict))
    if entry.tensor_factors is not None:
        fa = load_entry(entry.tensor_factors[0], field_override).algebra
        fb = load_entry(entry.tensor_factors[1], field_override).algebra
        out.append(("kunneth", kunneth_check(fa, fb, cutoff).verdict))
    thick_mods = [
        (nm, catalog.resolve_expression(loaded, nm)) for nm in entry.thick_names
    ]
    out.append(("thick-shadow", thick_shadow_check(a, thick_mods, cutoff).verdict))
    out.append(("bar-oracle", _bar_sweep(loaded)))
    for expr in entry.muller_exprs:
        dm = catalog.resolve_expression(loaded, expr)
        out.append((f"muller:{expr}", muller_check(a, dm, cutoff).verdict))
        out.append((f"wg-lemma:{expr}", wg_lemma_check(a, dm, cutoff).verdict))
    return out
