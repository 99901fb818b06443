"""Resolutions, Ext groups, dominant dimension, Nakayama functor.

Minimal resolutions iterate projective covers (injective coresolutions go
through the dual); Ext dimensions are cohomology ranks of the induced hom
complex.  Dominant dimension is reported as evidence: an exact value below
the cutoff, an at-least-cutoff marker, or infinity certified by
self-injectivity.  Truncation is never silently treated as a final answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, opposite
from .errors import InputError, InternalCheckError
from .linalg import PrimeMatrix, mulmod, rref, solve
from .modules import (
    HomSpace,
    ModuleRep,
    Morphism,
    _endo_radical_dim,
    _require_local_end,
    _splits_off,
    direct_sum,
    dualize,
    endo_structure_constants,
    kernel,
    projective_cover,
    standard_modules,
    summand_test,
    tensor_over_algebra,
    zero_module,
)

__all__ = [
    "Resolution",
    "ExtTable",
    "DimBound",
    "DomDimEvidence",
    "DecomposedModule",
    "NakayamaResult",
    "ApproxResult",
    "EndoAlgebra",
    "minimal_resolution",
    "ext_dims",
    "pd_bounded",
    "id_bounded",
    "dominant_dimension",
    "nakayama",
    "self_orthogonal",
    "gen_cogen",
    "min_add_approximation",
    "endomorphism_algebra",
    "minimal_gen_cogen",
]


# ---------------------------------------------------------------------------
# result types


@dataclass
class Resolution:
    """Minimal projective resolution or injective coresolution to a depth.

    For kind "projective": maps[0] : terms[0] -> base, maps[i] : terms[i] ->
    terms[i-1], and syzygies[i] is the i+1-st syzygy.  For kind "injective"
    the arrows point the other way and syzygies are cosyzygies.
    """

    kind: str
    base: ModuleRep
    terms: list[ModuleRep]
    maps: list[Morphism]
    syzygies: list[ModuleRep]
    term_summands: list[list[int]]


@dataclass
class ExtTable:
    source_hash: str
    target_hash: str
    dims: list[int]


@dataclass(frozen=True)
class DimBound:
    """Exact homological dimension below a cutoff, or an explicit marker."""

    kind: str  # "exact" or "at-least"
    value: int

    @property
    def finite(self) -> bool:
        return self.kind == "exact"

    def __str__(self) -> str:
        return str(self.value) if self.kind == "exact" else f"at-least-{self.value}"


@dataclass(frozen=True)
class DomDimEvidence:
    """Dominant dimension evidence at a cutoff.

    kind "exact": the first non-projective coresolution term sits at
    ``value``.  kind "at-least": every term up to cutoff-1 is projective.
    kind "infinity": the regular module itself is injective.
    """

    kind: str  # "exact" | "at-least" | "infinity"
    value: Optional[int]
    cutoff: int

    def __str__(self) -> str:
        if self.kind == "infinity":
            return "infinity-certified"
        if self.kind == "at-least":
            return f"at-least-{self.value}"
        return str(self.value)

    def at_least(self, n: int) -> bool:
        """Whether the evidence guarantees dominant dimension >= n."""
        if self.kind == "infinity":
            return True
        return self.value >= n


# ---------------------------------------------------------------------------
# resolutions


def minimal_resolution(m: ModuleRep, kind: str, depth: int) -> Resolution:
    if depth < 0:
        raise InputError("resolution depth must be nonnegative")
    cache = m.memo.setdefault("resolutions", {})
    hit = cache.get(kind)
    if hit is not None and len(hit.terms) >= depth + 1:
        return Resolution(
            hit.kind,
            hit.base,
            hit.terms[: depth + 1],
            hit.maps[: depth + 1],
            hit.syzygies[: depth + 1],
            hit.term_summands[: depth + 1],
        )
    if kind == "projective":
        res = _projective_resolution(m, depth)
    elif kind == "injective":
        md = dualize(m)
        pres = _projective_resolution(md, depth)
        terms = [dualize(t) for t in pres.terms]
        maps = [Morphism(m, terms[0], pres.maps[0].map.transpose())]
        for i in range(1, len(pres.maps)):
            maps.append(Morphism(terms[i - 1], terms[i], pres.maps[i].map.transpose()))
        syz = [dualize(s) for s in pres.syzygies]
        res = Resolution("injective", m, terms, maps, syz, pres.term_summands)
    else:
        raise InputError(f"unknown resolution kind {kind!r}")
    cache[kind] = res
    return res


def _projective_resolution(m: ModuleRep, depth: int) -> Resolution:
    terms: list[ModuleRep] = []
    maps: list[Morphism] = []
    syzygies: list[ModuleRep] = []
    summands: list[list[int]] = []
    cur = m
    inc_prev: Optional[Morphism] = None
    for i in range(depth + 1):
        cov = projective_cover(cur)
        terms.append(cov.projective)
        summands.append(cov.summands)
        if i == 0:
            maps.append(cov.morphism)
        else:
            maps.append(Morphism(cov.projective, terms[i - 1], inc_prev.map @ cov.morphism.map))
        ker_mod, inc = kernel(cov.morphism)
        syzygies.append(ker_mod)
        cur = ker_mod
        inc_prev = inc
    return Resolution("projective", m, terms, maps, syzygies, summands)


# ---------------------------------------------------------------------------
# Ext dimensions


def _generator_coords(a: Algebra) -> list[np.ndarray]:
    """Coordinates of e_v in the basis ``proj_bases[v]`` of P(v) = A.e_v,
    memoized on the algebra."""
    if "gen_coords" not in a.memo:
        std = standard_modules(a)
        gen_coords = []
        for v, e in enumerate(a.idempotents):
            g = solve(std.proj_bases[v], PrimeMatrix(a.field, e.reshape(-1, 1)))
            if g is None:
                raise InternalCheckError("projective generator not in its basis")
            gen_coords.append(g.a[:, 0])
        a.memo["gen_coords"] = gen_coords
    return a.memo["gen_coords"]


def ext_dims(m: ModuleRep, n: ModuleRep, cutoff: int) -> ExtTable:
    """dim Ext^i(m, n) for 0 <= i <= cutoff: cohomology ranks of Hom(P, n)
    for the minimal projective resolution P of m.

    A map out of P_i is read by its values at the generators e_v of the
    summands P(v) = A.e_v, one in each e_v.n (the Yoneda identification), so
    dim Hom(P(v), n) is the rank of e_v on n.  If d sends the s-th generator
    of P_{i+1} to sum_t u_st, with u_st in e_{v_s}.A.e_{v_t}, then delta_i is
    the block matrix of the actions of the u_st on n.  Since u_st =
    u_st.e_{v_t}, that matrix on all of n^(summands of P_i) has the rank of
    delta_i, so ranks are taken in module coordinates, with no basis of any
    e_v.n.
    """
    if m.algebra.content_hash() != n.algebra.content_hash():
        raise InputError("Ext needs modules over the same algebra")
    if cutoff < 0:
        raise InputError("cutoff must be nonnegative")
    a = m.algebra
    p = a.field.p
    res = minimal_resolution(m, "projective", cutoff + 1)
    std = standard_modules(a)
    gen_coords = _generator_coords(a)
    pdim = [b.cols for b in std.proj_bases]
    idem = np.stack([n.act(e) for e in a.idempotents])
    cell = [PrimeMatrix(a.field, x).rank() for x in idem]

    hom_dims = [sum(cell[v] for v in summ) for summ in res.term_summands]
    ranks = []
    for i in range(cutoff + 1):
        src = res.term_summands[i]
        tgt = res.term_summands[i + 1]
        if not src or not tgt or n.dim == 0:
            ranks.append(0)
            continue
        d = res.maps[i + 1].map.a
        # column s of gens: the generator of the s-th summand of P_{i+1}
        g = np.concatenate([gen_coords[v] for v in tgt])
        gens = np.zeros((g.size, len(tgt)), dtype=np.int64)
        gens[np.arange(g.size), np.repeat(np.arange(len(tgt)), [pdim[v] for v in tgt])] = g
        u = mulmod(d, gens, p)
        # x[:, t, s] = u_st in algebra coordinates
        blocks = np.split(u, np.cumsum([pdim[v] for v in src])[:-1])
        x = np.stack([mulmod(std.proj_bases[v].a, b, p) for v, b in zip(src, blocks)], axis=1)
        acts = mulmod(x.reshape(a.dim, -1).T, n.action.reshape(a.dim, -1), p)
        delta = acts.reshape(len(src), len(tgt), n.dim, n.dim).transpose(1, 2, 0, 3).reshape(len(tgt), n.dim, -1)
        # u_st = e_{v_s}.u_st: row block s must be fixed by e_{v_s}
        if not np.array_equal(mulmod(idem[tgt], delta, p), delta):
            raise InternalCheckError("hom block left its Yoneda cell")
        ranks.append(PrimeMatrix(a.field, delta.reshape(len(tgt) * n.dim, -1)).rank())
    dims = [hom_dims[0] - ranks[0]]
    for i in range(1, cutoff + 1):
        dims.append(hom_dims[i] - ranks[i] - ranks[i - 1])
    return ExtTable(m.content_hash(), n.content_hash(), dims)


# ---------------------------------------------------------------------------
# projective / injective dimension up to a cutoff


def pd_bounded(m: ModuleRep, cutoff: int) -> DimBound:
    res = minimal_resolution(m, "projective", cutoff)
    for i, t in enumerate(res.terms):
        if t.dim == 0:
            return DimBound("exact", max(i - 1, 0))
    return DimBound("at-least", cutoff)


def id_bounded(m: ModuleRep, cutoff: int) -> DimBound:
    return pd_bounded(dualize(m), cutoff)


def is_projective(m: ModuleRep) -> bool:
    """A module is projective iff its projective cover is an isomorphism,
    which for a cover means equal dimensions."""
    return projective_cover(m).projective.dim == m.dim


def is_injective(m: ModuleRep) -> bool:
    """Dual test: the injective envelope is an isomorphism."""
    return projective_cover(dualize(m)).projective.dim == m.dim


# ---------------------------------------------------------------------------
# dominant dimension


def dominant_dimension(a: Algebra, cutoff: int) -> DomDimEvidence:
    """Evidence per the coresolution of the regular module.

    Infinity is certified only by self-injectivity (every indecomposable
    projective has an isomorphic injective envelope); otherwise terms are
    scanned up to the cutoff for a non-projective one.
    """
    if cutoff < 1:
        raise InputError("cutoff must be at least 1")
    std = standard_modules(a)
    if all(is_injective(p) for p in std.projectives):
        return DomDimEvidence("infinity", None, cutoff)
    res = minimal_resolution(std.regular, "injective", cutoff - 1)
    for i, term in enumerate(res.terms):
        if not is_projective(term):
            return DomDimEvidence("exact", i, cutoff)
    return DomDimEvidence("at-least", cutoff, cutoff)


# ---------------------------------------------------------------------------
# Nakayama functor


@dataclass
class NakayamaResult:
    module: ModuleRep  # the tensor route, D(A) (x)_A m
    hom_route: ModuleRep  # D Hom(m, A)
    eta: PrimeMatrix  # the verified isomorphism module -> hom_route


def nakayama(m: ModuleRep) -> NakayamaResult:
    """nu(m) = D(A) (x)_A m, checked exactly against D Hom(m, A).

    The natural map eta: phi (x) x -> (f -> phi(f(x))) is an isomorphism
    for every finitely generated m (Skowronski and Yamagata, Frobenius
    Algebras I, 2011).  In the dual bases used here it sends phi_i (x) m_j
    to the functional f_t -> f_t[i, j], so on the vector-space tensor it is
    the transposed Hom basis; it must vanish on the tensor relations, be a
    module map and be invertible, or the routes disagree.
    """
    a = m.algebra
    p = a.field.p
    std = standard_modules(a)
    # D(A) as a right A-module is the dual of the left regular module;
    # its commuting left action is transposed right multiplication.
    d_right = dualize(std.regular)
    left_action = np.stack(
        [a.right_mult(a.basis_vector(b)).T % p for b in range(a.dim)]
    )
    tens = tensor_over_algebra(d_right, m, left=(a, left_action))
    route1 = tens.module
    # Hom(m, A) as a right A-module, then dualize
    h = HomSpace(m, std.regular)
    op = opposite(a)
    act = np.zeros((a.dim, h.dim, h.dim), dtype=np.int64)
    for b in range(a.dim):
        rb = a.right_mult(a.basis_vector(b))
        for t in range(h.dim):
            act[b, :, t] = h.coords(PrimeMatrix(a.field, (rb @ h.basis_map(t).a) % p))
    hom_as_op = ModuleRep(op, act)
    route2 = dualize(hom_as_op)
    eta_vs = h.matrix.a.T
    relations = np.eye(a.dim * m.dim, dtype=np.int64) - tens.sec.a @ tens.proj.a
    if ((eta_vs @ relations) % p).any():
        raise InternalCheckError("Nakayama map does not vanish on the tensor relations")
    eta = Morphism(route1, route2, PrimeMatrix(a.field, (eta_vs @ tens.sec.a) % p))
    try:
        eta.check()
    except InputError as e:
        raise InternalCheckError(f"Nakayama map is not a module map: {e}") from None
    if not eta.is_iso():
        raise InternalCheckError(
            "Nakayama routes disagree: tensor route dim "
            f"{route1.dim}, hom route dim {route2.dim}"
        )
    return NakayamaResult(route1, route2, eta.map)


# ---------------------------------------------------------------------------
# self-orthogonality and generator-cogenerator tests


@dataclass
class SelfOrthReport:
    self_orthogonal: bool
    first_nonzero_degree: Optional[int]
    table: ExtTable


def self_orthogonal(m: ModuleRep, cutoff: int) -> SelfOrthReport:
    table = ext_dims(m, m, cutoff)
    for i in range(1, cutoff + 1):
        if table.dims[i]:
            return SelfOrthReport(False, i, table)
    return SelfOrthReport(True, None, table)


def gen_cogen(m: ModuleRep) -> bool:
    """True iff every P(i) and every I(i) splits off m."""
    std = standard_modules(m.algebra)
    for p in std.projectives:
        if not summand_test(p, m):
            return False
    for i in std.injectives:
        if not summand_test(i, m):
            return False
    return True


# ---------------------------------------------------------------------------
# minimal right add(m)-approximations


@dataclass
class ApproxResult:
    morphism: Morphism  # m^r -> x
    copies: int


def min_add_approximation(m: ModuleRep, x: ModuleRep) -> ApproxResult:
    """Minimal right add(m)-approximation of x by copies of the whole of m.

    The number of copies is the dimension of Hom(m, x) modulo precomposition
    with rad End(m); representatives of a basis of that quotient assemble
    the map, and surjectivity of Hom(m, -) onto Hom(m, x) is verified.
    """
    alg = m.algebra
    field = alg.field
    if m.dim == 0 or x.dim == 0:
        z = zero_module(alg)
        return ApproxResult(Morphism(z, x, field.zeros(x.dim, 0)), 0)
    h = HomSpace(m, x)
    if h.dim == 0:
        z = zero_module(alg)
        return ApproxResult(Morphism(z, x, field.zeros(x.dim, 0)), 0)
    end = HomSpace(m, m)
    _, rad = _endo_radical_dim(end)
    sub_cols = []
    for s in range(rad.cols):
        rmap = end.from_coords(rad.a[:, s])
        for t in range(h.dim):
            comp = PrimeMatrix(field, (h.basis_map(t).a @ rmap.a) % field.p)
            sub_cols.append(h.coords(comp))
    if sub_cols:
        sub = PrimeMatrix(field, np.array(sub_cols, dtype=np.int64).T)
    else:
        sub = field.zeros(h.dim, 0)
    _, sub_rank, _ = rref(sub)
    combined = sub.hstack(field.identity(h.dim))
    _, _, pivots = rref(combined)
    rep_indices = [c - sub.cols for c in pivots if c >= sub.cols]
    copies = len(rep_indices)
    if copies != h.dim - sub_rank:
        raise InternalCheckError("approximation quotient dimension mismatch")
    reps = [h.basis_map(j) for j in rep_indices]
    big, _, _ = direct_sum([m] * copies)
    mat = PrimeMatrix(field, np.hstack([r.a for r in reps]))
    phi = Morphism(big, x, mat)
    # surjectivity of Hom(m, phi): composites rep_j o e span Hom(m, x)
    cols = []
    for r in reps:
        for s in range(end.dim):
            comp = PrimeMatrix(field, (r.a @ end.basis_map(s).a) % field.p)
            cols.append(h.coords(comp))
    span = PrimeMatrix(field, np.array(cols, dtype=np.int64).T)
    if span.rank() != h.dim:
        raise InternalCheckError("approximation is not right minimal/approximating")
    return ApproxResult(phi, copies)


# ---------------------------------------------------------------------------
# endomorphism algebras


@dataclass
class DecomposedModule:
    """A module with a chosen direct sum decomposition into summands whose
    endomorphism algebras are local (checked lazily by consumers)."""

    module: ModuleRep
    summands: list[ModuleRep]
    inclusions: list[Morphism]
    projections: list[Morphism]

    @staticmethod
    def from_summands(mods: list[ModuleRep]) -> "DecomposedModule":
        big, incs, projs = direct_sum(mods)
        return DecomposedModule(big, mods, incs, projs)


@dataclass
class EndoAlgebra:
    """End(m) with multiplication f*g = f o g, plus the bimodule action of
    the endomorphisms on m (end_action[t] is the matrix of basis element t)."""

    algebra: Algebra
    hom: HomSpace
    end_action: np.ndarray


def endomorphism_algebra(dm: DecomposedModule, seed: int = 0) -> EndoAlgebra:
    """End(m) of a decomposed module, checked to be basic and elementary.

    Both checks are exact; ``seed`` is unused and kept for callers that
    pass one.
    """
    m = dm.module
    alg = m.algebra
    field = alg.field
    if m.dim == 0:
        raise InputError("endomorphism algebra of the zero module is not basic")
    # elementary: each End(summand) local
    for i, s in enumerate(dm.summands):
        _require_local_end(s, f"summand {i} does not have a local endomorphism algebra")
    # basic: no two summands isomorphic.  Indecomposables of equal dimension
    # are isomorphic iff one splits off the other.
    for i, si in enumerate(dm.summands):
        for j in range(i + 1, len(dm.summands)):
            sj = dm.summands[j]
            if si.dim == sj.dim and _splits_off(si, sj):
                raise InputError(
                    f"endomorphism algebra is not basic: summands {i} and {j} "
                    "are isomorphic"
                )
    h = HomSpace(m, m)
    mult = endo_structure_constants(h)
    unit = h.coords(field.identity(m.dim))
    idem = []
    for inc, proj in zip(dm.inclusions, dm.projections):
        idem.append(h.coords(inc.map @ proj.map))
    labels = [f"f{t}" for t in range(h.dim)]
    algebra = Algebra(field, labels, mult, unit, idem)
    end_action = np.stack([h.basis_map(t).a for t in range(h.dim)])
    return EndoAlgebra(algebra, h, end_action)


def minimal_gen_cogen(a: Algebra, seed: int = 0) -> DecomposedModule:
    """The generator-cogenerator with one copy of each P(i) and each I(j)
    not already isomorphic to an included summand.

    An indecomposable I(j) is isomorphic to some P(i) exactly when it is
    projective, and the I(j) are pairwise non-isomorphic, so the test is
    exact; ``seed`` is unused and kept for callers that pass one.
    """
    std = standard_modules(a)
    summands = list(std.projectives)
    summands.extend(inj for inj in std.injectives if not is_projective(inj))
    return DecomposedModule.from_summands(summands)
