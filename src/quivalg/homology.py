"""Resolutions, Ext groups, dominant dimension, Nakayama functor.

Minimal resolutions iterate projective covers; every term is a
``DirectSum`` of P(v) over its vertex list, and each map is kept as the
images of the generators of its source.  The injective side is read
through the duality D: mod A -> mod A^op: the injective coresolution of m
is the dual of the projective resolution of D(m), so injective dimension
and dominant dimension resolve a dual module.  Ext, projective dimension
and dominant dimension read the vertex lists and the images, never a
term's action or a dense map.  A module's memo keeps its resolution as far
as it was asked for, with its deepest syzygy only: a deeper request adds
only the missing covers, and no syzygy is built past the last term.  One
syzygy is alive at a time: each is dropped before the next kernel is built.
A syzygy is a ``Submodule`` of its term, read through that term, so its
top and cover never build its action.
End algebras take a ``DirectSum``, one idempotent per summand (minimal
approximations, which read End(m) the same way, live in ``modules``).
Ext dimensions are cohomology ranks of the induced hom complex.
Dominant dimension is reported as evidence: an exact value below the
cutoff, an at-least-cutoff marker, or infinity certified by
self-injectivity.  Truncation is never silently treated as a final answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import Algebra, opposite
from .errors import InputError, InternalCheckError
from .linalg import PrimeMatrix, coordinates, mulmod, nullspace
from .linalg import rref  # noqa: F401  (unused here; read by test_tracer_replaces_every_binding_and_restores_it)
from .modules import (
    DirectSum,
    HomSpace,
    ModuleRep,
    Morphism,
    dualize,
    endo_data,
    generator_map,
    kernel,
    projective_cover,
    standard_modules,
    submodule,
    tensor_over_algebra,
    top_multiplicities,
)

__all__ = [
    "Resolution",
    "ExtTable",
    "DimBound",
    "DomDimEvidence",
    "NakayamaResult",
    "SelfOrthReport",
    "EndoAlgebra",
    "minimal_resolution",
    "ext_dims",
    "pd_bounded",
    "id_bounded",
    "is_projective",
    "is_injective",
    "dominant_dimension",
    "nakayama",
    "self_orthogonal",
    "gen_cogen",
    "endomorphism_algebra",
    "minimal_gen_cogen",
]


# ---------------------------------------------------------------------------
# result types


@dataclass
class Resolution:
    """Minimal projective resolution to a depth.

    maps[0] : terms[0] -> base, maps[i] : terms[i] -> terms[i-1],
    syzygies[i] is the i+1-st syzygy, and column s of images[i] is where
    maps[i] sends the generator of the s-th summand of terms[i].  ``maps``
    and ``syzygies`` are built from the images when read and are not kept.
    An injective coresolution is the dual of the resolution of D(m).
    """

    base: ModuleRep
    terms: list[DirectSum]
    term_summands: list[list[int]]
    images: list[np.ndarray]
    _state: _Resolved = field(repr=False, compare=False)

    @property
    def maps(self) -> list[Morphism]:
        return self._state.dense_maps(self.base, self.terms)

    @property
    def syzygies(self) -> list[ModuleRep]:
        return self._state.syzygies(self.base, len(self.terms) - 1)


@dataclass
class ExtTable:
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


def minimal_resolution(m: ModuleRep, depth: int) -> Resolution:
    """The minimal projective resolution of m to ``depth``, every term a
    ``DirectSum``.

    ``m.memo["resolution"]`` keeps its state without any reference to m, so
    a resolved module is freed by reference counting alone.  A deeper
    request extends that state from its deepest syzygy, which is built only
    when the next cover or ``syzygies`` reads it.
    """
    if depth < 0:
        raise InputError("resolution depth must be nonnegative")
    return m.memo.setdefault("resolution", _Resolved()).resolution(m, depth)


class _Resolved:
    """The minimal projective resolution of a module as far as it has been
    asked for, kept as where the generators of each term go (Green, Solberg
    and Zacharia, Trans. AMS 353, 2001): per degree the term, its vertex
    list and the generator images, and the deepest syzygy taken, with its
    inclusion.  Within one ``extend`` each cover's matrix passes to the step
    that takes its kernel; none is kept after the call, so a later, deeper
    request rebuilds the last cover once, onto the kept syzygy (or the
    module) from the images read in its coordinates.  It holds no reference
    to the module, so methods that need it take it as an argument.
    """

    def __init__(self):
        self.terms: list[DirectSum] = []
        self.summands: list[list[int]] = []
        self.images: list[np.ndarray] = []
        self.cover: Optional[PrimeMatrix] = None  # during extend, until its kernel is taken
        self.syzygy: Optional[tuple[ModuleRep, Morphism]] = None  # the deepest taken, with its inclusion

    def deepest_syzygy(self, m: ModuleRep) -> tuple[ModuleRep, Morphism]:
        """The kernel of the deepest cover in the last term, with its
        inclusion, taken once, after the previous syzygy and the cover's
        matrix are dropped."""
        if self.syzygy is None or self.syzygy[1].target is not self.terms[-1]:
            if self.cover is None:  # onto the kept syzygy, or m, from the images in its coordinates
                target, inc = self.syzygy or (m, None)
                gens = self.images[-1] if inc is None else coordinates(inc.map).read(self.images[-1])
                self.cover = generator_map(target, self.summands[-1], gens)
                del target, inc
            basis, self.cover, self.syzygy = nullspace(self.cover), None, None
            self.syzygy = submodule(self.terms[-1], basis)
        return self.syzygy

    def extend(self, m: ModuleRep, depth: int) -> None:
        """Cover until terms[depth] exists, from the deepest syzygy on; the
        last cover's matrix is not kept."""
        while len(self.terms) <= depth:
            self._cover_next(m)
        self.cover = None

    def _cover_next(self, m: ModuleRep) -> None:
        """Cover m, or the deepest syzygy once a term exists; no cover or
        syzygy outlives the call in its locals."""
        if not self.terms:
            cov = projective_cover(m)
            self.images.append(cov.generators)
        else:
            syz, inc = self.deepest_syzygy(m)
            cov = projective_cover(syz)
            self.images.append(mulmod(inc.map.a, cov.generators, m.algebra.field.p))
        self.terms.append(cov.projective)
        self.summands.append(cov.summands)
        self.cover = cov.morphism.map

    def dense_maps(self, m: ModuleRep, terms: list[ModuleRep]) -> list[Morphism]:
        targets = [m] + terms
        return [Morphism(s, t, generator_map(t, v, u)) for s, t, v, u in zip(terms, targets, self.summands, self.images)]

    def syzygies(self, m: ModuleRep, depth: int) -> list[ModuleRep]:
        """The kernels of maps[0..depth]: the deepest cover's is taken once
        (``deepest_syzygy``), the others are rebuilt from the maps."""
        if depth < len(self.terms) - 1:
            return [kernel(f)[0] for f in self.dense_maps(m, self.terms[: depth + 1])]
        return [kernel(f)[0] for f in self.dense_maps(m, self.terms[:depth])] + [self.deepest_syzygy(m)[0]]

    def resolution(self, m: ModuleRep, depth: int) -> Resolution:
        self.extend(m, depth)
        n = depth + 1
        return Resolution(m, self.terms[:n], self.summands[:n], self.images[:n], self)


# ---------------------------------------------------------------------------
# Ext dimensions


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
    res = minimal_resolution(m, cutoff + 1)
    std = standard_modules(a)
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
        u = res.images[i + 1]
        # x[:, t, s] = u_st in algebra coordinates
        blocks = np.split(u, np.cumsum([pdim[v] for v in src])[:-1])
        x = np.stack([mulmod(std.proj_bases[v].a, b, p) for v, b in zip(src, blocks)], axis=1)
        acts = n._combine(x.reshape(a.dim, -1))
        delta = acts.reshape(len(src), len(tgt), n.dim, n.dim).transpose(1, 2, 0, 3).reshape(len(tgt), n.dim, -1)
        # u_st = e_{v_s}.u_st: row block s must be fixed by e_{v_s}
        if not np.array_equal(mulmod(idem[tgt], delta, p), delta):
            raise InternalCheckError("hom block left its Yoneda cell")
        ranks.append(PrimeMatrix(a.field, delta.reshape(len(tgt) * n.dim, -1)).rank())
    dims = [hom_dims[0] - ranks[0]]
    for i in range(1, cutoff + 1):
        dims.append(hom_dims[i] - ranks[i] - ranks[i - 1])
    return ExtTable(dims)


# ---------------------------------------------------------------------------
# projective / injective dimension up to a cutoff


def pd_bounded(m: ModuleRep, cutoff: int) -> DimBound:
    res = minimal_resolution(m, cutoff)
    for i, t in enumerate(res.terms):
        if t.dim == 0:
            return DimBound("exact", max(i - 1, 0))
    return DimBound("at-least", cutoff)


def id_bounded(m: ModuleRep, cutoff: int) -> DimBound:
    return pd_bounded(dualize(m), cutoff)


def is_projective(m: ModuleRep) -> bool:
    """m is projective iff its projective cover, the sum of mult_i copies of
    P(i) onto m (mult_i the top multiplicities), has dimension dim m."""
    std = standard_modules(m.algebra)
    return sum(k * q.dim for k, q in zip(top_multiplicities(m), std.projectives)) == m.dim


def is_injective(m: ModuleRep) -> bool:
    """Dual test: the dual module is projective over the opposite algebra."""
    return is_projective(dualize(m))


# ---------------------------------------------------------------------------
# dominant dimension


def dominant_dimension(a: Algebra, cutoff: int) -> DomDimEvidence:
    """Evidence per the injective coresolution of the regular module.

    That coresolution is the dual of the projective resolution of D(A)
    over A^op (the opposite algebra's memoized ``coregular``): its term i
    is the sum of the I(v) over the i-th vertex list, projective iff each
    of those I(v) is.  Infinity is certified only by self-injectivity: the
    I(v) are pairwise non-isomorphic indecomposables, so all are
    projective iff they are the P(v).  Otherwise terms are scanned up to
    the cutoff for a non-projective one.
    """
    if cutoff < 1:
        raise InputError("cutoff must be at least 1")
    projective = [is_projective(inj) for inj in standard_modules(a).injectives]
    if all(projective):
        return DomDimEvidence("infinity", None)
    res = minimal_resolution(standard_modules(opposite(a)).coregular, cutoff - 1)
    for i, summands in enumerate(res.term_summands):
        if not all(projective[v] for v in summands):
            return DomDimEvidence("exact", i)
    return DomDimEvidence("at-least", cutoff)


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
    right_mults = a.mult.transpose(1, 2, 0)
    tens = tensor_over_algebra(d_right, m, left=(a, right_mults.transpose(0, 2, 1)))
    route1 = tens.module
    # Hom(m, A) as a right A-module, then dualize
    h = HomSpace(m, std.regular)
    op = opposite(a)
    act = np.stack([h.read(h.postcompose(r)) for r in right_mults])
    hom_as_op = ModuleRep(op, act)
    route2 = dualize(hom_as_op)
    eta_vs = h.matrix.a.T
    relations = (np.eye(a.dim * m.dim, dtype=np.int64) - mulmod(tens.sec.a, tens.proj.a, p)) % p
    if mulmod(eta_vs, relations, p).any():
        raise InternalCheckError("Nakayama map does not vanish on the tensor relations")
    eta = Morphism(route1, route2, PrimeMatrix(a.field, mulmod(eta_vs, tens.sec.a, p)))
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


def _generates(m: ModuleRep) -> bool:
    """Whether m generates: the images of Hom(m, A) span A (the trace
    criterion; Anderson and Fuller, Rings and Categories of Modules, GTM 13,
    section 8).  The Hom basis is row-major vec of dim A x dim m maps, so
    reshaped to dim A rows it is the columns of every basis map side by
    side."""
    a = m.algebra
    h = HomSpace(m, standard_modules(a).regular)
    return PrimeMatrix(a.field, h.matrix.a.reshape(a.dim, -1)).rank() == a.dim


def gen_cogen(m: ModuleRep) -> bool:
    """True iff every P(i) and every I(i) splits off m.

    m generates exactly when some sum of copies of m maps onto A; A is
    projective, so that surjection splits and, by Krull-Schmidt, each P(i)
    splits off m.  Dually m cogenerates exactly when D(m) generates over
    the opposite algebra."""
    return _generates(m) and _generates(dualize(m))


# ---------------------------------------------------------------------------
# endomorphism algebras


@dataclass
class EndoAlgebra:
    """End(m) with multiplication f*g = f o g, plus the bimodule action of
    the endomorphisms on m (end_action[t] is the matrix of basis element t)."""

    algebra: Algebra
    end_action: np.ndarray


def endomorphism_algebra(m: DirectSum, seed: int = 0) -> EndoAlgebra:
    """End(m) of a sum of summands, checked to be basic and elementary, and
    kept in ``m.memo["endomorphism"]``, so every check on m reads one End
    and its memos (radical, standard modules, resolutions).

    Associativity is inherited, not checked: row i of the structure
    constants is an exact read (``HomSpace.read``) of the composites
    F_i o F_j, so sum_k c_ijk F_k = F_i o F_j holds in End_k(m) with the F_k
    independent, and the constants are those of a subalgebra of matrices.
    A composite that is not a member is refused by that read.  What the
    construction does not guarantee is checked by ``Algebra.check_basic``:
    the unit and the idempotents, and, with one idempotent per summand,
    that End(m) is basic and elementary.  That holds exactly when every
    summand has a local End with residue field F_p and dim End/rad End
    equals the number of summands (Assem, Simson and Skowronski, Elements of
    the Representation Theory of Associative Algebras 1, LMS 2006): no two
    summands are then isomorphic.  Any other End is refused with an
    InputError, at every prime.  ``seed`` is unused and kept for callers
    that pass one.
    """
    if "endomorphism" not in m.memo:
        h, mult, coords = endo_data(m)
        labels = [f"f{t}" for t in range(h.dim)]
        algebra = Algebra(m.algebra.field, labels, mult, coords[:, 0], list(coords[:, 1:].T), validate=False)
        algebra.check_basic()
        m.memo["endomorphism"] = EndoAlgebra(algebra, h.maps())
    return m.memo["endomorphism"]


def minimal_gen_cogen(a: Algebra, seed: int = 0) -> DirectSum:
    """The generator-cogenerator with one copy of each P(i) and each I(j)
    not already isomorphic to an included summand.

    An indecomposable I(j) is isomorphic to some P(i) exactly when it is
    projective, and the I(j) are pairwise non-isomorphic, so the test is
    exact; ``seed`` is unused and kept for callers that pass one.
    """
    std = standard_modules(a)
    summands = list(std.projectives)
    summands.extend(inj for inj in std.injectives if not is_projective(inj))
    return DirectSum(a, summands)
