"""Finite-dimensional left modules and their morphisms.

A ModuleRep stores one dim x dim action matrix per algebra basis element.
Its reads multiply at most 2^16 action entries, or one matrix, at once: a
small module's whole action, a large one's a few basis elements at a time
(``act`` skips zero coefficients), so no read copies a large action whole.
A ``DirectSum`` is a direct sum kept as its list of summands: projective
covers, resolution terms and every named sum are kept that way, and its
action matrices are built only when some caller reads them.  Submodules read
the moved copies of their basis from ``ModuleRep.moved``, by those blocks
for a dense module and one product per distinct summand for a sum, so
a kernel out of a sum never touches the sum's zero blocks; they read it a
block of basis columns at a time, so a large kernel never holds all of its
moved copies at once; a quotient reads the moved copies of its section the
same way.  The radical and top of a module read only the action of the
algebra's arrows (``Algebra.arrows``), which generate its radical.  The
image and cokernel of a map are ``submodule`` and ``quotient_module``.
All constructions (kernels, quotients, duals, covers) produce explicit
matrices with deterministic bases, so downstream invariants are
bit-reproducible.  Minimal right add(m)-approximations and isomorphism read
one routine, the top of Hom(m, x) over End(m) (``_top_of_hom``): it takes
rad End(m) once, groups the summands of m into isoclasses and keeps, per
class, the maps outside Hom(m, x)*rad End(m).  Both are exact at every
prime; nothing here is randomized.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, column_span_basis, enveloping, opposite, radical
from .errors import InputError, InternalCheckError
from .linalg import PrimeMatrix, complement_projection, coordinates, mulmod, nullspace, rref
from .linalg import solve  # noqa: F401  (unused here; perfbench's tracer test reads modules.solve)

__all__ = [
    "ModuleRep",
    "DirectSum",
    "Morphism",
    "StandardModules",
    "zero_module",
    "regular_module",
    "submodule",
    "quotient_module",
    "HomSpace",
    "kernel",
    "dualize",
    "standard_modules",
    "Cover",
    "generator_map",
    "top",
    "top_multiplicities",
    "projective_cover",
    "ApproxResult",
    "min_add_approximation",
    "is_isomorphic",
    "tensor_over_algebra",
    "TensorResult",
    "enveloping_module",
    "module_over_tensor",
    "endo_structure_constants",
    "endo_data",
]

_BLOCK = 2**16  # the most action or moved entries that one product reads


class ModuleRep:
    """Left module over a basic algebra, given by action matrices.

    ``memo`` caches values derived from the action, which is immutable by
    convention.  The homology layer sets "resolution", the state of the
    minimal projective resolution as far as it was asked for: its terms and
    generator images, and its deepest syzygy; the bar oracle in ``checks``
    sets "bar_graded" and "bar_chains".
    """

    def __init__(self, algebra: Algebra, action: np.ndarray):
        self._hold(algebra, np.asarray(action, dtype=np.int64) % algebra.field.p)

    @classmethod
    def _built(cls, algebra: Algebra, action: np.ndarray) -> "ModuleRep":
        """On a reduced int64 action no caller holds: kept, not copied."""
        m = cls.__new__(cls)
        m._hold(algebra, action)
        return m

    def _hold(self, algebra: Algebra, action: np.ndarray):
        if action.ndim != 3 or action.shape[0] != algebra.dim or action.shape[1] != action.shape[2]:
            raise InputError("action tensor has wrong shape")
        self.algebra, self.action, self.dim, self.memo = algebra, action, action.shape[1], {}

    def act(self, x: np.ndarray) -> np.ndarray:
        """Matrix of the action of the algebra element with coordinates x."""
        return self._combine(np.asarray(x)[:, None])[0]

    def _combine(self, x: np.ndarray) -> np.ndarray:
        """The actions of the algebra elements with coordinates the columns
        of x, r x dim x dim: one product if the action has at most _BLOCK
        entries, else a sum over each element's nonzero coordinates, one
        action matrix at a time."""
        p, n = self.algebra.field.p, self.dim
        x = np.asarray(x, dtype=np.int64) % p
        if self.action.size <= _BLOCK:
            return mulmod(x.T, self.action.reshape(len(x), n * n), p).reshape(x.shape[1], n, n)
        out = np.zeros((x.shape[1], n, n), dtype=np.int64)
        for a, j in zip(*np.nonzero(x)):
            out[j] += x[a, j] * self.action[a]  # below p + (p-1)^2 < 2^63
            out[j] %= p
        return out

    def moved(self, basis: np.ndarray) -> np.ndarray:
        """The copies of basis (dim x k) moved by every algebra basis
        element, side by side: [a_0.basis | a_1.basis | ...], from
        products of at most _BLOCK action entries or one matrix."""
        d, n, k = self.algebra.dim, self.dim, basis.shape[1]
        step = max(1, _BLOCK // max(1, n * n))
        out = np.empty((n, d, k), dtype=np.int64)
        for a in range(0, d, step):
            block = self.action[a : a + step]
            prod = mulmod(block.reshape(len(block) * n, n), basis, self.algebra.field.p)
            out[:, a : a + step] = prod.reshape(len(block), n, k).transpose(1, 0, 2)
        return out.reshape(n, d * k)

    def check(self):
        """Assert the action respects structure constants and the unit.

        Both sides are products mod p (``mulmod``), exact at every modulus
        a field accepts.
        """
        alg = self.algebra
        p = alg.field.p
        d, n = alg.dim, self.dim
        # lhs[a, b] = action[a] @ action[b]; rhs[a, b] = sum_c mult[a, b, c] action[c]
        lhs = mulmod(self.action.reshape(d * n, n), self.action.transpose(1, 0, 2).reshape(n, d * n), p)
        lhs = lhs.reshape(d, n, d, n).transpose(0, 2, 1, 3)
        rhs = mulmod(alg.mult.reshape(d * d, d), self.action.reshape(d, n * n), p).reshape(d, d, n, n)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere((lhs != rhs).any(axis=(2, 3)))[0]
            raise InputError(
                f"action violates structure constants on basis pair "
                f"({alg.labels[bad[0]]}, {alg.labels[bad[1]]})"
            )
        if not np.array_equal(self.act(alg.unit), np.eye(self.dim, dtype=np.int64)):
            raise InputError("unit does not act as the identity")

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(b"module")
        h.update(self.algebra.content_hash().encode())
        h.update(self.dim.to_bytes(8, "little"))
        h.update(self.action.tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:
        return f"ModuleRep(dim={self.dim} over dim-{self.algebra.dim} algebra)"


class DirectSum(ModuleRep):
    """Direct sum of ``summands``, kept as the list: summand s has the
    coordinates ``offsets[s]`` to ``offsets[s + 1]``.  ``action``, the block
    action, is built when first read."""

    def __init__(self, algebra: Algebra, summands: list[ModuleRep]):
        for m in summands:
            if m.algebra is not algebra and m.algebra.content_hash() != algebra.content_hash():
                raise InputError("direct sum of modules over different algebras")
        self.algebra = algebra
        self.summands = list(summands)
        self.offsets = np.cumsum([0] + [m.dim for m in self.summands])
        self.dim = int(self.offsets[-1])
        self.memo: dict = {}

    @functools.cached_property
    def action(self) -> np.ndarray:
        offs = self.offsets
        action = np.zeros((self.algebra.dim, self.dim, self.dim), dtype=np.int64)
        for s, m in enumerate(self.summands):
            action[:, offs[s] : offs[s + 1], offs[s] : offs[s + 1]] = m.action
        return action

    def moved(self, basis: np.ndarray) -> np.ndarray:
        """As ``ModuleRep.moved``, with one product per distinct summand
        object: its stacked action times the rows of basis on every slot it
        fills, placed side by side."""
        d, k = self.algebra.dim, basis.shape[1]
        out = np.empty((self.dim, d, k), dtype=np.int64)
        slots_of: dict[int, list[int]] = {}
        for s, m in enumerate(self.summands):
            if m.dim:
                slots_of.setdefault(id(m), []).append(s)
        for slots in slots_of.values():
            block = self.summands[slots[0]]
            rows = np.concatenate([np.arange(self.offsets[s], self.offsets[s + 1]) for s in slots])
            side = basis[rows].reshape(len(slots), block.dim, k).transpose(1, 0, 2).reshape(block.dim, -1)
            prod = mulmod(block.action.reshape(d * block.dim, block.dim), side, self.algebra.field.p)
            out[rows] = prod.reshape(d, block.dim, len(slots), k).transpose(2, 1, 0, 3).reshape(len(rows), d, k)
        return out.reshape(self.dim, d * k)


@dataclass
class Morphism:
    """Linear map intertwining two module actions; map is target.dim x source.dim."""

    source: ModuleRep
    target: ModuleRep
    map: PrimeMatrix

    def __post_init__(self):
        if self.map.rows != self.target.dim or self.map.cols != self.source.dim:
            raise InputError("morphism matrix has wrong shape")

    def check(self):
        p = self.map.field.p
        for a in range(self.source.algebra.dim):
            lhs = mulmod(self.map.a, self.source.action[a], p)
            rhs = mulmod(self.target.action[a], self.map.a, p)
            if not np.array_equal(lhs, rhs):
                raise InputError(
                    f"map does not intertwine basis element "
                    f"{self.source.algebra.labels[a]}"
                )

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and self.map.is_invertible()


# ---------------------------------------------------------------------------
# elementary constructions


def zero_module(algebra: Algebra) -> ModuleRep:
    return ModuleRep(algebra, np.zeros((algebra.dim, 0, 0), dtype=np.int64))


def regular_module(algebra: Algebra) -> ModuleRep:
    return ModuleRep(algebra, algebra.regular_action())


def submodule(m: ModuleRep, basis: PrimeMatrix) -> tuple[ModuleRep, Morphism]:
    """Module structure on an invariant subspace; columns of basis must be
    independent and closed under the action.

    The action of each algebra basis element on the subspace is the
    coordinates of the moved basis.  They are read from ``m.moved`` a block
    of basis columns at a time, at most 2^16 moved entries per block, and
    each block is written straight into the action: a whole small module is
    one block, and a large one never holds every moved copy at once.  Every
    column is checked for membership.
    """
    alg = m.algebra
    d, c = alg.dim, basis.cols
    if c == 0:
        sub = zero_module(alg)
        return sub, Morphism(sub, m, basis)
    reader = coordinates(basis)
    if reader is None:
        raise InputError("submodule basis has dependent columns")
    step = max(1, _BLOCK // (m.dim * d))
    action = np.empty((d, c, c), dtype=np.int64)
    for j in range(0, c, step):
        coords = reader.read(m.moved(basis.a[:, j : j + step]))
        if coords is None:
            raise InputError("subspace is not invariant under the action")
        action[:, :, j : j + step] = coords.reshape(c, d, -1).transpose(1, 0, 2)
    sub = ModuleRep._built(alg, action)
    return sub, Morphism(sub, m, basis)


def quotient_module(m: ModuleRep, sub: PrimeMatrix) -> tuple[ModuleRep, Morphism, PrimeMatrix]:
    """Quotient of m by the invariant subspace spanned by sub's columns.

    Returns (quotient, projection morphism, section matrix); the section
    picks the deterministic complement basis (non-pivot coordinates).
    """
    alg = m.algebra
    proj, sec = complement_projection(sub)
    q = proj.rows
    # proj . a . sec for every basis element a: the moved section, then one product
    action = mulmod(proj.a, m.moved(sec.a), alg.field.p).reshape(q, alg.dim, q).transpose(1, 0, 2)
    quot = ModuleRep._built(alg, np.ascontiguousarray(action))
    return quot, Morphism(m, quot, proj), sec


# ---------------------------------------------------------------------------
# hom spaces


class HomSpace:
    """Basis of Hom_A(m, n) with coordinate bookkeeping.

    Vectorisation is row-major on (n.dim, m.dim) matrices; the basis is the
    deterministic nullspace basis of the intertwining constraints, one block
    per basis element of the algebra.
    That basis is the identity on its free rows (the free row of a basis
    column is its last nonzero row), so the coordinates of a member f
    are the entries of vec(f) on those rows, and membership is exact:
    ``matrix @ c == vec(f)`` mod p holds iff f intertwines, since the columns
    span the whole hom space.  ``linalg.coordinates`` finds those rows and
    reads by that gather.  Reads are batched: ``read`` takes a stack of
    maps, typically every basis map composed with one fixed map
    (``precompose``, ``postcompose``), and returns all their coordinates
    from one gather and one membership product.  No elimination runs after
    construction.
    """

    def __init__(self, m: ModuleRep, n: ModuleRep):
        if m.algebra is not n.algebra and m.algebra.content_hash() != n.algebra.content_hash():
            raise InputError("hom space needs modules over the same algebra")
        self.source = m
        self.target = n
        alg = m.algebra
        p = alg.field.p
        nm = n.dim * m.dim
        blocks = [
            (np.kron(np.eye(n.dim, dtype=np.int64), rho_m.T) - np.kron(rho_n, np.eye(m.dim, dtype=np.int64))) % p
            for rho_m, rho_n in zip(m.action, n.action)
        ]
        constraints = PrimeMatrix(alg.field, np.vstack(blocks) if blocks else np.zeros((0, nm), dtype=np.int64))
        self.matrix = nullspace(constraints)
        self.dim = self.matrix.cols
        self._reader = coordinates(self.matrix)

    def maps(self) -> np.ndarray:
        """The basis maps as one (dim, target.dim, source.dim) array."""
        return self.matrix.a.T.reshape(self.dim, self.target.dim, self.source.dim)

    def precompose(self, g: np.ndarray) -> np.ndarray:
        """The stack f o g over the basis maps f; g is source.dim x k."""
        p = self.matrix.field.p
        stacked = self.maps().reshape(self.dim * self.target.dim, self.source.dim)
        return mulmod(stacked, g, p).reshape(self.dim, self.target.dim, g.shape[1])

    @functools.cached_property
    def _side_by_side(self) -> np.ndarray:
        """The basis maps side by side, [F_0 | ... | F_{d-1}], in float64
        (``mulmod`` reads float64 operands without converting them)."""
        stack = self.maps().transpose(1, 0, 2).reshape(self.target.dim, self.dim * self.source.dim)
        return stack.astype(np.float64)

    def postcompose(self, g: np.ndarray) -> np.ndarray:
        """The stack g o f over the basis maps f; g is k x target.dim."""
        p = self.matrix.field.p
        prod = mulmod(g, self._side_by_side, p)
        return prod.reshape(g.shape[0], self.dim, self.source.dim).transpose(1, 0, 2)

    def read(self, maps: np.ndarray) -> np.ndarray:
        """Coordinates of a stack of k intertwiners (k, target.dim,
        source.dim) as the columns of a dim x k array; InputError if any is
        not one.  Entries need not be reduced mod p."""
        c = self._reader.read(maps.reshape(len(maps), self.target.dim * self.source.dim).T)
        if c is None:
            raise InputError("map is not in the hom space")
        return c


# ---------------------------------------------------------------------------
# kernels, duality


def kernel(f: Morphism) -> tuple[ModuleRep, Morphism]:
    basis = nullspace(f.map)
    return submodule(f.source, basis)


def dualize(m: ModuleRep) -> ModuleRep:
    """k-linear dual, a module over the opposite algebra (transposed action).
    Dualizing twice returns equal matrices over the original algebra."""
    return ModuleRep._built(opposite(m.algebra), np.transpose(m.action, (0, 2, 1)).copy())


# ---------------------------------------------------------------------------
# top and radical of a module


def _radical_span(m: ModuleRep) -> PrimeMatrix:
    """Columns spanning rad(m) = X.m: the actions on m of the arrows X
    (``Algebra.arrows``) side by side."""
    arr = m._combine(m.algebra.arrows().a)
    return PrimeMatrix(m.algebra.field, arr.transpose(1, 0, 2).reshape(m.dim, len(arr) * m.dim))


def top(m: ModuleRep) -> tuple[ModuleRep, Morphism]:
    quot, proj, _ = quotient_module(m, _radical_span(m))
    return quot, proj


def _top_lifts(m: ModuleRep) -> list[np.ndarray]:
    """Per vertex i, lifts to e_i.m of a basis of e_i.top(m), as columns.
    With the projection and section of top(m) = m/rad(m), e_i acts on top(m)
    by proj.e_i.sec, and e_i.sec lifts a basis of its column span."""
    alg = m.algebra
    p = alg.field.p
    proj, sec = complement_projection(_radical_span(m))
    lifts = []
    for e in alg.idempotents:
        e_sec = mulmod(m.act(e), sec.a, p)
        block = column_span_basis(PrimeMatrix(alg.field, mulmod(proj.a, e_sec, p)))
        lifts.append(mulmod(e_sec, block.a, p))
    return lifts


def top_multiplicities(m: ModuleRep) -> list[int]:
    """Multiplicity of each simple S(i) in top(m)."""
    return [lift.shape[1] for lift in _top_lifts(m)]


# ---------------------------------------------------------------------------
# standard modules


@dataclass
class StandardModules:
    """P(i), S(i), I(i) per idempotent, the regular module and its dual."""

    regular: ModuleRep
    coregular: ModuleRep  # D(A) as a left module
    projectives: list[ModuleRep]
    proj_bases: list[PrimeMatrix]  # basis of A.e_i in algebra coordinates
    simples: list[ModuleRep]
    injectives: list[ModuleRep]


def _projectives(a: Algebra) -> tuple[ModuleRep, list[ModuleRep], list[PrimeMatrix]]:
    """The regular module, each P(i) = A.e_i and its basis in algebra
    coordinates, memoized on the algebra: the injectives of A are the duals
    of the P(i) of the opposite algebra, so both algebras read one build."""
    if "projectives" not in a.memo:
        reg = regular_module(a)
        projectives, proj_bases = [], []
        for e in a.idempotents:
            basis = column_span_basis(PrimeMatrix(a.field, a.right_mult(e)))
            pi, _ = submodule(reg, basis)
            projectives.append(pi)
            proj_bases.append(basis)
        a.memo["projectives"] = (reg, projectives, proj_bases)
    return a.memo["projectives"]


def standard_modules(a: Algebra) -> StandardModules:
    if "standard_modules" in a.memo:
        return a.memo["standard_modules"]
    reg, projectives, proj_bases = _projectives(a)
    simples = [top(pi)[0] for pi in projectives]
    reg_op, op_projectives, _ = _projectives(opposite(a))
    injectives = [dualize(pi_op) for pi_op in op_projectives]
    std = StandardModules(reg, dualize(reg_op), projectives, proj_bases, simples, injectives)
    a.memo["standard_modules"] = std
    return std


# ---------------------------------------------------------------------------
# projective covers


@dataclass
class Cover:
    """A projective cover P -> m, with the vertex index of each
    indecomposable summand of P and the images of their generators: column
    s is where the generator e_v of the s-th summand P(v) goes.  The
    injective envelope of m is the dual of the cover of D(m)."""

    morphism: Morphism
    summands: list[int]
    generators: np.ndarray

    @property
    def projective(self) -> ModuleRep:
        return self.morphism.source


def generator_map(target: ModuleRep, vertices: list[int], images: np.ndarray) -> PrimeMatrix:
    """The matrix of the map from the sum of P(v) over ``vertices`` to target
    that sends the generator e_v of the s-th summand to images[:, s].

    The summand P(v) = A.e_v maps by x -> x.w for its image w; with
    aw[:, a] = action[a] @ w the images of the basis of A.e_v are aw @ basis.
    """
    alg = target.algebra
    if not vertices:
        return alg.field.zeros(target.dim, 0)
    proj_bases = standard_modules(alg).proj_bases
    bases = [proj_bases[v].a for v in vertices]
    aw = target.moved(images).reshape(target.dim, alg.dim, len(vertices))
    offs = np.cumsum([0] + [b.shape[1] for b in bases])
    out = np.empty((target.dim, offs[-1]), dtype=np.int64)
    for s, b in enumerate(bases):
        out[:, offs[s] : offs[s + 1]] = mulmod(aw[:, :, s], b, alg.field.p)
    return PrimeMatrix(alg.field, out)


def projective_cover(m: ModuleRep) -> Cover:
    """Cover by one P(i) per basis vector of e_i.top(m), as a ``DirectSum``:
    each such vector lifts to a generator image in e_i.m (``_top_lifts``)."""
    alg = m.algebra
    lifts = _top_lifts(m)
    vertex_of = [i for i, lift in enumerate(lifts) for _ in range(lift.shape[1])]
    big = DirectSum(alg, [standard_modules(alg).projectives[v] for v in vertex_of])
    images = np.hstack(lifts)
    return Cover(Morphism(big, m, generator_map(m, vertex_of, images)), vertex_of, images)


# ---------------------------------------------------------------------------
# endomorphisms and isomorphism tests


def endo_structure_constants(hs: HomSpace) -> np.ndarray:
    """Structure constants of End(m) in the hom basis, with f*g = f o g:
    row i is one read of the products f_i o f_j over all j."""
    d = hs.dim
    mult = np.zeros((d, d, d), dtype=np.int64)
    for i, f in enumerate(hs.maps()):
        mult[i] = hs.read(hs.postcompose(f)).T
    return mult


def endo_data(m: DirectSum) -> tuple[HomSpace, np.ndarray, np.ndarray]:
    """Hom(m, m), End(m)'s structure constants, and the coordinates of the
    unit followed by the idempotent of each summand (one column each): the
    identity on the summand's block of coordinates."""
    if m.dim == 0:
        raise InputError("endomorphism algebra of the zero module is not basic")
    h, at = HomSpace(m, m), np.arange(m.dim)
    idem = [np.diag((lo <= at) & (at < hi)).astype(np.int64) for lo, hi in zip(m.offsets, m.offsets[1:])]
    return h, endo_structure_constants(h), h.read(np.stack([np.eye(m.dim, dtype=np.int64)] + idem))


def _top_of_hom(m: DirectSum, x: ModuleRep) -> list[tuple[list[int], np.ndarray]]:
    """Per isoclass of m's summands, (its summands, maps M_i -> x) with i its
    first summand: the top of H = Hom(m, x) as a right End(m)-module.

    With R = rad End(m) (InputError unless each summand has a local End with
    residue field F_p), summands i and j are isomorphic iff e_j*End(m)*e_i
    is not inside R.  The d_i maps of H*e_i outside H*R*e_i, restricted to
    M_i, assemble f: sum M_i^(d_i) -> x, a right minimal approximation
    (Auslander, Reiten and Smalo, Representation Theory of Artin Algebras,
    I.2); that Hom(m, f) is onto H is checked.  A zero H leaves End(m)
    unread: each summand is its own class, with no map.
    """
    h = HomSpace(m, x)
    if h.dim == 0:  # zero modules included
        return [([i], np.zeros((0, x.dim, s.dim), dtype=np.int64)) for i, s in enumerate(m.summands)]
    field, p, k = m.algebra.field, m.algebra.field.p, len(m.summands)
    end, mult, coords = endo_data(m)
    d, idem = end.dim, coords[:, 1:]
    rad = radical(field, mult, list(idem.T))
    # e_j*b_t*e_i modulo R for every pair, read on a complement of R
    quot, _ = complement_projection(rad)
    left = mulmod(idem.T, mult.reshape(d, d * d), p).reshape(k * d, d)  # [(j, t), s]: e_j*b_t
    right = mulmod(mult.transpose(0, 2, 1).reshape(d * d, d), idem, p).reshape(d, d, k)  # [s, c, i]: b_s*e_i
    residue = mulmod(right.transpose(2, 0, 1).reshape(k * d, d), quot.a.T, p).reshape(k, d, quot.rows)
    linked = mulmod(left, residue.transpose(1, 0, 2).reshape(d, -1), p).reshape(k, d, k, -1).any(axis=(1, 3))
    first = np.argmax(linked | np.eye(k, dtype=bool), axis=0)  # the first summand isomorphic to each
    rad_maps = mulmod(end.matrix.a, rad.a, p).T.reshape(rad.cols, m.dim, m.dim)
    classes, composites = [], [np.zeros((h.dim, 0), dtype=np.int64)]
    for i in sorted(set(first.tolist())):
        lo, hi = m.offsets[i], m.offsets[i + 1]
        # H*R*e_i and H*e_i restricted to M_i, one column per map; the pivots
        # of H*e_i modulo H*R*e_i pick its maps outside H*R*e_i
        hr = h.precompose(rad_maps[:, :, lo:hi].transpose(1, 0, 2).reshape(m.dim, -1))
        hr = hr.reshape(h.dim, x.dim, rad.cols, hi - lo).transpose(1, 3, 0, 2)
        he = h.maps()[:, :, lo:hi]
        modulo, _ = complement_projection(PrimeMatrix(field, hr.reshape(he[0].size, h.dim * rad.cols)))
        _, _, outside = rref(PrimeMatrix(field, mulmod(modulo.a, he.reshape(h.dim, -1).T, p)))
        classes.append(([j for j in range(k) if first[j] == i], he[outside]))
        in_block = (lo <= np.arange(m.dim)) & (np.arange(m.dim) < hi)  # f_j o e_i
        composites.extend(h.read(end.postcompose(h.maps()[j] * in_block)) for j in outside)
    # Hom(m, f) is onto H iff the composites f_j o e_i o End(m) span H
    if PrimeMatrix(field, np.hstack(composites)).rank() != h.dim:
        raise InternalCheckError("approximation does not map onto Hom(m, x): Hom(m, f) is not surjective")
    return classes


@dataclass
class ApproxResult:
    """f: sum M_i^(d_i) -> x as a flat ``DirectSum``; ``multiplicities`` has
    d_i at the first summand of each isoclass of m and 0 elsewhere."""

    morphism: Morphism
    multiplicities: list[int]


def min_add_approximation(m: DirectSum, x: ModuleRep) -> ApproxResult:
    """Minimal right add(m)-approximation of x (``_top_of_hom``)."""
    multiplicities = [0] * len(m.summands)
    source, maps = [], [np.zeros((x.dim, 0), dtype=np.int64)]
    for members, tops in _top_of_hom(m, x):
        multiplicities[members[0]] = len(tops)
        source.extend([m.summands[members[0]]] * len(tops))
        maps.extend(tops)
    f = PrimeMatrix(m.algebra.field, np.hstack(maps))
    return ApproxResult(Morphism(DirectSum(m.algebra, source), x, f), multiplicities)


def is_isomorphic(summands: list[ModuleRep], n: ModuleRep) -> bool:
    """Is n isomorphic to the sum m of ``summands``?  Exact at every prime;
    isomorphic summands are allowed.  With f: sum M_i^(d_i) -> n from
    ``_top_of_hom``, it is iff every d_i is the size of its isoclass and f
    is invertible: an isomorphism m -> n is its own minimal approximation.
    """
    m = DirectSum(n.algebra, [s for s in summands if s.dim])  # a zero summand has no class
    if m.dim != n.dim:
        return False
    classes = _top_of_hom(m, n)
    maps = [np.zeros((n.dim, 0), dtype=np.int64)] + [f for _, tops in classes for f in tops]
    sizes = all(len(tops) == len(members) for members, tops in classes)
    return sizes and PrimeMatrix(m.algebra.field, np.hstack(maps)).is_invertible()


# ---------------------------------------------------------------------------
# tensor products over the algebra


@dataclass
class TensorResult:
    """x (x)_A y as an explicit quotient of the vector-space tensor product."""

    dim: int
    proj: PrimeMatrix  # (x.dim * y.dim) -> dim
    sec: PrimeMatrix
    module: Optional[ModuleRep]  # present when a commuting left action was given


def tensor_over_algebra(
    x_right: ModuleRep,
    y: ModuleRep,
    left: Optional[tuple[Algebra, np.ndarray]] = None,
) -> TensorResult:
    """Tensor over A of a right module (given as a module over A^op) with a
    left module.

    ``left`` optionally supplies (B, matrices) for a left B-action on x that
    commutes with the right A-action; the quotient then inherits it.
    """
    a_op = x_right.algebra
    a = opposite(a_op)
    if y.algebra is not a and y.algebra.content_hash() != a.content_hash():
        raise InputError("tensor factors are not over matching algebras")
    field = a.field
    p = field.p
    dx, dy = x_right.dim, y.dim
    big = dx * dy
    eye_x = np.eye(dx, dtype=np.int64)
    eye_y = np.eye(dy, dtype=np.int64)
    rels = [(np.kron(rx, eye_y) - np.kron(eye_x, ry)) % p for rx, ry in zip(x_right.action, y.action)]
    relmat = PrimeMatrix(field, np.hstack(rels) if rels else np.zeros((big, 0), dtype=np.int64))
    proj, sec = complement_projection(relmat)
    module = None
    if left is not None:
        b_alg, left_action = left
        action = np.zeros((b_alg.dim, proj.rows, proj.rows), dtype=np.int64)
        for bi in range(b_alg.dim):
            action[bi] = mulmod(mulmod(proj.a, np.kron(left_action[bi] % p, eye_y), p), sec.a, p)
        module = ModuleRep(b_alg, action)
    return TensorResult(proj.rows, proj, sec, module)


def enveloping_module(a: Algebra, env: Optional[Algebra] = None) -> ModuleRep:
    """The algebra as a left module over its enveloping algebra A (x) A^op:
    the pair (u, v) acts by z -> u z v."""
    if env is None:
        env = enveloping(a)
    return module_over_tensor(env, a.dim, a.regular_action(), a.mult.transpose(1, 2, 0))


def module_over_tensor(axb: Algebra, left_dim_a: int, left_action: np.ndarray, right_action: np.ndarray) -> ModuleRep:
    """Module over a tensor algebra A (x) B from commuting actions.

    ``left_action`` has one matrix per A basis element, ``right_action`` one
    per B basis element; the pair basis (u, v) acts by their product.
    """
    dim_b = axb.dim // left_dim_a
    d = left_action.shape[1]
    p = axb.field.p
    left_action, right_action = left_action % p, right_action % p
    action = np.zeros((axb.dim, d, d), dtype=np.int64)
    for u in range(left_dim_a):
        for v in range(dim_b):
            action[u * dim_b + v] = mulmod(left_action[u], right_action[v], p)
    return ModuleRep(axb, action)
