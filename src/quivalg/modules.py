"""Finite-dimensional left modules and their morphisms.

A ModuleRep stores one dim x dim action matrix per algebra basis element;
its reads multiply at most 2^16 action entries, or one matrix, at once, so
no read copies a large action whole.  A ``DirectSum`` is kept as its list of
summands and a ``Submodule`` as its ambient module and basis; both build
their action matrices only when some caller reads them.  A sum reads with
one product per distinct summand, so a kernel out of a sum never touches
its zero blocks.  A submodule reads through its ambient module, a block of
columns at a time, and gathers the coordinates.  Tests of A-linearity read
the idempotents and the arrows (``_generators``), which generate A:
``ModuleRep.check``, ``Morphism.check``, ``tensor_over_algebra``'s
relations and ``submodule``'s closure check, whose actions go to the first
top; only ``HomSpace`` keeps one block per basis element.  The radical and
top of a module read only the arrows' actions.  The image and cokernel of
a map are ``submodule`` and ``quotient_module``.  Bases are deterministic,
so downstream invariants are bit-reproducible.  Minimal right
add(m)-approximations and isomorphism read one routine, the top of
Hom(m, x) over End(m) (``_top_of_hom``): it takes rad End(m) once, groups
the summands of m into isoclasses and keeps, per class, the maps outside
Hom(m, x)*rad End(m).  Both are exact at every prime; nothing here is
randomized.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, column_span_basis, enveloping, opposite, radical
from .errors import InputError, InternalCheckError
from .linalg import Coordinates, PrimeMatrix, complement_projection, coordinates, mulmod, nullspace, rref
from .linalg import solve  # noqa: F401  (unused here; perfbench's tracer test reads modules.solve)

__all__ = [
    "ModuleRep",
    "DirectSum",
    "Submodule",
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
    "endo_structure_constants",
    "endo_data",
]

_BLOCK = 2**16  # the most action or moved entries that one product reads


class ModuleRep:
    """Left module over a basic algebra, given by action matrices.

    ``memo`` caches values derived from the action, which is immutable by
    convention.  The homology layer sets "resolution", the state of the
    minimal projective resolution as far as it was asked for: its terms and
    generator images, and its deepest syzygy; and, on a ``DirectSum``,
    "endomorphism", End(m) as ``endomorphism_algebra`` built it, with the
    memos of that algebra; the bar oracle in ``checks``
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
        of x, r x dim x dim: a sum of products over blocks of basis
        elements with at most _BLOCK action entries each, reduced mod p
        between blocks; one product if the action has at most _BLOCK
        entries."""
        p, n = self.algebra.field.p, self.dim
        x = np.asarray(x, dtype=np.int64) % p
        step = max(1, _BLOCK // max(1, n * n))

        def part(a: int) -> np.ndarray:
            block = self.action[a : a + step]
            return mulmod(x[a : a + step].T, block.reshape(len(block), n * n), p)

        out = part(0)
        for a in range(step, len(x), step):
            out += part(a)
            out %= p
        return out.reshape(x.shape[1], n, n)

    def _generator_action(self) -> np.ndarray:
        """The actions of the idempotents, then the arrows (``_generators``)."""
        return self._combine(_generators(self.algebra))

    def moved(self, basis: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """The copies of basis (dim x k) moved by every algebra basis
        element, side by side: [a_0.basis | a_1.basis | ...], from products
        of at most _BLOCK action entries or one matrix.  With x, the copies
        moved by the elements whose coordinates are the columns of x."""
        n, k, p = self.dim, basis.shape[1], self.algebra.field.p
        if x is not None:
            r = x.shape[1]
            prod = mulmod(self._combine(x).reshape(r * n, n), basis, p)
            return prod.reshape(r, n, k).transpose(1, 0, 2).reshape(n, r * k)
        d = self.algebra.dim
        step = max(1, _BLOCK // max(1, n * n))
        out = np.empty((n, d, k), dtype=np.int64)
        for a in range(0, d, step):
            block = self.action[a : a + step]
            prod = mulmod(block.reshape(len(block) * n, n), basis, p)
            out[:, a : a + step] = prod.reshape(len(block), n, k).transpose(1, 0, 2)
        return out.reshape(n, d * k)

    def check(self):
        """Assert that rho(g.b) = rho(g) rho(b) for every generator g
        (``_generators``) and basis element b, one g at a time, and that
        rho(1) = I.  That is exact: the a with rho(a.b) = rho(a) rho(b) for
        every b form a subalgebra that holds the generators.  Both sides are
        products mod p (``mulmod``), exact at every modulus a field accepts.
        """
        alg, n = self.algebra, self.dim
        p, d, gens = alg.field.p, alg.dim, _generators(alg)
        products = mulmod(gens.T, alg.mult.reshape(d, d * d), p).reshape(-1, d, d)  # [g, b, c]: g.b
        for g, (rho_g, gb) in enumerate(zip(self._combine(gens), products)):
            # rho(g) rho(b) and rho(g.b) for every basis element b
            lhs, rhs = mulmod(rho_g, self.action, p), mulmod(gb, self.action.reshape(d, n * n), p).reshape(d, n, n)
            bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
            if bad.size:
                name = f"{_generator_name(alg, g)} and basis element {alg.labels[bad[0]]}"
                raise InputError(f"action violates structure constants on {name}")
        if not np.array_equal(self.act(alg.unit), np.eye(n, dtype=np.int64)):
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
    coordinates ``offsets[s]`` to ``offsets[s + 1]``.  Reads (``_combine``,
    ``moved``) go through each distinct summand object once; ``action``, the
    block action, is built when first read."""

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

    def _slots(self) -> list[list[int]]:
        """The slots of each distinct nonzero summand object, in order."""
        slots_of: dict[int, list[int]] = {}
        for s, m in enumerate(self.summands):
            if m.dim:
                slots_of.setdefault(id(m), []).append(s)
        return list(slots_of.values())

    def _combine(self, x: np.ndarray) -> np.ndarray:
        """As ``ModuleRep._combine``, with one read per distinct summand
        object, placed on the diagonal block of every slot it fills."""
        offs = self.offsets
        out = np.zeros((x.shape[1], self.dim, self.dim), dtype=np.int64)
        for slots in self._slots():
            acts = self.summands[slots[0]]._combine(x)
            for s in slots:
                out[:, offs[s] : offs[s + 1], offs[s] : offs[s + 1]] = acts
        return out

    def moved(self, basis: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """As ``ModuleRep.moved``, with one read per distinct summand
        object: its moved copies of the rows of basis on every slot it
        fills, placed side by side."""
        k = basis.shape[1]
        r = self.algebra.dim if x is None else x.shape[1]
        out = np.empty((self.dim, r, k), dtype=np.int64)
        for slots in self._slots():
            block = self.summands[slots[0]]
            rows = np.concatenate([np.arange(self.offsets[s], self.offsets[s + 1]) for s in slots])
            side = basis[rows].reshape(len(slots), block.dim, k).transpose(1, 0, 2).reshape(block.dim, -1)
            prod = block.moved(side, x).reshape(block.dim, r, len(slots), k)
            out[rows] = prod.transpose(2, 0, 1, 3).reshape(len(rows), r, k)
        return out.reshape(self.dim, r * k)


class Submodule(ModuleRep):
    """The submodule of ``ambient`` spanned by the columns of ``basis``,
    kept as the two, the way a ``DirectSum`` keeps its summands: reads go
    through the ambient module, in blocks of at most _BLOCK moved entries,
    and read coordinates by a gather on the basis (``submodule`` has checked
    closure); ``action`` is built when first read."""

    def __init__(self, ambient: ModuleRep, basis: PrimeMatrix, reader: Coordinates, generated: np.ndarray):
        self.algebra, self.ambient, self.basis = ambient.algebra, ambient, basis
        self.dim, self.memo = basis.cols, {}
        self._rows, self._inverse = reader.rows, reader.inverse
        self._generated: Optional[np.ndarray] = generated

    def _generator_action(self) -> np.ndarray:
        """The closure check's coordinates, handed to the first reader (the
        module's top) and then dropped, so a kept submodule does not hold
        them; a later read goes through the ambient module."""
        acts, self._generated = self._generated, None
        return super()._generator_action() if acts is None else acts

    def _coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of columns v of the ambient module that lie in the
        span: a gather on the basis' reading rows, no membership check."""
        c = v[self._rows]
        return c if self._inverse is None else mulmod(self._inverse, c, self.algebra.field.p)

    def _read(self, v: np.ndarray, x: Optional[np.ndarray], out: Optional[np.ndarray] = None) -> np.ndarray:
        """``ambient.moved(v, x)`` in coordinates, dim x r x k, written into
        out if given, from blocks of at most _BLOCK moved entries of v's k
        columns."""
        r = self.algebra.dim if x is None else x.shape[1]
        step = max(1, _BLOCK // max(1, self.ambient.dim * r))
        if out is None:
            out = np.empty((self.dim, r, v.shape[1]), dtype=np.int64)
        for j in range(0, v.shape[1], step):
            block = v[:, j : j + step]
            out[:, :, j : j + step] = self._coords(self.ambient.moved(block, x)).reshape(self.dim, r, block.shape[1])
        return out

    @functools.cached_property
    def action(self) -> np.ndarray:
        action = np.empty((self.algebra.dim, self.dim, self.dim), dtype=np.int64)
        self._read(self.basis.a, None, action.transpose(1, 0, 2))
        return action

    def _combine(self, x: np.ndarray) -> np.ndarray:
        return self._read(self.basis.a, x).transpose(1, 0, 2)

    def moved(self, basis: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        return self._read(mulmod(self.basis.a, basis, self.algebra.field.p), x).reshape(self.dim, -1)


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
        """Assert f rho_m(g) = rho_n(g) f for every generator g (``_generators``),
        one batched product a side; exact, as in ``ModuleRep.check``."""
        gens, f, p = _generators(self.source.algebra), self.map.a, self.map.field.p
        lhs, rhs = mulmod(f, self.source._combine(gens), p), mulmod(self.target._combine(gens), f, p)
        bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
        if bad.size:
            raise InputError(f"map does not intertwine the action of {_generator_name(self.source.algebra, bad[0])}")

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and self.map.is_invertible()


# ---------------------------------------------------------------------------
# elementary constructions


def zero_module(algebra: Algebra) -> ModuleRep:
    return ModuleRep(algebra, np.zeros((algebra.dim, 0, 0), dtype=np.int64))


def regular_module(algebra: Algebra) -> ModuleRep:
    return ModuleRep(algebra, algebra.regular_action())


def submodule(m: ModuleRep, basis: PrimeMatrix) -> tuple[Submodule, Morphism]:
    """The submodule on an invariant subspace, kept as m and basis
    (``Submodule``); columns of basis must be independent and closed under
    the action.

    Closure is checked once, exactly, on the idempotents and the arrows
    (``Algebra.arrows``), which generate the algebra: J = X + J^2 and J is
    nilpotent.  The moved copies of the basis are read from ``m.moved`` a
    block of basis columns at a time, at most 2^16 moved entries per block,
    and every column is checked for membership.  After that every read is an
    exact gather of coordinates.
    """
    alg = m.algebra
    if basis.cols == 0:
        sub = zero_module(alg)
        return sub, Morphism(sub, m, basis)
    reader = coordinates(basis)
    if reader is None:
        raise InputError("submodule basis has dependent columns")
    gens = _generators(alg)
    r, c = gens.shape[1], basis.cols
    step = max(1, _BLOCK // (m.dim * r))
    acts = np.empty((c, r, c), dtype=np.int64)
    for j in range(0, c, step):
        coords = reader.read(m.moved(basis.a[:, j : j + step], gens))
        if coords is None:
            raise InputError("subspace is not invariant under the action")
        acts[:, :, j : j + step] = coords.reshape(c, r, -1)
    sub = Submodule(m, basis, reader, acts.transpose(1, 0, 2))
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


def _kron_difference(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """(left (x) I - I (x) right) mod p for an a x a left and a b x b right,
    both reduced mod p, written entry by entry into one zeroed ab x ab
    array, with no Kronecker or difference temporaries: entry [(i, j),
    (k, l)] is left[i, k]*[j = l] - [i = k]*right[j, l].  Only the a diagonal
    b x b blocks [(i, j), (i, l)] hold both terms, and only they are reduced."""
    a, b = len(left), len(right)
    out = np.zeros((a * b, a * b), dtype=np.int64)
    grid = out.reshape(a, b, a, b)
    np.einsum("ijkj->ikj", grid)[...] = left[:, :, None]
    block = np.einsum("ijil->ijl", grid)
    block -= right
    block %= p
    return out


class HomSpace:
    """Basis of Hom_A(m, n) with coordinate bookkeeping.

    Vectorisation is row-major on (n.dim, m.dim) matrices; the basis is the
    deterministic nullspace basis of the intertwining constraints, one block
    rho_n(a) (x) I - I (x) rho_m(a)^T per basis element a of the algebra,
    each written directly into its own array (``_kron_difference``) and
    stacked once.
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
        # rho_n(a) f - f rho_m(a) = 0 on row-major vec(f), per basis element a
        blocks = [_kron_difference(rho_n, rho_m.T, p) for rho_m, rho_n in zip(m.action, n.action)]
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


def _generators(alg: Algebra) -> np.ndarray:
    """The idempotents, then the arrows (``Algebra.arrows``), as columns,
    memoized on the algebra: they generate it, since J = X + J^2 and J is
    nilpotent."""
    if "generators" not in alg.memo:
        alg.memo["generators"] = np.column_stack(alg.idempotents + [alg.arrows().a])
    return alg.memo["generators"]


def _generator_name(alg: Algebra, g: int) -> str:
    """Generator g of ``_generators``: idempotent i or arrow j."""
    nv = len(alg.idempotents)
    return f"idempotent {g}" if g < nv else f"arrow {g - nv}"


def _side_by_side(m: ModuleRep, acts: np.ndarray) -> PrimeMatrix:
    """The matrices acts (r x dim x dim) side by side, dim x (r * dim)."""
    return PrimeMatrix(m.algebra.field, acts.transpose(1, 0, 2).reshape(m.dim, len(acts) * m.dim))


def _radical_span(m: ModuleRep) -> PrimeMatrix:
    """Columns spanning rad(m) = X.m: the actions on m of the arrows X
    (``Algebra.arrows``) side by side."""
    return _side_by_side(m, m._combine(m.algebra.arrows().a))


def top(m: ModuleRep) -> tuple[ModuleRep, Morphism]:
    quot, proj, _ = quotient_module(m, _radical_span(m))
    return quot, proj


def _top_lifts(m: ModuleRep) -> list[np.ndarray]:
    """Per vertex i, lifts to e_i.m of a basis of e_i.top(m), as columns.
    With the projection and section of top(m) = m/rad(m), e_i acts on top(m)
    by proj.e_i.sec, and e_i.sec lifts a basis of its column span.  The
    idempotents and the arrows are read together (``_generators``)."""
    alg = m.algebra
    p, nv = alg.field.p, len(alg.idempotents)
    acts = m._generator_action()
    proj, sec = complement_projection(_side_by_side(m, acts[nv:]))
    lifts = []
    for e_act in acts[:nv]:
        e_sec = mulmod(e_act, sec.a, p)
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
            # kept dense: every cover and every term reads it
            projectives.append(ModuleRep._built(a, submodule(reg, basis)[0].action))
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
    s is where the generator e_v of the s-th summand P(v) goes.  The matrix
    of the map (``morphism``) is built from the images when first read.  The
    injective envelope of m is the dual of the cover of D(m)."""

    projective: DirectSum
    target: ModuleRep
    summands: list[int]
    generators: np.ndarray

    @functools.cached_property
    def morphism(self) -> Morphism:
        return Morphism(self.projective, self.target, generator_map(self.target, self.summands, self.generators))


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
    return Cover(big, m, vertex_of, np.hstack(lifts))


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
    """x (x)_A y as an explicit quotient of the vector-space tensor product,
    with the left action it inherits from x."""

    dim: int
    proj: PrimeMatrix  # (x.dim * y.dim) -> dim
    sec: PrimeMatrix
    module: ModuleRep


def tensor_over_algebra(x_right: ModuleRep, y: ModuleRep, left: tuple[Algebra, np.ndarray]) -> TensorResult:
    """Tensor over A of a right module (given as a module over A^op) with a
    left module.

    ``left`` supplies (B, matrices) for a left B-action on x that commutes
    with the right A-action; the quotient inherits it.
    """
    a = opposite(x_right.algebra)
    if y.algebra is not a and y.algebra.content_hash() != a.content_hash():
        raise InputError("tensor factors are not over matching algebras")
    field = a.field
    p = field.p
    eye_y, gens = np.eye(y.dim, dtype=np.int64), _generators(a)
    # R(x, ab, y) = R(xa, b, y) + R(x, a, by): the generators' relations span all
    rels = [_kron_difference(rx, ry, p) for rx, ry in zip(x_right._combine(gens), y._combine(gens))]
    proj, sec = complement_projection(PrimeMatrix(field, np.hstack(rels)))
    b_alg, left_action = left
    action = np.zeros((b_alg.dim, proj.rows, proj.rows), dtype=np.int64)
    for bi in range(b_alg.dim):
        action[bi] = mulmod(mulmod(proj.a, np.kron(left_action[bi] % p, eye_y), p), sec.a, p)
    return TensorResult(proj.rows, proj, sec, ModuleRep(b_alg, action))


def enveloping_module(a: Algebra) -> ModuleRep:
    """The algebra as a left module over its enveloping algebra A (x) A^op:
    the pair (u, v) acts by z -> u z v."""
    env = enveloping(a)
    p = a.field.p
    left, right = a.regular_action(), a.mult.transpose(1, 2, 0)
    action = np.zeros((env.dim, a.dim, a.dim), dtype=np.int64)
    for u in range(a.dim):
        for v in range(a.dim):
            action[u * a.dim + v] = mulmod(left[u], right[v], p)
    return ModuleRep(env, action)
