"""Finite-dimensional basic algebras: quiver builds, radicals, tensor constructions.

An Algebra is stored by structure constants over a prime field together with
a complete set of primitive orthogonal idempotents.  Multiplication follows
function composition: in a path algebra ``p * q`` means "apply q, then p",
so the projective A*e_i has as basis the paths starting at vertex i, and the
endomorphism algebra of a module multiplies by ``f * g = f o g``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, InternalCheckError
from .linalg import PrimeField, PrimeMatrix, complement_projection, coordinates, mulmod, nullspace, rref

__all__ = [
    "QuiverPresentation",
    "Algebra",
    "build_from_quiver",
    "opposite",
    "tensor_product",
    "enveloping",
    "column_span_basis",
    "radical",
]


# ---------------------------------------------------------------------------
# quiver presentations


@dataclass(frozen=True)
class QuiverPresentation:
    """A finite quiver with admissible relations.

    ``arrows`` is a list of (name, source, target) with vertex labels drawn
    from ``vertices``.  A relation is a list of (coefficient, path) terms,
    where a path is a tuple of arrow names in composition order: the LAST
    arrow of the tuple is applied first.  ``nilpotency_bound`` is the largest
    path length kept; the arrow ideal must vanish beyond it.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    relations: tuple[tuple[tuple[int, tuple[str, ...]], ...], ...] = ()
    nilpotency_bound: int = 1


def _relation_text(rel) -> str:
    return " + ".join(f"{c} {'*'.join(path)}" for c, path in rel)


class Algebra:
    """Basic elementary algebra given by structure constants.

    mult[a, b, c] is the coefficient of basis element c in (e_a * e_b).
    ``basis_path_lengths`` gives the path length of each basis element of a
    quiver build, kept by tensor products and opposites (length 0 spans a
    complement of the radical); no computation here reads it.

    ``memo`` caches values derived from the structure constants, which are
    immutable by convention, so an entry never goes stale.  Keys:
    "radical", "arrows", "content_hash", "opposite" (set here),
    "generators", "projectives", "standard_modules" and "bar_graded" (set
    by the modules and checks layers).
    """

    def __init__(
        self,
        field: PrimeField,
        labels: list[str],
        mult: np.ndarray,
        unit: np.ndarray,
        idempotents: list[np.ndarray],
        basis_path_lengths: Optional[list[int]] = None,
        validate: bool = True,
    ):
        self.field = field
        self.dim = len(labels)
        self.labels = list(labels)
        self.mult = np.asarray(mult, dtype=np.int64) % field.p
        self.unit = np.asarray(unit, dtype=np.int64) % field.p
        self.idempotents = [np.asarray(e, dtype=np.int64) % field.p for e in idempotents]
        self.basis_path_lengths = list(basis_path_lengths) if basis_path_lengths is not None else None
        self.basis_paths: Optional[list[tuple]] = None  # set by build_from_quiver
        self.memo: dict = {}  # before _validate, which calls radical()
        if self.mult.shape != (self.dim, self.dim, self.dim):
            raise InputError("structure constant tensor has wrong shape")
        if validate:
            self._validate()

    # -- basic arithmetic ---------------------------------------------------

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of v -> x*v on the underlying space."""
        p = self.field.p
        return mulmod(x % p, self.mult.reshape(self.dim, -1), p).reshape(self.dim, self.dim).T

    def right_mult(self, y: np.ndarray) -> np.ndarray:
        """Matrix of v -> v*y."""
        p = self.field.p
        ymult = self.mult.transpose(1, 0, 2).reshape(self.dim, -1)
        return mulmod(y % p, ymult, p).reshape(self.dim, self.dim).T

    def regular_action(self) -> np.ndarray:
        """action[a] = matrix of left multiplication by basis element a."""
        return np.transpose(self.mult, (0, 2, 1)) % self.field.p

    # -- structural data -----------------------------------------------------

    def radical(self) -> PrimeMatrix:
        """Columns form a basis of the Jacobson radical (``radical`` below)."""
        if "radical" not in self.memo:
            self.memo["radical"] = radical(self.field, self.mult, self.idempotents)
        return self.memo["radical"]

    def arrows(self) -> PrimeMatrix:
        """Columns form a basis X of a complement of J^2 in the radical J,
        taken from the radical's columns r_i: read in the radical's basis,
        the products r_i*r_j span J^2, and X is the r_i at the free
        coordinates of that span, which one elimination finds.  For a path
        algebra X is its arrows.

        J = X + J^2 = X + J*X, since J is nilpotent, so J = A*X = X*A: the
        radical of a module is X.m and its socle the joint kernel of the x
        in X (Assem, Simson and Skowronski, Elements 1, II).
        """
        if "arrows" not in self.memo:
            r, p, d = self.radical(), self.field.p, self.dim
            # products[i, j] = r_i*r_j, for a chunk of left factors r_i at a
            # time so that a product makes at most max(d^3, 2^16)
            # multiply-adds: one product for every r_i is large enough for
            # OpenBLAS to spread over threads, whose spinning cost more CPU
            # than the product at d = 36
            chunk = max(1, 2**16 // d**3)
            products = np.empty((r.cols, r.cols, d), dtype=np.int64)
            for i in range(0, r.cols, chunk):
                left = mulmod(r.a[:, i : i + chunk].T, self.mult.reshape(d, d * d), p).reshape(-1, d, d)
                products[i : i + chunk] = mulmod(r.a.T, left, p)
            coords = coordinates(r).read(products.reshape(-1, d).T)
            if coords is None:
                raise InternalCheckError("a product of radical elements left the radical")
            _, sec = complement_projection(PrimeMatrix(self.field, coords))
            self.memo["arrows"] = r.take_cols(np.flatnonzero(sec.a.any(axis=1)))
        return self.memo["arrows"]

    def content_hash(self) -> str:
        if "content_hash" in self.memo:
            return self.memo["content_hash"]
        h = hashlib.sha256()
        h.update(b"algebra")
        h.update(self.field.p.to_bytes(8, "little"))
        h.update(self.dim.to_bytes(8, "little"))
        h.update(self.mult.tobytes())
        h.update(self.unit.tobytes())
        for e in self.idempotents:
            h.update(e.tobytes())
        self.memo["content_hash"] = h.hexdigest()
        return self.memo["content_hash"]

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, p={self.field.p}, idempotents={len(self.idempotents)})"

    # -- validation -----------------------------------------------------------

    def _validate(self):
        p, d = self.field.p, self.dim
        # (ab)c and a(bc) for a chunk of left factors a at a time, indexed
        # abcd: at most max(d^3, 2^16) entries live at once rather than d^4,
        # and the first failing triple is still the first in (a, b, c) order
        chunk = max(1, 2**16 // d**3)
        for a0 in range(0, d, chunk):
            lhs = mulmod(self.mult[a0 : a0 + chunk], self.mult.reshape(d, d * d), p).reshape(-1, d, d, d)
            rhs = mulmod(self.mult.reshape(d * d, d), self.mult[a0 : a0 + chunk], p).reshape(-1, d, d, d)
            if not np.array_equal(lhs, rhs):
                a, b, c = (int(i) for i in np.argwhere(lhs != rhs)[0][:3])
                raise InputError(
                    f"associativity fails on basis triple "
                    f"({self.labels[a0 + a]}, {self.labels[b]}, {self.labels[c]})"
                )
        ident = np.eye(self.dim, dtype=np.int64)
        if not np.array_equal(self.left_mult(self.unit), ident) or not np.array_equal(
            self.right_mult(self.unit), ident
        ):
            raise InputError("unit is not a two-sided identity")
        if not self.idempotents:
            raise InputError("a complete idempotent list is required")
        # products[i, j] = e_i * e_j, every pair from two products
        idem = np.array(self.idempotents)
        products = mulmod(idem, mulmod(idem, self.mult.reshape(d, d * d), p).reshape(-1, d, d), p)
        for i, e in enumerate(self.idempotents):
            if not np.array_equal(products[i, i], e):
                raise InputError(f"idempotent {i} is not idempotent")
            for j in range(len(idem)):
                if i != j and products[i, j].any():
                    raise InputError(f"idempotents {i} and {j} are not orthogonal")
        total = np.zeros(self.dim, dtype=np.int64)
        for e in self.idempotents:
            total = (total + e) % p
        if not np.array_equal(total, self.unit):
            raise InputError("idempotents do not sum to the unit")
        # basic elementary: A/rad is one copy of k per idempotent
        r = self.radical()
        if r.cols != self.dim - len(self.idempotents):
            raise InputError(
                f"algebra is not basic elementary: dim rad = {r.cols}, "
                f"dim = {self.dim}, idempotents = {len(self.idempotents)}"
            )


# ---------------------------------------------------------------------------
# quiver build


def build_from_quiver(pres: QuiverPresentation, field: PrimeField) -> Algebra:
    """Path basis of kQ modulo the relation ideal, by elimination per length.

    Paths are stored as tuples of arrow names in composition order (leftmost
    arrow applied last); vertices double as length-0 paths.  The relation
    ideal must be admissible: generated in the square of the arrow ideal and
    containing every path longer than the nilpotency bound.  Relations whose
    terms have different lengths are handled up to a padding window of that
    length spread.
    """
    names = {}
    for name, src, tgt in pres.arrows:
        if name in names:
            raise InputError(f"duplicate arrow name {name!r}")
        if name in pres.vertices:
            raise InputError(f"arrow name {name!r} collides with a vertex label")
        if src not in pres.vertices or tgt not in pres.vertices:
            raise InputError(f"arrow {name!r} uses an unknown vertex")
        names[name] = (src, tgt)

    def path_ends(path: tuple[str, ...], where) -> tuple[str, str]:
        # source of the composite = source of last arrow; target = target of first
        if not path:
            raise InputError(f"empty path in relation ({where})")
        for a in path:
            if a not in names:
                raise InputError(f"unknown arrow {a!r} in relation ({where})")
        for k in range(len(path) - 1):
            if names[path[k]][0] != names[path[k + 1]][1]:
                raise InputError(f"path {'*'.join(path)} is not composable ({where})")
        return names[path[-1]][0], names[path[0]][1]

    spread = 0
    for rel in pres.relations:
        txt = _relation_text(rel)
        if not rel:
            raise InputError("empty relation")
        ends = set()
        lengths = []
        for coeff, path in rel:
            if len(path) < 2:
                raise InputError(f"relation not admissible (path shorter than 2): {txt}")
            ends.add(path_ends(path, txt))
            lengths.append(len(path))
        if len(ends) != 1:
            raise InputError(f"relation mixes sources or targets: {txt}")
        spread = max(spread, max(lengths) - min(lengths))

    bound = pres.nilpotency_bound
    if bound < 1:
        raise InputError("nilpotency bound must be at least 1")
    work_len = bound + 1 + spread

    # enumerate paths by length; (v,) is the length-0 path at vertex v
    vertex_set = {(v,) for v in pres.vertices}
    by_length: list[list[tuple]] = [[(v,) for v in pres.vertices]]
    target = {(v,): v for v in pres.vertices}
    for length in range(1, work_len + 1):
        layer = []
        for q in by_length[length - 1]:
            for name, src, tgt in pres.arrows:
                if src == target[q]:
                    new = (name,) if length == 1 else (name,) + q
                    layer.append(new)
                    target[new] = tgt
        by_length.append(layer)
    paths: list[tuple] = [q for layer in by_length for q in layer]
    path_index = {q: i for i, q in enumerate(paths)}
    npaths = len(paths)

    def plen(q) -> int:
        return 0 if q in vertex_set else len(q)

    def psource(q) -> str:
        return q[0] if q in vertex_set else names[q[-1]][0]

    def ptarget(q) -> str:
        return q[0] if q in vertex_set else names[q[0]][1]

    # relation ideal generators inside the working span
    gens: list[np.ndarray] = []

    def rel_vector(rel, pre: tuple, post: tuple) -> Optional[np.ndarray]:
        vec = np.zeros(npaths, dtype=np.int64)
        for coeff, path in rel:
            full = pre + tuple(path) + post
            if len(full) > work_len or full not in path_index:
                return None
            vec[path_index[full]] += coeff
        return vec % field.p

    positive_paths = [q for layer in by_length[1:] for q in layer]
    paddings: list[tuple] = [()] + positive_paths
    for rel in pres.relations:
        min_len = min(len(path) for _, path in rel)
        _, path0 = rel[0]
        for pre in paddings:
            if pre and names[pre[-1]][0] != names[path0[0]][1]:
                continue
            for post in paddings:
                if len(pre) + min_len + len(post) > work_len:
                    continue
                if post and names[post[0]][1] != names[path0[-1]][0]:
                    continue
                v = rel_vector(rel, pre, post)
                if v is not None and v.any():
                    gens.append(v)

    def projection(vectors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The projection of path space onto kQ modulo the span of
        ``vectors``, and the paths that index the quotient basis.  Column q
        of the projection is the image of path q."""
        sub = np.array(vectors, dtype=np.int64).T if vectors else np.zeros((npaths, 0), dtype=np.int64)
        proj, sec = complement_projection(PrimeMatrix(field, sub))
        return proj.a, np.flatnonzero(sec.a.any(axis=1))

    # nilpotency: every path of length bound+1 must reduce to zero
    proj, _ = projection(gens)
    for q in by_length[bound + 1]:
        if proj[:, path_index[q]].any():
            raise InputError(
                f"arrow ideal is not nilpotent within bound {bound}: "
                f"path {'*'.join(q)} survives"
            )

    # second pass: paths beyond the bound are now known to lie in the ideal
    for layer in by_length[bound + 1 :]:
        for q in layer:
            v = np.zeros(npaths, dtype=np.int64)
            v[path_index[q]] = 1
            gens.append(v)
    proj, free = projection(gens)

    basis_paths = [paths[i] for i in free]
    dim = len(basis_paths)
    basis_pos = {q: i for i, q in enumerate(basis_paths)}

    mult = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, qi in enumerate(basis_paths):
        for j, qj in enumerate(basis_paths):
            # product qi * qj applies qj first
            if psource(qi) != ptarget(qj):
                continue
            li, lj = plen(qi), plen(qj)
            if li + lj > bound:
                continue
            if li == 0:
                concat = qj
            elif lj == 0:
                concat = qi
            else:
                concat = qi + qj
            mult[i, j] = proj[:, path_index[concat]]

    labels = []
    for q in basis_paths:
        if q in vertex_set:
            labels.append(f"e_{q[0]}")
        else:
            labels.append("*".join(q))
    unit = np.zeros(dim, dtype=np.int64)
    idem = []
    for v in pres.vertices:
        e = np.zeros(dim, dtype=np.int64)
        e[basis_pos[(v,)]] = 1
        idem.append(e)
        unit[basis_pos[(v,)]] = 1
    lengths_out = [plen(q) for q in basis_paths]
    alg = Algebra(
        field,
        labels,
        mult,
        unit,
        idem,
        basis_path_lengths=lengths_out,
    )
    alg.basis_paths = basis_paths
    return alg


# ---------------------------------------------------------------------------
# constructions


def opposite(a: Algebra) -> Algebra:
    """Same basis, reversed multiplication.  Involutive: opposite twice
    returns the original object."""
    if "opposite" in a.memo:
        return a.memo["opposite"]
    op = Algebra(
        a.field,
        list(a.labels),
        np.transpose(a.mult, (1, 0, 2)).copy(),
        a.unit.copy(),
        [e.copy() for e in a.idempotents],
        basis_path_lengths=a.basis_path_lengths,
        validate=False,
    )
    op.memo["opposite"] = a
    a.memo["opposite"] = op
    for key in ("radical", "arrows"):  # rad A^op = rad A, and (rad A^op)^2 = (rad A)^2
        if key in a.memo:
            op.memo[key] = a.memo[key]
    return op


def tensor_product(a: Algebra, b: Algebra) -> Algebra:
    """A (x) B with basis pairs ordered (a-index outer, b-index inner); not
    validated, since the product of two basic elementary algebras is one (rad
    A (x) B + A (x) rad B is nilpotent with quotient F_p^(n*m))."""
    if a.field != b.field:
        raise InputError("tensor factors over different fields")
    p = a.field.p
    da, db = a.dim, b.dim
    d = da * db
    mult = (
        np.einsum("abc,xyz->axbycz", a.mult, b.mult)
        .reshape(d, d, d)
        % p
    )
    unit = np.kron(a.unit, b.unit) % p
    idem = [np.kron(e, f) % p for e in a.idempotents for f in b.idempotents]
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    lengths = None
    if a.basis_path_lengths is not None and b.basis_path_lengths is not None:
        lengths = [la + lb for la in a.basis_path_lengths for lb in b.basis_path_lengths]
    return Algebra(a.field, labels, mult, unit, idem, basis_path_lengths=lengths, validate=False)


def enveloping(a: Algebra) -> Algebra:
    """A (x) A^op; the bimodule action of the algebra on itself lives in
    modules.enveloping_module."""
    return tensor_product(a, opposite(a))


# ---------------------------------------------------------------------------
# subspace helpers


def column_span_basis(m: PrimeMatrix) -> PrimeMatrix:
    """Deterministic basis of the column space: the pivot columns of m."""
    _, _, pivots = rref(m)
    return m.take_cols(pivots)


def radical(field: PrimeField, mult: np.ndarray, idempotents: list[np.ndarray]) -> PrimeMatrix:
    """Basis of the Jacobson radical of the algebra A with structure constants
    ``mult`` (entries reduced mod p) and complete orthogonal idempotents e_u,
    at every prime p; InputError unless each corner e_u*A*e_u is local with
    residue field F_p.

    If it is, x = c*e_u + n (n nilpotent) has x^q = c*e_u for every power q
    of p at least the corner's dimension (the least one at least the largest
    corner's dimension is taken).  So the residue map l_u is read from x^q on
    a basis of the corner, and it is certified by the nilpotency of the span
    K of the x - l_u(x)*e_u: then K is the corner's radical, of codimension
    one.  l(x) = sum_u l_u(e_u*x*e_u) vanishes on rad A (Assem, Simson and
    Skowronski, Elements 1, I.4) and is the reduced
    trace on A/rad A, whose form l(xy) is nondegenerate in every
    characteristic (Curtis and Reiner, Methods of Representation Theory I),
    so rad A is the nullspace of the Gram matrix l(b_a*b_b).
    """
    p, d = field.p, mult.shape[0]
    flat, idem = mult.reshape(d, d * d), np.array(idempotents, dtype=np.int64)
    left = mulmod(idem, flat, p).reshape(-1, d, d)  # [u, j] = e_u*b_j
    right = mulmod(idem, mult.transpose(1, 0, 2).reshape(d, d * d), p).reshape(-1, d, d)  # [u, j] = b_j*e_u
    corners = mulmod(left, right, p)  # [u, j] = e_u*b_j*e_u
    # a basis x of each corner, and each e_u*b_j*e_u in it: read on the
    # pivots, where the reduced rows are the identity
    bases = [rref(PrimeMatrix(field, corner)) for corner in corners]
    owner = np.repeat(np.arange(len(bases)), [rank for _, rank, _ in bases])
    x, e = np.concatenate([red.a[:rank] for red, rank, _ in bases]), idem[owner]
    coords = np.hstack([corner[:, pivots] for corner, (_, _, pivots) in zip(corners, bases)])
    q, longest = 1, max(rank for _, rank, _ in bases)
    while q < longest:
        q *= p
    at = np.argmax(idem != 0, axis=1)[owner]  # a coordinate where e_u is nonzero
    inverse = np.array([pow(int(c), p - 2, p) for c in e[np.arange(len(x)), at]], dtype=np.int64)

    def scalar(y):  # c with y = c*e_u, if y is such a multiple
        return y[np.arange(len(x)), at] * inverse % p

    # x^q by squaring: power = x^(q mod 2^j), square = left multiplication
    # by x^(2^j).  Once every x^(2^j) is some c*e_u, x^q = c^(q >> j)*power
    power, square = e, mulmod(x, flat, p).reshape(-1, d, d)
    while q:
        top = mulmod(e[:, None, :], square, p)[:, 0]  # x^(2^j)
        if np.array_equal(top, scalar(top)[:, None] * e % p):
            power = power * np.array([pow(int(c), q, p) for c in scalar(top)], dtype=np.int64)[:, None] % p
            break
        if q & 1:
            power = mulmod(power[:, None, :], square, p)[:, 0]
        q >>= 1
        square = mulmod(square, square, p) if q else square
    residue = scalar(power)
    # K^(2^j) = 0 for 2^j >= dim e_u*A*e_u iff K is nilpotent; the spanning
    # rows are reduced only when there are more than d
    kernel, reach = (x - residue[:, None] * e) % p, 1
    while reach < longest and kernel.any():
        kernel = kernel[kernel.any(axis=1)]
        if len(kernel) > d:
            red, rank, _ = rref(PrimeMatrix(field, kernel))
            kernel = red.a[:rank]
        kernel, reach = mulmod(kernel, mulmod(kernel, flat, p).reshape(-1, d, d), p).reshape(-1, d), 2 * reach
    if kernel.any():
        u = np.flatnonzero(mulmod(kernel, corners, p).any(axis=(1, 2)))[0]
        raise InputError(
            f"algebra is not basic elementary: the corner of idempotent {u} is not local with residue field F_{p}"
        )
    trace = mulmod(coords, residue, p)  # l(b_j) = sum_u l_u(e_u*b_j*e_u)
    gram = mulmod(flat.reshape(d * d, d), trace, p).reshape(d, d)
    return nullspace(PrimeMatrix(field, gram))

