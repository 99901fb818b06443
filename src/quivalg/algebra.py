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

from .errors import InputError, UnsupportedFieldError
from .linalg import PrimeField, PrimeMatrix, mulmod, nullspace, rref

__all__ = [
    "QuiverPresentation",
    "Algebra",
    "Extension",
    "build_from_quiver",
    "one_dimensional_algebra",
    "opposite",
    "tensor_product",
    "enveloping",
    "column_span_basis",
    "trace_form_radical",
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

    def arrow_names(self) -> list[str]:
        return [a[0] for a in self.arrows]


def _relation_text(rel) -> str:
    return " + ".join(f"{c} {'*'.join(path)}" for c, path in rel)


class Algebra:
    """Basic elementary algebra given by structure constants.

    mult[a, b, c] is the coefficient of basis element c in (e_a * e_b).
    ``basis_path_lengths`` marks a basis adapted to the radical filtration
    (length 0 spans a complement of the radical); tensor constructions keep
    it so those algebras retain an exact radical without the trace form.

    ``memo`` caches values derived from the structure constants, which are
    immutable by convention, so an entry never goes stale.  Keys:
    "radical", "content_hash", "opposite" (set here), "standard_modules"
    and "gen_coords" (set by the modules and homology layers).
    """

    def __init__(
        self,
        field: PrimeField,
        labels: list[str],
        mult: np.ndarray,
        unit: np.ndarray,
        idempotents: list[np.ndarray],
        presentation: Optional[QuiverPresentation] = None,
        basis_path_lengths: Optional[list[int]] = None,
        validate: bool = True,
    ):
        self.field = field
        self.dim = len(labels)
        self.labels = list(labels)
        self.mult = np.asarray(mult, dtype=np.int64) % field.p
        self.unit = np.asarray(unit, dtype=np.int64) % field.p
        self.idempotents = [np.asarray(e, dtype=np.int64) % field.p for e in idempotents]
        self.presentation = presentation
        self.basis_path_lengths = list(basis_path_lengths) if basis_path_lengths is not None else None
        self.basis_paths: Optional[list[tuple]] = None  # set by build_from_quiver
        self.memo: dict = {}  # before _validate, which calls radical()
        if self.mult.shape != (self.dim, self.dim, self.dim):
            raise InputError("structure constant tensor has wrong shape")
        if validate:
            self._validate()

    # -- basic arithmetic ---------------------------------------------------

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        p = self.field.p
        return np.einsum("abc,a,b->c", self.mult, x % p, y % p) % p

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of v -> x*v on the underlying space."""
        p = self.field.p
        return np.einsum("abc,a->cb", self.mult, x % p) % p

    def right_mult(self, y: np.ndarray) -> np.ndarray:
        """Matrix of v -> v*y."""
        p = self.field.p
        return np.einsum("abc,b->ca", self.mult, y % p) % p

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v

    def regular_action(self) -> np.ndarray:
        """action[a] = matrix of left multiplication by basis element a."""
        return np.transpose(self.mult, (0, 2, 1)) % self.field.p

    # -- structural data -----------------------------------------------------

    def radical(self) -> PrimeMatrix:
        """Columns form a basis of the Jacobson radical.

        With a radical-adapted basis this is the span of the positive-length
        basis vectors; otherwise the radical of the trace form trace(L_x L_y),
        which is exact for p > dim.
        """
        if "radical" in self.memo:
            return self.memo["radical"]
        if self.basis_path_lengths is not None:
            idx = [i for i, l in enumerate(self.basis_path_lengths) if l > 0]
            basis = np.zeros((self.dim, len(idx)), dtype=np.int64)
            for k, i in enumerate(idx):
                basis[i, k] = 1
            self.memo["radical"] = PrimeMatrix(self.field, basis)
            return self.memo["radical"]
        self.memo["radical"] = trace_form_radical(self.field, self.mult)
        return self.memo["radical"]

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
        p = self.field.p
        lhs = np.einsum("abx,xcd->abcd", self.mult, self.mult) % p
        rhs = np.einsum("bcy,ayd->abcd", self.mult, self.mult) % p
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            a, b, c = int(bad[0]), int(bad[1]), int(bad[2])
            raise InputError(
                f"associativity fails on basis triple "
                f"({self.labels[a]}, {self.labels[b]}, {self.labels[c]})"
            )
        ident = np.eye(self.dim, dtype=np.int64)
        if not np.array_equal(self.left_mult(self.unit), ident) or not np.array_equal(
            self.right_mult(self.unit), ident
        ):
            raise InputError("unit is not a two-sided identity")
        if not self.idempotents:
            raise InputError("a complete idempotent list is required")
        for i, e in enumerate(self.idempotents):
            if not np.array_equal(self.multiply(e, e), e):
                raise InputError(f"idempotent {i} is not idempotent")
            for j, f in enumerate(self.idempotents):
                if i != j and self.multiply(e, f).any():
                    raise InputError(f"idempotents {i} and {j} are not orthogonal")
        total = np.zeros(self.dim, dtype=np.int64)
        for e in self.idempotents:
            total = (total + e) % p
        if not np.array_equal(total, self.unit):
            raise InputError("idempotents do not sum to the unit")
        # basic elementary: A/rad is one copy of k per idempotent
        try:
            r = self.radical()
        except UnsupportedFieldError:
            return
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

    def reduction(mat_gens: list[np.ndarray]):
        if mat_gens:
            gmat = PrimeMatrix(field, np.array(mat_gens, dtype=np.int64))
        else:
            gmat = field.zeros(0, npaths)
        red, rank, pivots = rref(gmat)
        rows = red.a[:rank]

        def reduce_vec(v: np.ndarray) -> np.ndarray:
            w = v.copy() % field.p
            for i, c in enumerate(pivots):
                if w[c]:
                    w = (w - w[c] * rows[i]) % field.p
            return w

        return reduce_vec, set(pivots)

    reduce_vec, pivot_paths = reduction(gens)

    # nilpotency: every path of length bound+1 must reduce to zero
    for q in by_length[bound + 1]:
        v = np.zeros(npaths, dtype=np.int64)
        v[path_index[q]] = 1
        if reduce_vec(v).any():
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
    reduce_vec, pivot_paths = reduction(gens)

    basis_paths = [q for q in paths if path_index[q] not in pivot_paths]
    dim = len(basis_paths)
    basis_pos = {q: i for i, q in enumerate(basis_paths)}

    def to_basis(v: np.ndarray) -> np.ndarray:
        w = reduce_vec(v)
        out = np.zeros(dim, dtype=np.int64)
        for q, i in basis_pos.items():
            out[i] = w[path_index[q]]
        return out

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
            v = np.zeros(npaths, dtype=np.int64)
            v[path_index[concat]] = 1
            mult[i, j] = to_basis(v)

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
        presentation=pres,
        basis_path_lengths=lengths_out,
    )
    alg.basis_paths = basis_paths
    return alg


def one_dimensional_algebra(field: PrimeField) -> Algebra:
    one = np.array([1], dtype=np.int64)
    return Algebra(
        field,
        ["1"],
        np.ones((1, 1, 1), dtype=np.int64),
        one,
        [one],
        basis_path_lengths=[0],
    )


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
        presentation=None,
        basis_path_lengths=a.basis_path_lengths,
        validate=False,
    )
    op.memo["opposite"] = a
    a.memo["opposite"] = op
    return op


def tensor_product(a: Algebra, b: Algebra) -> Algebra:
    """A (x) B with basis pairs ordered (a-index outer, b-index inner)."""
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
    return Algebra(a.field, labels, mult, unit, idem, basis_path_lengths=lengths)


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


def trace_form_radical(field: PrimeField, mult: np.ndarray) -> PrimeMatrix:
    """Basis of the radical of the trace form trace(L_x L_y) of the algebra
    with structure constants ``mult`` (entries reduced mod p).  It is the
    Jacobson radical when p > dim; smaller p raises UnsupportedFieldError."""
    d = mult.shape[0]
    p = field.p
    if p <= d:
        raise UnsupportedFieldError(f"trace-form radical needs p > dim, got p={p}, dim={d}")
    # L_a[i, j] = mult[a, j, i], so trace(L_a L_b) = sum_ij mult[a, j, i] mult[b, i, j]
    left = np.transpose(mult, (0, 2, 1)).reshape(d, d * d)
    gram = mulmod(left, mult.reshape(d, d * d).T, p)
    return nullspace(PrimeMatrix(field, gram))


# ---------------------------------------------------------------------------
# extensions of algebras


@dataclass
class Extension:
    """A subalgebra inclusion B <= A sharing the identity.

    ``embed`` maps B-coordinates into A-coordinates.
    """

    sub: Algebra
    amb: Algebra
    embed: PrimeMatrix

    def __post_init__(self):
        B, A, E = self.sub, self.amb, self.embed
        if E.rows != A.dim or E.cols != B.dim:
            raise InputError("embedding matrix has wrong shape")
        if E.rank() != B.dim:
            raise InputError("embedding is not injective")
        p = A.field.p
        if not np.array_equal((E.a @ B.unit) % p, A.unit):
            raise InputError("embedding does not preserve the unit")
        # multiplicative on basis pairs
        for i in range(B.dim):
            for j in range(B.dim):
                img = A.multiply(E.a[:, i], E.a[:, j])
                want = (E.a @ B.mult[i, j]) % p
                if not np.array_equal(img, want):
                    raise InputError(
                        f"embedding is not multiplicative on basis pair ({i}, {j})"
                    )

    @staticmethod
    def identity(a: Algebra) -> "Extension":
        return Extension(a, a, a.field.identity(a.dim))

    @staticmethod
    def ground_field(a: Algebra) -> "Extension":
        """k -> A sending 1 to the unit."""
        k = one_dimensional_algebra(a.field)
        emb = PrimeMatrix(a.field, a.unit.reshape(-1, 1).copy())
        return Extension(k, a, emb)
