"""Exact dense linear algebra over a prime field F_p.

Everything downstream (algebras, modules, resolutions) reduces to the
operations here: row reduction, solving and nullspaces, and the two
routines every layer reads vectors against a subspace with:
``coordinates`` (coordinates in a fixed basis, for a whole stack of vectors
at once) and ``complement_projection`` (reduction modulo a subspace, onto a
basis of the quotient).  ``coordinates`` is the one place that chooses how a
basis is read: by a gather on the rows where it is the identity (nullspace
and unit-vector bases), and by one elimination otherwise.
``complement_projection`` takes any spanning set of the subspace, since the
reduced echelon form of a row space is unique; no basis is extracted first.
Entries are int64 numpy arrays reduced mod p.
Elimination is integer arithmetic; matrix products (``mulmod``) run through
float64 BLAS while every partial sum is an integer below 2^53, which float64
holds exactly, and otherwise through int64 in blocks of the inner dimension,
reduced mod p between blocks, so no modulus below 2^31 is refused.  Nothing
is rounded and there is no tolerance anywhere.  Pivoting is deterministic (leftmost pivot
column, topmost row, free variables set to zero) so every derived
invariant is bit-reproducible.

``nullspace`` and ``PrimeMatrix.rank`` share one forced-zero pass
(``_split_singletons``): a row with a single nonzero entry forces its
unknown to zero, and only the rows with two or more nonzeros, cut down to
the unforced columns, are eliminated.  This is the singleton step of
structured Gaussian elimination (LaMacchia and Odlyzko, "Solving large
sparse linear systems over finite fields", CRYPTO '90).  The row space of
the matrix is the span of the unit rows of the forced columns plus that of
the smaller system, which is zero on every forced column.  So the rank is
the number of forced columns plus the rank of the smaller system, and,
because the reduced echelon form of a row space is unique, the nullspace
basis is the one a full ``rref`` would give, bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedFieldError

__all__ = [
    "PrimeField",
    "PrimeMatrix",
    "Coordinates",
    "complement_projection",
    "coordinates",
    "mulmod",
    "rref",
    "solve",
    "nullspace",
]


def _product_route(k: int, p: int) -> str:
    """The dtype, "float64" or "int64", in which a product of inner dimension
    k mod p runs.  float64 is exact while every partial sum, at most
    k*(p-1)^2, is below 2^53; int64 runs in blocks (``mulmod``)."""
    return "float64" if k * (p - 1) ** 2 < 2**53 else "int64"


def mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p as int64, for operands holding integers in [0, p), as
    int64 or float64; stacks of matrices multiply pairwise, as with ``@``.

    The float64 route runs on BLAS and is exact because every partial sum is
    an integer below 2^53 (Dumas, Giorgi and Pernet, "Dense linear algebra
    over word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS
    35(3), 2008).  The int64 route sums blocks of inner dimension at most
    ``step`` and reduces mod p between blocks: with the carried remainder
    below p <= (p-1)^2, every partial sum is below (step+1)*(p-1)^2 < 2^63.
    A field has p < 2^31, so (p-1)^2 < 2^62 and step is at least 1.
    """
    k = a.shape[-1]
    if _product_route(k, p) == "float64":
        # the product is a nonnegative integer below 2^53: reduce it in int64.
        # Holding `prod` until then measured 4 MB less peak RSS on perfbench's
        # ext-tensor workload than releasing it before the reduction.
        prod = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
        out = prod.astype(np.int64)
        return np.remainder(out, p, out=out)
    a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
    if b.ndim == 1:
        return mulmod(a, b[:, None], p)[..., 0]
    step = (2**63 - 1) // (p - 1) ** 2 - 1
    out = (a[..., :step] @ b[..., :step, :]) % p
    for i in range(step, k, step):
        out += a[..., i : i + step] @ b[..., i : i + step, :]
        out %= p
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field Z/pZ for a prime p.  Acts as a factory for matrices."""

    def __init__(self, p: int):
        p = int(p)
        if p >= 2**31:  # elimination multiplies two reduced entries in int64
            raise UnsupportedFieldError(f"modulus {p} is not below 2^31, so int64 arithmetic mod p could overflow")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def matrix(self, rows) -> "PrimeMatrix":
        a = np.array(rows, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix needs a 2-d list of entries")
        return PrimeMatrix(self, a % self.p)

    def zeros(self, rows: int, cols: int) -> "PrimeMatrix":
        return PrimeMatrix(self, np.zeros((rows, cols), dtype=np.int64))

    def identity(self, n: int) -> "PrimeMatrix":
        return PrimeMatrix(self, np.eye(n, dtype=np.int64))


@dataclass(frozen=True)
class PrimeMatrix:
    """Dense matrix over a PrimeField; entries int64, reduced mod p.

    Immutable by convention: no method mutates `a`, and user code must not.
    """

    field: PrimeField
    a: np.ndarray

    def __post_init__(self):
        if self.a.dtype != np.int64:
            object.__setattr__(self, "a", self.a.astype(np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimeMatrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __matmul__(self, other: "PrimeMatrix") -> "PrimeMatrix":
        self._samefield(other)
        return PrimeMatrix(self.field, mulmod(self.a, other.a, self.field.p))

    def transpose(self) -> "PrimeMatrix":
        """A view of ``a``, which no method mutates: not a copy."""
        return PrimeMatrix(self.field, self.a.T)

    def hstack(self, other: "PrimeMatrix") -> "PrimeMatrix":
        self._samefield(other)
        return PrimeMatrix(self.field, np.hstack([self.a, other.a]))

    def take_cols(self, idx) -> "PrimeMatrix":
        return PrimeMatrix(self.field, self.a[:, list(idx)].copy())

    def rank(self) -> int:
        """Rank: the forced columns of the singleton rows, plus the rank of
        the coupled rows on the other columns by forward elimination only
        (cheaper than full rref)."""
        p = self.field.p
        forced, coupled, _ = _split_singletons(self.a % p)
        return int(np.count_nonzero(forced)) + len(_eliminate(coupled, p, full=False))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "PrimeMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        x = solve(self, self.field.identity(self.rows))
        if x is None:
            raise ZeroDivisionError("matrix is singular")
        return x

    def tobytes(self) -> bytes:
        return self.a.shape[0].to_bytes(8, "little") + self.a.shape[1].to_bytes(8, "little") + self.a.tobytes()

    def _samefield(self, other: "PrimeMatrix"):
        if self.field != other.field:
            raise ValueError("matrices over different fields")

    def __repr__(self) -> str:
        return f"PrimeMatrix(p={self.field.p}, {self.a.tolist()})"


def _eliminate(a: np.ndarray, p: int, full: bool) -> list[int]:
    """Row-reduce ``a`` in place mod p; returns the pivot columns.

    Each pivot row is scaled to a leading 1.  With ``full`` every other row
    with a nonzero entry in the pivot column is cleared (reduced echelon
    form); without it only the rows below, which suffices for the rank.
    Updates touch only columns from the pivot rightward (everything to the
    left of the pivot is already zero in the rows involved).
    """
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), p - 2, p)) % p
        if full:
            touched = np.flatnonzero(a[:, c])
            touched = touched[touched != r]
        else:
            touched = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if touched.size:
            a[touched, c:] = (a[touched, c:] - np.outer(a[touched, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots


def _split_singletons(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forced-zero pass of ``nullspace`` and ``PrimeMatrix.rank``.

    Returns the mask of forced columns (those holding the only nonzero of
    some row), a copy of the rows with two or more nonzeros restricted to the
    other columns, and the indices of those columns.  ``a`` is reduced mod p.
    """
    is_nonzero = a != 0
    counts = np.count_nonzero(is_nonzero, axis=1)
    forced = np.zeros(a.shape[1], dtype=bool)
    forced[np.nonzero(is_nonzero[counts == 1])[1]] = True
    unforced = np.flatnonzero(~forced)
    return forced, a[np.ix_(counts >= 2, unforced)], unforced


def rref(m: PrimeMatrix) -> tuple[PrimeMatrix, int, list[int]]:
    """Reduced row-echelon form; returns (rref, rank, pivot column list)."""
    a = m.a.copy()
    pivots = _eliminate(a, m.field.p, full=True)
    return PrimeMatrix(m.field, a), len(pivots), pivots


def solve(a: PrimeMatrix, b: PrimeMatrix) -> Optional[PrimeMatrix]:
    """One solution X of aX = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if a.field != b.field:
        raise ValueError("matrices over different fields")
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    n = a.cols
    red, rank, pivots = rref(a.hstack(b))
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.cols), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red.a[i, n:]
    return PrimeMatrix(a.field, x)


def nullspace(m: PrimeMatrix) -> PrimeMatrix:
    """Matrix whose columns are a basis of {v : mv = 0}.

    The basis follows the standard free-variable construction: for each
    non-pivot column f (in increasing order) the vector has a 1 in slot f.

    A row with one nonzero entry forces that unknown to zero, so only the
    rows with two or more nonzeros are eliminated, on the unforced columns.
    Together with the unit rows of the forced columns, the reduced echelon
    form of that smaller system is a reduced echelon form of m's row space:
    the unit rows are zero off their own column, and the smaller system is
    zero on every forced column.  That form is unique, so the pivots, the
    free columns and the basis are exactly those of ``rref(m)``.  Only the
    coupled rows are copied, never the whole of m.
    """
    p = m.field.p
    _, coupled, unforced = _split_singletons(m.a)
    red, rank, pivots = rref(PrimeMatrix(m.field, coupled))
    free = np.delete(np.arange(unforced.size), pivots)
    basis = np.zeros((m.cols, free.size), dtype=np.int64)
    basis[unforced[pivots]] = (-red.a[:rank, free]) % p
    basis[unforced[free], np.arange(free.size)] = 1
    return PrimeMatrix(m.field, basis)


@dataclass(frozen=True)
class Coordinates:
    """Coordinates in a fixed basis B (the columns of ``basis``): B[rows] is
    invertible with inverse ``inverse``, or is the identity when that is None
    (a ``nullspace`` basis on its free rows).  ``others`` are the remaining
    rows, the only ones a read checks; B[others] is gathered and converted to
    float64 once, on the first read, and every later read reuses it."""

    basis: PrimeMatrix
    rows: np.ndarray
    inverse: Optional[np.ndarray] = None
    others: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "others", np.delete(np.arange(self.basis.rows), self.rows))

    @functools.cached_property
    def _checked_rows(self) -> np.ndarray:
        """B[others] in float64, which ``mulmod`` reads without converting."""
        return self.basis.a[self.others].astype(np.float64)

    def read(self, v: np.ndarray) -> Optional[np.ndarray]:
        """c = B[rows]^-1 v[rows] for one vector or for the columns of v
        (entries need not be reduced), or None unless B c = v, that is,
        unless every column lies in the span of B.  On ``rows`` B c = v holds
        by the choice of c, so only ``others`` are compared."""
        p = self.basis.field.p
        v = np.asarray(v, dtype=np.int64)
        c = v[self.rows] % p
        if self.inverse is not None:
            c = mulmod(self.inverse, c, p)
        if not np.array_equal(mulmod(self._checked_rows, c, p), v[self.others] % p):
            return None
        return c


def coordinates(basis: PrimeMatrix) -> Optional[Coordinates]:
    """The coordinates of a basis B, or None when its columns are dependent.

    When B is the identity on the last nonzero row of each column (every
    ``nullspace`` basis is, on its free rows, and so is a basis of unit
    vectors), those rows are read by a gather and nothing is eliminated.
    Otherwise one elimination E [B^T | I] = [rref(B^T) | E] gives the pivot
    rows R of B and E = B[R]^-T, since rref(B^T) is the identity on the
    columns R.  Both readers return the unique coordinates of a member.
    """
    a = basis.a
    n = basis.rows
    last = n - 1 - np.argmax(a[::-1] != 0, axis=0) if a.size else np.zeros(0, dtype=np.intp)
    if np.array_equal(a[last], np.eye(basis.cols, dtype=np.int64)):
        return Coordinates(basis, last)
    red, _, pivots = rref(basis.transpose().hstack(basis.field.identity(basis.cols)))
    if pivots and pivots[-1] >= n:
        return None
    return Coordinates(basis, np.array(pivots, dtype=np.intp), red.a[:, n:].T.copy())


def complement_projection(sub: PrimeMatrix) -> tuple[PrimeMatrix, PrimeMatrix]:
    """Projection F_p^n -> F_p^q and section back for the quotient by the
    span of sub's columns (dependent columns allowed: only the row space of
    sub^T enters), whose basis is the standard vectors at the free
    (non-pivot) coordinates of rref(sub^T).  A vector is reduced by
    subtracting, at each pivot c, its entry times the echelon row of c, and
    read at the free coordinates; echelon rows vanish on the other pivots,
    so the projection is the identity on the free columns and minus the
    rows' free entries on the pivot columns."""
    p = sub.field.p
    n = sub.rows
    red, rank, pivots = rref(sub.transpose())
    free = np.delete(np.arange(n), pivots)
    proj = np.zeros((free.size, n), dtype=np.int64)
    proj[np.arange(free.size), free] = 1
    proj[:, pivots] = (-red.a[:rank, free].T) % p
    sec = np.zeros((n, free.size), dtype=np.int64)
    sec[free, np.arange(free.size)] = 1
    return PrimeMatrix(sub.field, proj), PrimeMatrix(sub.field, sec)
