"""Predicates for subalgebra extensions B <= A.

frobenius: the restriction of A is projective over B and A is isomorphic to
Hom_B(A, B) as an A-B-bimodule (tested as left modules over A (x) B^op, with
the seeded randomized isomorphism search).  separable: the multiplication
A (x)_B A -> A admits a bimodule section, solved as one linear system.
split: the inclusion admits a B-bimodule retraction, likewise one system.

Semisimplicity of an extension quantifies over all modules and is not
decided here; separable implies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Extension, opposite, tensor_product
from .linalg import PrimeMatrix, mulmod, solve
from .modules import (
    HomSpace,
    IsoVerdict,
    ModuleRep,
    is_isomorphic,
    module_over_tensor,
    regular_module,
    tensor_over_algebra,
)

__all__ = ["ExtensionPredicates", "extension_predicates", "restrict_to_sub"]


@dataclass(frozen=True)
class ExtensionPredicates:
    frobenius: bool
    separable: bool
    split: bool
    restriction_projective: bool
    frobenius_iso: Optional[IsoVerdict]


def restrict_to_sub(ext: Extension) -> ModuleRep:
    """A as a left B-module through the embedding."""
    B, A = ext.sub, ext.amb
    action = np.stack(
        [A.left_mult(ext.embed.a[:, b]) for b in range(B.dim)]
    )
    return ModuleRep(B, action)


def _restriction_projective(ext: Extension) -> bool:
    from .homology import is_projective

    return is_projective(restrict_to_sub(ext))


def _frobenius_iso(ext: Extension, seed: int, trials: int) -> IsoVerdict:
    """A against Hom_B(A, B), compared over A (x) B^op."""
    B, A = ext.sub, ext.amb
    e_alg = tensor_product(A, opposite(B))
    # A as an A-B-bimodule
    left_a = np.stack([A.left_mult(A.basis_vector(i)) for i in range(A.dim)])
    right_b = np.stack([A.right_mult(ext.embed.a[:, b]) for b in range(B.dim)])
    a_bimod = module_over_tensor(e_alg, A.dim, left_a, right_b)
    # Hom_B(A, B) with (a.f.b)(x) = f(xa) b
    restr = restrict_to_sub(ext)
    h = HomSpace(restr, regular_module(B))
    left_on_h = np.stack([h.read(h.precompose(A.right_mult(A.basis_vector(i)))) for i in range(A.dim)])
    right_on_h = np.stack([h.read(h.postcompose(B.right_mult(B.basis_vector(b)))) for b in range(B.dim)])
    hom_bimod = module_over_tensor(e_alg, A.dim, left_on_h, right_on_h)
    return is_isomorphic(a_bimod, hom_bimod, seed=seed, trials=trials)


def _separable(ext: Extension) -> bool:
    """Does the multiplication A (x)_B A -> A split as an A-A-bimodule map?"""
    B, A = ext.sub, ext.amb
    p = A.field.p
    d = A.dim
    # A as a right B-module (over B^op) and as a left B-module
    right_b = ModuleRep(
        opposite(B), np.stack([A.right_mult(ext.embed.a[:, b]) for b in range(B.dim)])
    )
    left_b = restrict_to_sub(ext)
    tens = tensor_over_algebra(right_b, left_b)
    proj, sec = tens.proj, tens.sec
    q = tens.dim
    eye = np.eye(d, dtype=np.int64)
    mu_big = np.zeros((d, d * d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            mu_big[:, i * d + j] = A.mult[i, j]
    mu_q = mulmod(mu_big, sec.a, p)
    rows = []
    rhs = []
    for i in range(d):
        la = A.left_mult(A.basis_vector(i))
        ra = A.right_mult(A.basis_vector(i))
        lq = mulmod(mulmod(proj.a, np.kron(la, eye), p), sec.a, p)
        rq = mulmod(mulmod(proj.a, np.kron(eye, ra), p), sec.a, p)
        rows.append((np.kron(np.eye(q, dtype=np.int64), la.T) - np.kron(lq, eye)) % p)
        rhs.append(np.zeros(q * d, dtype=np.int64))
        rows.append((np.kron(np.eye(q, dtype=np.int64), ra.T) - np.kron(rq, eye)) % p)
        rhs.append(np.zeros(q * d, dtype=np.int64))
    rows.append(np.kron(mu_q, eye) % p)
    rhs.append(eye.reshape(-1))
    big = PrimeMatrix(A.field, np.vstack(rows))
    target = PrimeMatrix(A.field, np.concatenate(rhs).reshape(-1, 1))
    return solve(big, target) is not None


def _split(ext: Extension) -> bool:
    """Does the inclusion B -> A split as a B-B-bimodule map?"""
    B, A = ext.sub, ext.amb
    p = A.field.p
    db, da = B.dim, A.dim
    rows = []
    rhs = []
    eye_b = np.eye(db, dtype=np.int64)
    for b in range(B.dim):
        la = A.left_mult(ext.embed.a[:, b])
        lb = B.left_mult(B.basis_vector(b))
        ra = A.right_mult(ext.embed.a[:, b])
        rb = B.right_mult(B.basis_vector(b))
        rows.append((np.kron(eye_b, la.T) - np.kron(lb, np.eye(da, dtype=np.int64))) % p)
        rhs.append(np.zeros(db * da, dtype=np.int64))
        rows.append((np.kron(eye_b, ra.T) - np.kron(rb, np.eye(da, dtype=np.int64))) % p)
        rhs.append(np.zeros(db * da, dtype=np.int64))
    rows.append(np.kron(eye_b, ext.embed.a.T) % p)
    rhs.append(eye_b.reshape(-1))
    big = PrimeMatrix(A.field, np.vstack(rows))
    target = PrimeMatrix(A.field, np.concatenate(rhs).reshape(-1, 1))
    return solve(big, target) is not None


def extension_predicates(ext: Extension, seed: int = 0, trials: int = 24) -> ExtensionPredicates:
    restr_proj = _restriction_projective(ext)
    iso = None
    frob = False
    if restr_proj:
        iso = _frobenius_iso(ext, seed, trials)
        frob = iso.isomorphic
    return ExtensionPredicates(
        frobenius=frob,
        separable=_separable(ext),
        split=_split(ext),
        restriction_projective=restr_proj,
        frobenius_iso=iso,
    )
