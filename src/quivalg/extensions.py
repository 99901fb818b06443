"""Predicates for subalgebra extensions B <= A.

frobenius: the restriction of A is projective over B and A is isomorphic to
Hom_B(A, B) as an A-B-bimodule (Kasch, Math. Ann. 127, 1954), decided by the
exact ``modules.is_isomorphic`` over A (x) B^op.  separable: A (x)_B A holds
a separability idempotent (DeMeyer and Ingraham, Separable Algebras over
Commutative Rings, LNM 181): one nullspace and one rank.  split: the
inclusion admits a B-bimodule retraction, read from the ``HomSpace`` of
B-bimodule maps A -> B by one rank comparison.

Semisimplicity of an extension quantifies over all modules and is not
decided here; separable implies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Extension, column_span_basis, enveloping, opposite, tensor_product
from .linalg import PrimeMatrix, mulmod, nullspace
from .modules import (
    HomSpace,
    ModuleRep,
    enveloping_module,
    is_isomorphic,
    module_over_tensor,
    regular_module,
    submodule,
    tensor_over_algebra,
)

__all__ = ["ExtensionPredicates", "extension_predicates", "restrict_to_sub"]


@dataclass(frozen=True)
class ExtensionPredicates:
    frobenius: bool
    separable: bool
    split: bool
    restriction_projective: bool


def restrict_to_sub(ext: Extension) -> ModuleRep:
    """A as a left B-module through the embedding."""
    B, A = ext.sub, ext.amb
    action = np.stack(
        [A.left_mult(ext.embed.a[:, b]) for b in range(B.dim)]
    )
    return ModuleRep(B, action)


def _right_by_sub(ext: Extension) -> np.ndarray:
    """Right multiplication on A by each basis element of B."""
    return np.stack([ext.amb.right_mult(ext.embed.a[:, b]) for b in range(ext.sub.dim)])


def _restriction_projective(ext: Extension) -> bool:
    from .homology import is_projective

    return is_projective(restrict_to_sub(ext))


def _frobenius_iso(ext: Extension) -> bool:
    """A against Hom_B(A, B), compared over A (x) B^op.  A is the sum of the
    A*e_P, e_P the sum of A's idempotents over a connected component of the
    graph joining u and v when e_u*b*e_v != 0 for some b in B.  e_P commutes
    with B, so right multiplication by it is an idempotent of End = C_A(B)^op;
    ``is_isomorphic`` allows isomorphic A*e_P and refuses only an A*e_P whose
    End is not local with residue field F_p."""
    B, A = ext.sub, ext.amb
    p, idem = A.field.p, A.idempotents
    joined = [
        [mulmod(mulmod(A.left_mult(eu), A.right_mult(ev), p), ext.embed.a, p).any() for ev in idem] for eu in idem
    ]
    blocks: list[set[int]] = []
    for u in range(len(idem)):
        touching = [blk for blk in blocks if any(joined[u][v] or joined[v][u] for v in blk)]
        blocks = [blk for blk in blocks if blk not in touching] + [{u}.union(*touching)]
    e_alg = tensor_product(A, opposite(B))
    # A as an A-B-bimodule, and its summands A*e_P
    a_bimod = module_over_tensor(e_alg, A.dim, A.regular_action(), _right_by_sub(ext))
    e_p = [sum(idem[u] for u in blk) % p for blk in blocks]
    summands = [submodule(a_bimod, column_span_basis(PrimeMatrix(A.field, A.right_mult(e))))[0] for e in e_p]
    # Hom_B(A, B) with (a.f.b)(x) = f(xa) b
    h = HomSpace(restrict_to_sub(ext), regular_module(B))
    left_on_h = np.stack([h.read(h.precompose(r)) for r in A.mult.transpose(1, 2, 0)])
    right_on_h = np.stack([h.read(h.postcompose(r)) for r in B.mult.transpose(1, 2, 0)])
    hom_bimod = module_over_tensor(e_alg, A.dim, left_on_h, right_on_h)
    return is_isomorphic(summands, hom_bimod)


def _separable(ext: Extension) -> bool:
    """Is there a separability idempotent: t in A (x)_B A with a*t = t*a for
    every a and mu(t) = 1?  Such t are the images of 1 under the A-bimodule
    sections of the multiplication mu, so one exists iff mu splits."""
    B, A = ext.sub, ext.amb
    p = A.field.p
    d = A.dim
    # A as a right B-module (over B^op) and as a left B-module
    right_b = ModuleRep(opposite(B), _right_by_sub(ext))
    tens = tensor_over_algebra(right_b, restrict_to_sub(ext))
    eye = np.eye(d, dtype=np.int64)
    # t -> a*t - t*a on A (x)_B A, one block per basis element a
    blocks = []
    for left, right in zip(A.regular_action(), A.mult.transpose(1, 2, 0)):
        commutator = (np.kron(left, eye) - np.kron(eye, right)) % p
        blocks.append(mulmod(mulmod(tens.proj.a, commutator, p), tens.sec.a, p))
    central = nullspace(PrimeMatrix(A.field, np.vstack(blocks)))
    # mu(x (x) y) = xy on A (x)_B A, then on its centralizing elements
    mu = mulmod(A.mult.reshape(d * d, d).T, tens.sec.a, p)
    image = PrimeMatrix(A.field, mulmod(mu, central.a, p))
    return image.hstack(PrimeMatrix(A.field, A.unit.reshape(-1, 1))).rank() == image.rank()


def _split(ext: Extension) -> bool:
    """Does the inclusion B -> A split as a B-B-bimodule map?  It does iff
    the identity of B is f o embed for some bimodule map f: A -> B."""
    B, A = ext.sub, ext.amb
    env = enveloping(B)
    a_bimod = module_over_tensor(env, B.dim, restrict_to_sub(ext).action, _right_by_sub(ext))
    h = HomSpace(a_bimod, enveloping_module(B, env))
    restricted = PrimeMatrix(A.field, h.precompose(ext.embed.a).reshape(h.dim, B.dim * B.dim).T)
    eye = PrimeMatrix(A.field, np.eye(B.dim, dtype=np.int64).reshape(-1, 1))
    return restricted.hstack(eye).rank() == restricted.rank()


def extension_predicates(ext: Extension) -> ExtensionPredicates:
    restr_proj = _restriction_projective(ext)
    return ExtensionPredicates(
        frobenius=restr_proj and _frobenius_iso(ext),
        separable=_separable(ext),
        split=_split(ext),
        restriction_projective=restr_proj,
    )
