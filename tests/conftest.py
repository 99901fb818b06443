import numpy as np
import pytest

from quivalg import corpus, modules
from quivalg.algebra import (
    QuiverPresentation,
    build_from_quiver,
    column_span_basis,
    tensor_product,
)
from quivalg.errors import InputError
from quivalg.linalg import PrimeField, PrimeMatrix, complement_projection, mulmod, nullspace
from quivalg.modules import ModuleRep, Morphism, quotient_module, submodule

FIELD = PrimeField(32003)


def quiver(vertices, arrows, relations=(), bound=1):
    return build_from_quiver(
        QuiverPresentation(tuple(vertices), tuple(arrows), tuple(relations), bound),
        FIELD,
    )


def dense_sum(algebra, mods):
    """The direct sum of mods as a plain ModuleRep, its block-diagonal
    action written out: the reference for ``DirectSum``."""
    offs = np.cumsum([0] + [m.dim for m in mods])
    action = np.zeros((algebra.dim, offs[-1], offs[-1]), dtype=np.int64)
    for s, m in enumerate(mods):
        action[:, offs[s] : offs[s + 1], offs[s] : offs[s + 1]] = m.action
    return ModuleRep(algebra, action)


def hom_member(h, c):
    """The member of the hom space h with coordinates c: the basis columns
    ``h.matrix`` times c, reshaped to a target.dim x source.dim matrix."""
    p = h.matrix.field.p
    vec = mulmod(h.matrix.a, np.asarray(c, dtype=np.int64) % p, p)
    return PrimeMatrix(h.matrix.field, vec.reshape(h.target.dim, h.source.dim))


def image(f):
    """The image of the morphism f, as the submodule of its target on the
    pivot columns of f's matrix."""
    return submodule(f.target, column_span_basis(f.map))


def cokernel(f):
    """The cokernel of the morphism f and the projection onto it: the
    quotient of f's target by the span of f's columns."""
    quot, proj, _ = quotient_module(f.target, f.map)
    return quot, proj


def rad_module(m):
    """rad(m) = X.m, X the arrows of the algebra, as a submodule of m."""
    return submodule(m, column_span_basis(modules._radical_span(m)))


def soc(m):
    """soc(m), the joint kernel of the arrows' actions, as a submodule of m:
    the actions [X_1 | ... | X_k] side by side, stacked one above another."""
    k = m.algebra.arrows().cols
    acts = modules._radical_span(m).a.reshape(m.dim, k, m.dim).transpose(1, 0, 2)
    return submodule(m, nullspace(PrimeMatrix(m.algebra.field, acts.reshape(k * m.dim, m.dim))))


def soc_multiplicities(m):
    """Multiplicity of each simple S(i) in soc(m): dim e_i.soc(m)."""
    s, _ = soc(m)
    return [PrimeMatrix(s.algebra.field, s.act(e)).rank() for e in s.algebra.idempotents]


def identity_morphism(m):
    return Morphism(m, m, m.algebra.field.identity(m.dim))


def multiply(a, x, y):
    """x * y in the algebra a: left multiplication by x applied to y, one
    ``mulmod``, so exact at every prime the field allows."""
    p = a.field.p
    return mulmod(a.left_mult(x), np.asarray(y, dtype=np.int64) % p, p)


def accepts(check):
    """Whether check() returns rather than raising InputError."""
    try:
        check()
    except InputError:
        return False
    return True


def dense_module_check(m):
    """Whether m's action is a module action, read over every pair of basis
    elements: rho(a) rho(b) = rho(ab) for all d^2 pairs, and rho(1) = I.  The
    reference for ``ModuleRep.check``; exact in int64 for p up to 32003."""
    alg, p, act = m.algebra, m.algebra.field.p, m.action
    lhs = np.einsum("aij,bjk->abik", act, act) % p
    rhs = np.einsum("abc,cik->abik", alg.mult, act) % p
    unit = np.einsum("a,aij->ij", alg.unit, act) % p
    return np.array_equal(lhs, rhs) and np.array_equal(unit, np.eye(m.dim, dtype=np.int64))


def dense_intertwines(f):
    """Whether the morphism f intertwines the action of every basis element,
    one basis element at a time: the reference for ``Morphism.check``."""
    p, a = f.map.field.p, f.map.a
    return all(np.array_equal(a @ s % p, t @ a % p) for s, t in zip(f.source.action, f.target.action))


def dense_tensor_quotient(x_right, y):
    """Projection and section of x (x)_A y from one relation block
    rho_x(b) (x) I - I (x) rho_y(b) per basis element b, built with np.kron:
    the reference for ``tensor_over_algebra``."""
    p, eye_x, eye_y = y.algebra.field.p, np.eye(x_right.dim, dtype=np.int64), np.eye(y.dim, dtype=np.int64)
    rels = [(np.kron(s, eye_y) - np.kron(eye_x, t)) % p for s, t in zip(x_right.action, y.action)]
    return complement_projection(PrimeMatrix(y.algebra.field, np.hstack(rels)))


def tensor_quotient(x_right, y):
    """Projection and section of x (x)_A y from ``tensor_over_algebra``, the
    ground field acting on x by scalars."""
    ground = corpus.load_entry("k", y.algebra.field.p).algebra
    res = modules.tensor_over_algebra(x_right, y, left=(ground, np.eye(x_right.dim, dtype=np.int64)[None]))
    return res.proj, res.sec


def cyclic_nakayama(n, p):
    """The self-injective cyclic Nakayama algebra with n vertices and
    rad^2 = 0 over F_p, of dimension 2n."""
    verts = tuple(str(i) for i in range(n))
    arrows = tuple((f"a{i}", str(i), str((i + 1) % n)) for i in range(n))
    relations = tuple(((1, (f"a{(i + 1) % n}", f"a{i}")),) for i in range(n))
    return build_from_quiver(QuiverPresentation(verts, arrows, relations, 1), PrimeField(p))


@pytest.fixture(scope="session")
def K2():
    return quiver(("1",), (("x", "1", "1"),), (((1, ("x", "x")),),), 1)


@pytest.fixture(scope="session")
def K3():
    return quiver(("1",), (("x", "1", "1"),), (((1, ("x", "x", "x")),),), 2)


@pytest.fixture(scope="session")
def K4():
    return quiver(("1",), (("x", "1", "1"),), (((1, ("x", "x", "x", "x")),),), 3)


@pytest.fixture(scope="session")
def KA2():
    return quiver(("1", "2"), (("a", "1", "2"),))


@pytest.fixture(scope="session")
def KA3():
    return quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")), (), 2)


@pytest.fixture(scope="session")
def AUS():
    return quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1")), (((1, ("a", "b")),),), 2)


@pytest.fixture(scope="session")
def GROUND():
    return corpus.load_entry("k").algebra


@pytest.fixture(scope="session")
def K2xK2(K2):
    return tensor_product(K2, K2)


@pytest.fixture(scope="session")
def KA2xK2(KA2, K2):
    return tensor_product(KA2, K2)


@pytest.fixture(scope="session")
def corpus_algebras(K2, K3, K4, KA2, KA3, AUS, GROUND, K2xK2, KA2xK2):
    return {
        "k": GROUND,
        "k2": K2,
        "k3": K3,
        "k4": K4,
        "ka2": KA2,
        "ka3": KA3,
        "aus": AUS,
        "k2xk2": K2xK2,
        "ka2xk2": KA2xK2,
    }


@pytest.fixture(scope="session")
def corpus_loaded():
    return {e.name: corpus.load_entry(e.name) for e in corpus.ENTRIES}
