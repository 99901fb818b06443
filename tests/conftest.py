import numpy as np
import pytest

from quivalg import corpus
from quivalg.algebra import (
    QuiverPresentation,
    build_from_quiver,
    one_dimensional_algebra,
    tensor_product,
)
from quivalg.linalg import PrimeField, PrimeMatrix, mulmod
from quivalg.modules import ModuleRep

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
    return one_dimensional_algebra(FIELD)


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
