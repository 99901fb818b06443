import hashlib
import re

import numpy as np
import pytest

import quivalg.algebra
from quivalg import corpus

from quivalg.algebra import (
    Algebra,
    Extension,
    QuiverPresentation,
    build_from_quiver,
    enveloping,
    one_dimensional_algebra,
    opposite,
    radical,
    tensor_product,
)
from quivalg.errors import InputError, UnsupportedFieldError
from quivalg.homology import endomorphism_algebra, minimal_gen_cogen
from quivalg.linalg import PrimeField, PrimeMatrix, solve

from conftest import FIELD, quiver


def test_k2_build(K2):
    assert K2.dim == 2
    assert K2.labels == ["e_1", "x"]
    assert K2.radical().cols == 1


def test_ka2_build(KA2):
    assert KA2.dim == 3
    assert set(KA2.labels) == {"e_1", "e_2", "a"}
    assert KA2.radical().cols == 1


def test_aus_build(AUS):
    assert AUS.dim == 5
    assert set(AUS.labels) == {"e_1", "e_2", "a", "b", "b*a"}


def test_power_series_truncations(K3, K4):
    assert K3.dim == 3
    assert K4.dim == 4


def test_commutation_relation_build():
    # two commuting loops with squares zero: k[x,y]/(x^2, y^2, xy - yx)
    a = quiver(
        ("1",),
        (("x", "1", "1"), ("y", "1", "1")),
        (
            ((1, ("x", "x")),),
            ((1, ("y", "y")),),
            ((1, ("x", "y")), (-1, ("y", "x"))),
        ),
        2,
    )
    assert a.dim == 4


def test_non_nilpotent_rejected():
    with pytest.raises(InputError, match="not nilpotent"):
        quiver(("1",), (("x", "1", "1"),), (), 3)


def test_short_relation_rejected():
    with pytest.raises(InputError, match="admissible"):
        quiver(("1",), (("x", "1", "1"),), (((1, ("x",)),),), 2)


def test_mixed_endpoints_rejected():
    with pytest.raises(InputError, match="mixes"):
        quiver(
            ("1", "2"),
            (("a", "1", "2"), ("b", "2", "1")),
            (((1, ("b", "a")), (1, ("a", "b"))),),
            2,
        )


def test_bad_arrow_rejected():
    with pytest.raises(InputError, match="unknown vertex"):
        quiver(("1",), (("a", "1", "3"),))
    with pytest.raises(InputError, match="duplicate"):
        quiver(("1",), (("a", "1", "1"), ("a", "1", "1")), (((1, ("a", "a")),),), 1)


def test_non_composable_relation_rejected():
    with pytest.raises(InputError, match="not composable"):
        quiver(("1", "2"), (("a", "1", "2"),), (((1, ("a", "a")),),), 1)


def test_radical_k2(K2):
    rad = K2.radical()
    want = PrimeMatrix(FIELD, np.array([[0], [1]]))
    assert rad.rank() == want.rank() == rad.hstack(want).rank()


def test_radical_tensor(K2):
    t = tensor_product(K2, K2)
    assert t.radical().cols == 3


PRIMES = (2, 3, 5, 32003)


def corpus_at(p):
    return {e.name: corpus.load_entry(e.name, p).algebra for e in corpus.ENTRIES}


def test_radical_modes_agree():
    # the same constants as a table give the same radical; on a path basis it
    # is the span of the paths of positive length, at every prime
    for p in PRIMES:
        for name, a in corpus_at(p).items():
            table = Algebra(a.field, a.labels, a.mult, a.unit, a.idempotents)
            r1, r2 = a.radical(), table.radical()
            assert r1.rank() == r2.rank() == r1.hstack(r2).rank(), (name, p)
            if a.basis_path_lengths is not None:
                paths = [i for i, length in enumerate(a.basis_path_lengths) if length > 0]
                assert r2 == PrimeMatrix(a.field, np.eye(a.dim, dtype=np.int64)[:, paths]), (name, p)


def test_radical_nilpotent(corpus_algebras):
    for name, a in corpus_algebras.items():
        rad = a.radical()
        span = rad
        for _ in range(a.dim):
            if span.cols == 0:
                break
            cols = []
            for i in range(span.cols):
                for j in range(rad.cols):
                    cols.append(a.multiply(span.a[:, i], rad.a[:, j]))
            from quivalg.algebra import column_span_basis

            span = column_span_basis(PrimeMatrix(a.field, np.array(cols).T))
        assert span.cols == 0, name


def arrow_cases(corpus_algebras, K2, KA2):
    """(name, algebra, number of arrows of its quiver or None)."""
    arrows = {"k": 0, "k2": 1, "k3": 1, "k4": 1, "ka2": 1, "ka3": 2, "aus": 2, "k2xk2": 2, "ka2xk2": 3}
    cases = [(name, a, arrows[name]) for name, a in corpus_algebras.items()]
    for n in range(3, 7):
        verts = tuple(str(i) for i in range(n))
        line = tuple((f"a{i}", str(i), str(i + 1)) for i in range(n - 1))
        cases.append((f"A{n}", quiver(verts, line, (), n - 1), n - 1))
    for n in range(2, 6):
        cases.append((f"k[x]/(x^{n})", quiver(("1",), (("x", "1", "1"),), (((1, ("x",) * n),),), n - 1), 1))
    cases.append(("k2^3", tensor_product(tensor_product(K2, K2), K2), 3))
    cases.append(("env ka2", enveloping(KA2), 4))  # 1 arrow times 2 vertices, twice
    a3 = next(a for name, a, _ in cases if name == "A3")
    cases.append(("End gencogen A3", endomorphism_algebra(minimal_gen_cogen(a3)).algebra, None))
    rng = np.random.default_rng(1)
    for name in ("aus", "ka2xk2"):  # a radical that is not a set of basis vectors
        cases.append((f"{name} rebased", rebased(corpus_algebras[name], rng), arrows[name]))
    return cases


def test_arrows_complement_the_square_of_the_radical(corpus_algebras, K2, KA2):
    for name, a, want in arrow_cases(corpus_algebras, K2, KA2):
        r, x = a.radical(), a.arrows()
        prods = [a.multiply(r.a[:, i], r.a[:, j]) for i in range(r.cols) for j in range(r.cols)]
        square = PrimeMatrix(a.field, np.array(prods, dtype=np.int64).reshape(-1, a.dim).T)
        assert x.cols == r.cols - square.rank(), name
        assert square.hstack(x).rank() == square.rank() + x.cols, name
        assert all(any(np.array_equal(col, r.a[:, j]) for j in range(r.cols)) for col in x.a.T), name
        assert want is None or x.cols == want, name
        assert opposite(a).arrows() == x, name


def test_semisimple_quotient_dimension():
    for p in PRIMES:
        for name, a in corpus_at(p).items():
            assert a.dim - a.radical().cols == len(a.idempotents), (name, p)


def table_algebra(p, matrices):
    """The algebra with basis ``matrices`` (square, closed under products,
    the first the identity) and its unit as the only idempotent."""
    f, d = PrimeField(p), len(matrices)
    vecs = PrimeMatrix(f, np.array([np.ravel(m) for m in matrices]).T % p)
    prods = PrimeMatrix(f, np.array([np.ravel(np.dot(x, y)) for x in matrices for y in matrices]).T % p)
    mult = solve(vecs, prods).a.T.reshape(d, d, d)
    one = np.eye(d, dtype=np.int64)[0]
    return Algebra(f, [f"b{i}" for i in range(d)], mult, one, [one])


def test_basic_check_at_primes_below_the_dimension():
    # M_2(F_3) in a basis whose every element has a scalar 9th power: only
    # the nilpotency of ker(residue map) refuses it (E12 * E21 = E11)
    e12, e21, n = [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [-1, -1]]
    with pytest.raises(InputError, match="not basic"):
        table_algebra(3, [np.eye(2, dtype=np.int64), e12, e21, n])
    # F_4 = F_2[x]/(x^2 + x + 1): x^2 = x + 1 is not in F_2
    x = [[0, 1], [1, 1]]
    with pytest.raises(InputError, match="not basic"):
        table_algebra(2, [np.eye(2, dtype=np.int64), x])
    # k[x]/(x^2) in the same way is accepted, with its radical
    assert table_algebra(2, [np.eye(2, dtype=np.int64), [[0, 1], [0, 0]]]).radical().cols == 1


def test_idempotent_checks_name_the_first_failure(KA2):
    e1, e2 = KA2.idempotents
    with pytest.raises(InputError, match="idempotents 0 and 1 are not orthogonal"):
        Algebra(KA2.field, KA2.labels, KA2.mult, KA2.unit, [e1, e1])
    with pytest.raises(InputError, match="idempotent 0 is not idempotent"):
        Algebra(KA2.field, KA2.labels, KA2.mult, KA2.unit, [2 * e1, e2])


def test_associativity_rejection_names_triple():
    # unit laws hold but x(xy) = y while (xx)y = 0
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = mult[1, 0, 1] = 1
    mult[0, 2, 2] = mult[2, 0, 2] = 1
    mult[1, 2, 2] = 1  # x * y = y
    unit = np.array([1, 0, 0])
    with pytest.raises(InputError, match=r"associativity fails on basis triple \(x, x, y\)"):
        Algebra(FIELD, ["e", "x", "y"], mult, unit, [unit])


def test_associativity_check_names_the_first_failing_triple(corpus_algebras):
    # validation compares one left factor at a time; the triple it names is
    # the first failing one of the whole d^4 comparison, in (a, b, c) order
    rng = np.random.default_rng(0)
    checked = 0
    for a in corpus_algebras.values():
        p = a.field.p
        for _ in range(4):
            mult = a.mult.copy()
            i, j, k = rng.integers(0, a.dim, size=3)
            mult[i, j, k] = (mult[i, j, k] + 1) % p
            lhs = np.einsum("abk,kcl->abcl", mult, mult) % p
            rhs = np.einsum("bck,akl->abcl", mult, mult) % p
            bad = np.argwhere((lhs != rhs).any(axis=3))
            if len(bad):
                triple = ", ".join(a.labels[t] for t in bad[0])
                with pytest.raises(InputError, match=re.escape(f"associativity fails on basis triple ({triple})")):
                    Algebra(a.field, a.labels, mult, a.unit, a.idempotents)
                checked += 1
    assert checked >= 20


def test_opposite_involution(corpus_algebras):
    for a in corpus_algebras.values():
        assert opposite(opposite(a)) is a


def test_opposite_commutative_unchanged(K2):
    op = opposite(K2)
    assert np.array_equal(op.mult, K2.mult)


def test_opposite_reverses_arrows(KA2):
    from quivalg.modules import standard_modules

    op = opposite(KA2)
    dims = [m.dim for m in standard_modules(op).projectives]
    assert dims == [1, 2]  # reversed relative to KA2's [2, 1]


def test_tensor_dims_and_idempotents(K2, KA2):
    t = tensor_product(KA2, K2)
    assert t.dim == 6
    assert len(t.idempotents) == 2


def test_tensor_with_ground_field(KA2, GROUND):
    t = tensor_product(KA2, GROUND)
    assert t.dim == KA2.dim
    assert np.array_equal(t.mult, KA2.mult)
    t2 = tensor_product(GROUND, GROUND)
    assert t2.dim == 1


def test_k2_tensor_k2_structure(K2):
    t = tensor_product(K2, K2)
    assert t.dim == 4
    assert len(t.idempotents) == 1
    # commutative
    assert np.array_equal(t.mult, np.transpose(t.mult, (1, 0, 2)))


def test_enveloping_dims(K2, KA2, GROUND):
    assert enveloping(K2).dim == 4
    assert enveloping(KA2).dim == 9
    assert enveloping(GROUND).dim == 1


def test_enveloping_module(K2):
    from quivalg.modules import enveloping_module

    m = enveloping_module(K2)
    assert m.dim == 2
    m.check()


def test_extension_validation(K2):
    ext = Extension.identity(K2)
    assert ext.embed.rank() == 2
    extk = Extension.ground_field(K2)
    assert extk.sub.dim == 1
    # non-multiplicative embedding rejected: send 1 to x + 1 inside K2 x K2? use
    # a map k -> K2 sending 1 to x (not the unit)
    bad = PrimeMatrix(FIELD, np.array([[0], [1]]))
    with pytest.raises(InputError):
        Extension(one_dimensional_algebra(FIELD), K2, bad)


# ---------------------------------------------------------------------------
# exact products at large moduli

PRESENTATIONS = {
    "k2": QuiverPresentation(("1",), (("x", "1", "1"),), (((1, ("x", "x")),),), 1),
    "k3": QuiverPresentation(("1",), (("x", "1", "1"),), (((1, ("x", "x", "x")),),), 2),
    "ka2": QuiverPresentation(("1", "2"), (("a", "1", "2"),)),
    "aus": QuiverPresentation(("1", "2"), (("a", "1", "2"), ("b", "2", "1")), (((1, ("a", "b")),),), 2),
}


def rebased(alg, rng):
    """The same algebra in a random basis, so that its structure constants
    are dense and as large as the modulus allows; Python integers throughout."""
    p, d = alg.field.p, alg.dim
    while True:
        b = PrimeMatrix(alg.field, rng.integers(0, p, size=(d, d)))
        if b.is_invertible():
            break
    fwd, inv = b.a.astype(object), b.inverse().a.astype(object)
    # f_a f_b = sum_ijk B[i,a] B[j,b] mult[i,j,k] e_k, read in the f basis
    mult = np.tensordot(fwd, np.tensordot(fwd, alg.mult.astype(object), axes=([0], [0])), axes=([0], [1]))
    mult = np.tensordot(mult, inv, axes=([2], [1])).transpose(1, 0, 2) % p
    unit = inv.dot(alg.unit.astype(object)) % p
    idem = [inv.dot(e.astype(object)) % p for e in alg.idempotents]
    return Algebra(alg.field, [f"f{a}" for a in range(d)], mult.astype(np.int64), unit.astype(np.int64),
                   [e.astype(np.int64) for e in idem])


@pytest.mark.parametrize("p", [32003, 2**31 - 1])
def test_algebra_products_match_python_integers_or_refuse(p):
    """multiply, left_mult and right_mult agree with Python integers or raise
    UnsupportedFieldError; validation never reports a false associativity
    failure, which an int64 overflow would."""
    rng = np.random.default_rng(p)
    checked = 0
    for pres in PRESENTATIONS.values():
        try:
            alg = rebased(build_from_quiver(pres, PrimeField(p)), rng)
        except UnsupportedFieldError:
            continue
        d, mult = alg.dim, alg.mult.astype(object)
        for _ in range(10):
            x, y = (rng.integers(0, p, size=d) for _ in range(2))
            xo, yo = x.astype(object), y.astype(object)
            left = np.array([[sum(xo[a] * mult[a, b, c] for a in range(d)) % p for b in range(d)] for c in range(d)])
            right = np.array([[sum(mult[a, b, c] * yo[b] for b in range(d)) % p for a in range(d)] for c in range(d)])
            try:
                assert np.array_equal(alg.left_mult(x), left.astype(np.int64))
                assert np.array_equal(alg.right_mult(y), right.astype(np.int64))
                assert np.array_equal(alg.multiply(x, y), (left.dot(yo) % p).astype(np.int64))
            except UnsupportedFieldError:
                continue
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("p", [2, 3, 536870923])
@pytest.mark.parametrize("name", ["ka3", "ka2xk2"])
def test_radical_in_a_random_basis(name, p):
    # in a random basis no corner is spanned by basis vectors and the
    # structure constants are dense: at p = 536870923 the Gram product, of
    # inner dimension 36, runs in int64 blocks, and at p = 2 and 3, below the
    # dimension, the residue maps are read from powers x^q with q a power of
    # p.  The radical, checked by validation, has its dimension at 32003
    a = rebased(corpus.load_entry(name, p).algebra, np.random.default_rng(2))
    want = corpus.load_entry(name).algebra
    assert a.radical().cols == want.radical().cols == a.dim - len(a.idempotents)


# Algebra.content_hash() of build_from_quiver results, recorded while the
# quiver build still reduced every path vector by a loop over the pivots
BUILD_SHA256 = {
    "A3": "5f1e258e34092081cde0d34150f006e2a56ee54069302e4f8d28e9ec886cad18",
    "A4": "678b7c0b29890250c5074c167b9e2cb4b7e459fbe80f296d5852a40dca278e35",
    "A5": "23acb12a44043d016982b145e2d6c00d47a084da00d86cb07285345b09c3acbe",
    "A6": "464ac45a87f34f2e9c5a63baea000f4010ccf4d118781884b104f156e353304b",
    "A7": "7206c6bdf3956f87a49aa365073d19dd17abda128d1a53b513311ca7b59b6162",
    "A8": "53a830701f9c6bcf3372464317a6c780fe3fcfb6d3a955ae7007473fc5f9f260",
    "k[x]/(x^2)": "bebb6829b44e9ab82a33b61cbb4f3df1f2281a33061edddb58751b4595f558a3",
    "k[x]/(x^3)": "f1c685aa486ef1676586ad1bd077c52c677989ad78513fa2481442d056715d8a",
    "k[x]/(x^4)": "1283a890d0f0c2e7687459edac80b6461b00e2dfb6b2a675d77549af40d55977",
    "k[x]/(x^5)": "4977d7ea0db71b358644cf9b717f2afc5a50df31a0a550054179e7618188bf97",
    "k[x]/(x^6)": "1c619e4bb28df2dcb85dd064db14d9fb72b0c9ae019ccdbd00d0c61fb6b099cf",
    "k[x,y]/(x^2,y^2,xy-yx)": "31b5c8edd4d7ecbffc394b2b40aa772f8e4a81090e28dd78d79da2fd08121467",
    "fixture k2": "bebb6829b44e9ab82a33b61cbb4f3df1f2281a33061edddb58751b4595f558a3",
    "fixture k3": "f1c685aa486ef1676586ad1bd077c52c677989ad78513fa2481442d056715d8a",
    "fixture k4": "1283a890d0f0c2e7687459edac80b6461b00e2dfb6b2a675d77549af40d55977",
    "fixture ka2": "8d17b0fd553f71d2889005fde98ace4c876a0ad6998937a3fd3654b785da7478",
    "fixture ka3": "5f1e258e34092081cde0d34150f006e2a56ee54069302e4f8d28e9ec886cad18",
    "fixture aus": "e826d334521ec997a94b074911692a9e0b7f42b03655af0272050df2c8b74922",
}


def build_pin_algebras():
    algebras = {}
    for n in range(3, 9):
        verts = tuple(str(i) for i in range(1, n + 1))
        arrows = tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, n))
        algebras[f"A{n}"] = quiver(verts, arrows, (), n - 1)
    for n in range(2, 7):
        algebras[f"k[x]/(x^{n})"] = quiver(("1",), (("x", "1", "1"),), (((1, ("x",) * n),),), n - 1)
    algebras["k[x,y]/(x^2,y^2,xy-yx)"] = quiver(
        ("1",),
        (("x", "1", "1"), ("y", "1", "1")),
        (((1, ("x", "x")),), ((1, ("y", "y")),), ((1, ("x", "y")), (-1, ("y", "x")))),
        2,
    )
    for entry in corpus.ENTRIES:
        loaded = corpus.load_entry(entry.name)
        if loaded.doc.mode == "quiver":
            algebras[f"fixture {entry.name}"] = loaded.algebra
    return algebras


def test_quiver_builds_are_pinned():
    got = {name: a.content_hash() for name, a in build_pin_algebras().items()}
    assert got == BUILD_SHA256


@pytest.mark.parametrize("p", [2, 32003])
@pytest.mark.parametrize("name", ["ka3", "ka2xk2"])
def test_radical_powers_a_basis_of_each_corner(name, p, monkeypatch):
    # in a random basis every e_u*b_j*e_u is nonzero: only a basis of each
    # corner e_u*A*e_u is raised to powers, each as a row of a stack
    a = rebased(corpus.load_entry(name, p).algebra, np.random.default_rng(3))
    corners = [np.array([a.multiply(a.multiply(e, a.basis_vector(j)), e) for j in range(a.dim)]) for e in a.idempotents]
    bound = sum(PrimeMatrix(a.field, c).rank() for c in corners)
    real, stacks = quivalg.algebra.mulmod, []

    def recording(x, y, q):
        if x.ndim == 3 and x.shape[1] == 1:
            stacks.append(len(x))
        return real(x, y, q)

    monkeypatch.setattr(quivalg.algebra, "mulmod", recording)
    got = radical(a.field, a.mult, a.idempotents)
    monkeypatch.undo()
    assert stacks and max(stacks) <= bound < a.dim * len(a.idempotents)
    assert got == a.radical()


def test_tensor_products_of_algebras_are_not_revalidated(monkeypatch, K2, KA2):
    # factors are validated algebras, so their product is one: no
    # associativity pass, and the radical is computed when first read
    def refuse(self):
        raise AssertionError("validated")

    monkeypatch.setattr(Algebra, "_validate", refuse)
    products = [tensor_product(KA2, K2), enveloping(KA2), enveloping(K2)]
    assert all("radical" not in b.memo for b in products)
    monkeypatch.undo()
    for b in products:
        want = Algebra(b.field, b.labels, b.mult, b.unit, b.idempotents)
        assert b.radical() == want.radical()
        assert b.radical().cols == b.dim - len(b.idempotents)
