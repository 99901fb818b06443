import numpy as np
import pytest

from quivalg.algebra import (
    Algebra,
    Extension,
    enveloping,
    one_dimensional_algebra,
    opposite,
    tensor_product,
)
from quivalg.errors import InputError, UnsupportedFieldError
from quivalg.linalg import PrimeField, PrimeMatrix

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


def test_radical_modes_agree(corpus_algebras):
    for name, a in corpus_algebras.items():
        table = Algebra(a.field, a.labels, a.mult, a.unit, a.idempotents)
        r1, r2 = a.radical(), table.radical()
        assert r1.rank() == r2.rank() == r1.hstack(r2).rank(), name


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


def test_semisimple_quotient_dimension(corpus_algebras):
    for name, a in corpus_algebras.items():
        assert a.dim - a.radical().cols == len(a.idempotents), name


def test_table_mode_needs_big_prime():
    small = PrimeField(3)
    one = np.array([1], dtype=np.int64)
    a3 = Algebra(small, ["e", "x", "y"],
                 np.zeros((3, 3, 3), dtype=np.int64), one, [one], validate=False)
    # dim 3 over p=3: trace-form radical unsupported
    with pytest.raises(UnsupportedFieldError):
        a3.radical()


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
