import numpy as np
import pytest

from quivalg.linalg import PrimeField, PrimeMatrix, nullspace, rref, solve

F5 = PrimeField(5)
F = PrimeField(32003)


def test_prime_check():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(32001)  # 3 * 10667
    assert PrimeField(2).p == 2
    assert PrimeField(32003).p == 32003


def test_rref_identity():
    m = F5.identity(2)
    red, rank, pivots = rref(m)
    assert red == m
    assert rank == 2
    assert pivots == [0, 1]


def test_rref_zero():
    m = F5.zeros(3, 3)
    red, rank, pivots = rref(m)
    assert red == m
    assert rank == 0
    assert pivots == []


def test_rref_dependent_rows_mod5():
    m = F5.matrix([[1, 2], [2, 4]])
    red, rank, pivots = rref(m)
    assert red == F5.matrix([[1, 2], [0, 0]])
    assert rank == 1
    assert pivots == [0]


def test_rref_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows, cols = rng.integers(1, 7, size=2)
        m = PrimeMatrix(F5, rng.integers(0, 5, size=(rows, cols)))
        red, _, _ = rref(m)
        again, _, _ = rref(red)
        assert again == red


def test_solve_identity():
    b = F5.matrix([[1, 2], [3, 4]])
    assert solve(F5.identity(2), b) == b


def test_solve_inconsistent():
    a = F5.zeros(2, 2)
    b = F5.matrix([[1], [0]])
    assert solve(a, b) is None


def test_solve_scalar_inverse_mod5():
    x = solve(F5.matrix([[2]]), F5.matrix([[1]]))
    assert x == F5.matrix([[3]])


def test_solve_free_variables_zero():
    # x + 2y = 1 mod 5 has solutions; the deterministic one sets y = 0
    a = F5.matrix([[1, 2]])
    b = F5.matrix([[1]])
    assert solve(a, b) == F5.matrix([[1], [0]])


def test_solve_reproduces_rhs():
    rng = np.random.default_rng(3)
    for _ in range(40):
        rows, cols = rng.integers(1, 8, size=2)
        a = PrimeMatrix(F, rng.integers(0, 32003, size=(rows, cols)))
        x_true = PrimeMatrix(F, rng.integers(0, 32003, size=(cols, 2)))
        b = a @ x_true
        x = solve(a, b)
        assert x is not None
        assert a @ x == b


def test_nullspace_identity_and_zero():
    assert nullspace(F5.identity(3)).cols == 0
    ns = nullspace(F5.zeros(4, 4))
    assert ns == F5.identity(4)


def test_nullspace_single_row_mod5():
    ns = nullspace(F5.matrix([[1, 2]]))
    assert ns == F5.matrix([[3], [1]])


def test_rank_nullity():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rows, cols = rng.integers(1, 9, size=2)
        m = PrimeMatrix(F5, rng.integers(0, 5, size=(rows, cols)))
        _, rank, _ = rref(m)
        assert m.rank() == rank
        assert rank + nullspace(m).cols == cols
        ns = nullspace(m)
        if ns.cols:
            assert (m @ ns).is_zero()


def test_matrix_ops():
    a = F5.matrix([[1, 2], [3, 4]])
    assert (a - a).is_zero()
    assert a.scale(2) == F5.matrix([[2, 4], [6, 8]])
    assert a.transpose() == F5.matrix([[1, 3], [2, 4]])
    assert a.inverse() @ a == F5.identity(2)
    assert not F5.matrix([[1, 2], [2, 4]]).is_invertible()
