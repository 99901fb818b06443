import ast
import importlib
import inspect
import pkgutil
import re
import time
from pathlib import Path

import numpy as np
import pytest

import quivalg
import quivalg.algebra
import quivalg.modules
from quivalg.errors import UnsupportedFieldError
from quivalg.linalg import (
    Coordinates,
    PrimeField,
    PrimeMatrix,
    _product_route,
    complement_projection,
    coordinates,
    mulmod,
    nullspace,
    rref,
    solve,
)

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


def free_variable_basis(m):
    """The free-variable nullspace basis read off rref of the whole of m."""
    p = m.field.p
    red, _, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = (-red.a[i, f]) % p
    return basis


def tall_sparse(rng, p, rows, cols):
    """Rows that are zero, singletons, duplicates of an earlier row, or
    couple two or three unknowns."""
    a = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        kind = rng.integers(4)
        if kind == 1:
            a[i, rng.integers(cols)] = rng.integers(1, p)
        elif kind == 2 and i:
            a[i] = a[rng.integers(i)]
        elif kind == 3:
            idx = rng.choice(cols, size=min(cols, int(rng.integers(2, 4))), replace=False)
            a[i, idx] = rng.integers(1, p, size=idx.size)
    return a


@pytest.mark.parametrize("p", [5, 32003])
def test_nullspace_is_byte_identical_to_the_whole_matrix_rref_basis(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    shapes = [(0, 4), (4, 0), (0, 0), (7, 5)]  # 7 x 5 stays all zero
    inputs = [PrimeMatrix(f, np.zeros(s, dtype=np.int64)) for s in shapes]
    for _ in range(60):
        cols = int(rng.integers(1, 13))
        inputs.append(PrimeMatrix(f, tall_sparse(rng, p, int(rng.integers(cols, 5 * cols + 1)), cols)))
    for m in inputs:
        got, want = nullspace(m), free_variable_basis(m)
        assert got.a.dtype == np.int64
        assert got.a.shape == want.shape
        assert got.a.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [5, 32003])
def test_rank_after_the_singleton_pass_equals_the_rref_rank(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p + 1)
    shapes = [(0, 4), (4, 0), (0, 0), (7, 5)]  # 7 x 5 stays all zero
    inputs = [PrimeMatrix(f, np.zeros(s, dtype=np.int64)) for s in shapes]
    # singleton rows that share a column, and a coupled row through it
    inputs.append(PrimeMatrix(f, np.array([[0, 3, 0, 0], [0, 1, 0, 0], [2, 4, 1, 0], [0, 2, 0, 0]])))
    for _ in range(60):
        cols = int(rng.integers(1, 13))
        inputs.append(PrimeMatrix(f, tall_sparse(rng, p, int(rng.integers(cols, 5 * cols + 1)), cols)))
        inputs.append(PrimeMatrix(f, tall_sparse(rng, p, int(rng.integers(0, cols)), cols)))
    for m in inputs:
        assert m.rank() == len(rref(m)[2])


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
            assert not (m @ ns).a.any()


def test_matrix_ops():
    a = F5.matrix([[1, 2], [3, 4]])
    # entries are reduced mod p on the way in
    assert not F5.matrix([[5, -5], [10, 0]]).a.any()
    assert np.array_equal(F5.matrix([[2, 4], [6, 8]]).a, (2 * a.a) % F5.p)
    assert a.transpose() == F5.matrix([[1, 3], [2, 4]])
    assert a.inverse() @ a == F5.identity(2)
    assert not F5.matrix([[1, 2], [2, 4]]).is_invertible()


# ---------------------------------------------------------------------------
# exact products: mulmod's float64 and int64 routes and the field range

P21 = 2097143  # largest prime below 2^21: float64 holds k*(P21-1)^2 up to k = 2048
P26 = 67108879  # smallest prime above 2^26: float64 only at k = 1
P29 = 536870923  # smallest prime above 2^29: one int64 product up to k = 31
M31 = 2**31 - 1  # one int64 product only up to k = 2


def reference_product(a, b, p):
    """(a @ b) mod p in Python integers."""
    return (a.astype(object) @ b.astype(object)) % p


@pytest.mark.parametrize(
    "p, k, route",
    [
        (P21, 2048, "float64"),
        (P21, 2049, "int64"),
        (P26, 1, "float64"),
        (P26, 2, "int64"),
        (M31, 2, "int64"),
        (M31, 64, "int64"),
        (32003, 8794993, "float64"),
        (32003, 8794994, "int64"),
    ],
)
def test_mulmod_routes_are_exact_on_worst_case_operands(p, k, route):
    assert _product_route(k, p) == route
    if k > 4096:  # the route switch at p = 32003, too large to multiply here
        return
    a = np.full((2, k), p - 1, dtype=np.int64)
    b = np.full((k, 3), p - 1, dtype=np.int64)
    got = mulmod(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_product(a, b, p).astype(np.int64))


@pytest.mark.parametrize("p", [2, 5, 32003, P21, P26, M31])
def test_mulmod_random_operands_match_python_integers(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        rows, k, cols = rng.integers(1, 9, size=3)
        if p == M31:
            k = min(k, 2)
        a = rng.integers(0, p, size=(rows, k), dtype=np.int64)
        b = rng.integers(0, p, size=(k, cols), dtype=np.int64)
        assert np.array_equal(mulmod(a, b, p), reference_product(a, b, p).astype(np.int64))
        v = b[:, 0].copy()
        assert np.array_equal(mulmod(a, v, p), reference_product(a, v, p).astype(np.int64))
        c = rng.integers(0, p, size=(k, cols), dtype=np.int64)
        want = np.stack([reference_product(a, b, p), reference_product(a, c, p)]).astype(np.int64)
        assert np.array_equal(mulmod(np.stack([a, a]), np.stack([b, c]), p), want)


@pytest.mark.parametrize("p", [P29, M31])
def test_mulmod_sums_int64_blocks_where_one_product_could_overflow(p):
    # k*(p-1)^2 >= 2^63 from k = 32 at P29 and k = 3 at M31: the product runs
    # in blocks reduced mod p between them, and matches Python integers
    rng = np.random.default_rng(p)
    for k in (3, 31, 32, 64, 65):
        worst = mulmod(np.full((2, k), p - 1), np.full((k, 3), p - 1), p)
        assert np.array_equal(worst, np.full((2, 3), k * (p - 1) ** 2 % p))
        a = rng.integers(0, p, size=(5, k), dtype=np.int64)
        b = rng.integers(0, p, size=(k, 4), dtype=np.int64)
        got = mulmod(a, b, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_product(a, b, p).astype(np.int64))
        assert np.array_equal(mulmod(a, b[:, 0], p), reference_product(a, b[:, 0], p).astype(np.int64))
        # stacks multiply pairwise, with the blocks along their inner dimension
        stack = rng.integers(0, p, size=(3, k, 4), dtype=np.int64)
        want = np.stack([reference_product(a, s, p) for s in stack]).astype(np.int64)
        assert np.array_equal(mulmod(np.stack([a] * 3), stack, p), want)
    f = PrimeField(p)
    for _ in range(20):
        a = PrimeMatrix(f, rng.integers(0, p, size=(6, 6), dtype=np.int64))
        b = PrimeMatrix(f, rng.integers(0, p, size=(6, 6), dtype=np.int64))
        assert np.array_equal((a @ b).a, reference_product(a.a, b.a, p).astype(np.int64))


def test_mulmod_empty_inner_dimension():
    got = mulmod(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 32003)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.zeros((2, 3), dtype=np.int64))


def test_field_range_is_refused_before_the_primality_test():
    assert PrimeField(M31).p == M31
    t = time.perf_counter()
    for p in (2**31, 2**61 - 1):  # 2^61 - 1 is prime; trial division would run for minutes
        with pytest.raises(UnsupportedFieldError):
            PrimeField(p)
    assert time.perf_counter() - t < 1.0


# ---------------------------------------------------------------------------
# coordinates in a subspace, projection onto a quotient


def test_coordinates_agree_with_solve():
    rng = np.random.default_rng(7)
    p = F.p
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        c, k = int(rng.integers(0, n + 1)), int(rng.integers(0, 4))
        basis = PrimeMatrix(F, rng.integers(0, p, size=(n, c)))
        if basis.rank() < c:
            continue
        reader = coordinates(basis)
        # members, given unreduced: any multiple of p may be added
        x = rng.integers(0, p, size=(c, k))
        v = mulmod(basis.a, x, p)
        got = reader.read(v + p * rng.integers(-3, 4, size=v.shape))
        assert np.array_equal(got, x)
        assert np.array_equal(got, solve(basis, PrimeMatrix(F, v)).a)
        if k:
            assert np.array_equal(reader.read(v[:, 0]), x[:, 0])
        # a random vector, a member exactly when solve finds a solution; a
        # stack with one non-member is refused whole
        w = rng.integers(0, p, size=(n, 1))
        want = solve(basis, PrimeMatrix(F, w))
        if want is None:
            assert reader.read(w) is None
            assert reader.read(np.hstack([v, w])) is None
        else:
            assert np.array_equal(reader.read(w), want.a)
        checked += 1
    assert checked >= 40


def test_coordinates_of_empty_bases_and_stacks():
    reader = coordinates(F.zeros(3, 0))
    assert reader.read(np.zeros((3, 2), dtype=np.int64)).shape == (0, 2)
    assert reader.read(np.array([0, F.p, 0])).shape == (0,)
    assert reader.read(np.array([0, 1, 0])) is None
    reader = coordinates(F.matrix([[1], [2], [3]]))
    assert reader.read(np.zeros((3, 0), dtype=np.int64)).shape == (1, 0)
    assert coordinates(F.zeros(0, 0)).read(np.zeros((0, 4), dtype=np.int64)).shape == (0, 4)


def test_coordinates_refuse_a_dependent_basis():
    assert coordinates(F.matrix([[1, 2], [2, 4], [3, 6]])) is None
    assert coordinates(F.zeros(3, 1)) is None
    rng = np.random.default_rng(5)
    b = rng.integers(0, F.p, size=(6, 3))
    assert coordinates(PrimeMatrix(F, np.hstack([b, mulmod(b, np.array([[2], [0], [7]]), F.p)]))) is None


def test_coordinates_on_identity_rows_skip_the_inverse():
    # a nullspace basis is the identity on its free rows, the last nonzero
    # row of each column
    rng = np.random.default_rng(9)
    m = PrimeMatrix(F, rng.integers(0, 3, size=(4, 7)))
    ns = nullspace(m)
    free = ns.rows - 1 - np.argmax(ns.a[::-1] != 0, axis=0)
    reader = Coordinates(ns, free)
    x = rng.integers(0, F.p, size=(ns.cols, 5))
    assert np.array_equal(reader.read(mulmod(ns.a, x, F.p)), x)
    assert np.array_equal(reader.read(mulmod(ns.a, x, F.p)), coordinates(ns).read(mulmod(ns.a, x, F.p)))


@pytest.mark.parametrize("p", [5, 32003])
def test_coordinates_read_nullspace_bases_by_a_gather(p):
    # a nullspace basis is the identity on its free rows, so its reader
    # gathers them and holds no inverse; its reads equal the elimination's
    f = PrimeField(p)
    rng = np.random.default_rng(p + 2)
    inputs = [PrimeMatrix(f, np.zeros(s, dtype=np.int64)) for s in [(0, 4), (4, 0), (0, 0), (7, 5)]]
    for _ in range(40):
        cols = int(rng.integers(1, 10))
        inputs.append(PrimeMatrix(f, tall_sparse(rng, p, int(rng.integers(0, cols + 1)), cols)))
    for m in inputs:
        ns = nullspace(m)
        reader = coordinates(ns)
        assert reader.inverse is None
        _, _, pivots = rref(m)
        assert reader.rows.tolist() == [c for c in range(m.cols) if c not in pivots]
        red, _, rows = rref(ns.transpose().hstack(f.identity(ns.cols)))
        eliminated = Coordinates(ns, np.array(rows, dtype=np.intp), red.a[:, ns.rows :].T.copy())
        x = rng.integers(0, p, size=(ns.cols, 3))
        members = mulmod(ns.a, x, p)
        assert np.array_equal(reader.read(members), x)
        assert np.array_equal(eliminated.read(members), x)
        other = rng.integers(0, p, size=(ns.rows, 2))
        for w in (other, np.hstack([members, other])):
            got, want = reader.read(w), eliminated.read(w)
            assert (got is None and want is None) or np.array_equal(got, want)


def test_coordinates_gather_only_where_the_basis_is_the_identity():
    perm = F.matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    reader = coordinates(perm)
    assert reader.inverse is None
    assert reader.rows.tolist() == [2, 0, 1]
    x = np.array([[3, 0], [4, 1], [5, 2]])
    assert np.array_equal(reader.read(mulmod(perm.a, x, F.p)), x)
    # 2 on the last nonzero row: eliminated, with the same reads
    column = coordinates(F.matrix([[1], [2]]))
    assert column.inverse is not None
    assert np.array_equal(column.read(np.array([[3], [6]])), [[3]])
    assert column.read(np.array([[3], [5]])) is None
    # the last nonzero rows repeat: dependent, refused by the elimination
    assert coordinates(F.matrix([[1, 1], [0, 0], [1, 1]])) is None


@pytest.mark.parametrize("p", [5, 32003])
def test_coordinates_check_membership_off_the_gathered_rows(p):
    # a read checks B c = v only on the rows outside the gather, where it can
    # fail; a change on one of those rows alone is refused, a member given
    # with multiples of p added is read
    f = PrimeField(p)
    rng = np.random.default_rng(p + 4)
    checked = 0
    for _ in range(30):
        ns = nullspace(PrimeMatrix(f, tall_sparse(rng, p, int(rng.integers(1, 6)), int(rng.integers(2, 10)))))
        reader = coordinates(ns)
        if reader.others.size == 0 or ns.cols == 0:
            continue
        assert sorted(reader.rows.tolist() + reader.others.tolist()) == list(range(ns.rows))
        x = rng.integers(0, p, size=(ns.cols, 3))
        members = mulmod(ns.a, x, p)
        assert np.array_equal(reader.read(members + p * rng.integers(-2, 3, size=members.shape)), x)
        for row in reader.others:
            bad = members.copy()
            bad[row, 1] = (bad[row, 1] + 1) % p
            assert reader.read(bad) is None
            assert reader.read(bad[:, 1]) is None
        checked += 1
    assert checked >= 10


def test_complement_projection_reduces_by_the_echelon_rows():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n, c = int(rng.integers(1, 8)), int(rng.integers(0, 9))
        sub = PrimeMatrix(F, rng.integers(0, 2, size=(n, c)) * rng.integers(0, F.p, size=(n, c)))
        proj, sec = complement_projection(sub)
        red, rank, pivots = rref(sub.transpose())
        assert proj.rows == n - rank
        assert not (proj @ sub).a.any()
        assert proj @ sec == F.identity(n - rank)
        # reference: subtract the echelon row of each pivot in turn, then
        # read the free coordinates
        free = [j for j in range(n) if j not in pivots]
        for q in range(n):
            w = np.zeros(n, dtype=np.int64)
            w[q] = 1
            for i, col in enumerate(pivots):
                w = (w - w[col] * red.a[i]) % F.p
            assert np.array_equal(proj.a[:, q], w[free])


# ---------------------------------------------------------------------------
# one product path and one basis reader, outside linalg

# the `@` products outside linalg, by (module, function, expression): none,
# every product outside linalg calls mulmod
PRIME_MATRIX_PRODUCTS = set()


def walk_with_function(node, function=None):
    """(qualified name of the innermost enclosing function or class, such as
    ``HomSpace.__init__``, node) for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = function
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{function}.{child.name}" if function else child.name
        yield inner, child
        yield from walk_with_function(child, inner)


def package_functions(with_linalg=False):
    """(module, innermost function, node) for every AST node of the package,
    outside linalg.py unless ``with_linalg``."""
    for path in sorted((Path(__file__).parent.parent / "src" / "quivalg").glob("*.py")):
        if with_linalg or path.name != "linalg.py":
            for function, node in walk_with_function(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.stem, function, node


def test_matrix_products_outside_linalg_are_prime_matrix_products():
    found = set()
    for module, function, node in package_functions():
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add((module, function, ast.unparse(node)))
    # a raw ndarray product would skip mulmod's overflow bound
    assert found == PRIME_MATRIX_PRODUCTS


# the functions that may build Kronecker products: the tensor product of two
# algebras, and the linear systems of Hom spaces, of tensor products over an
# algebra and of separability idempotents.  Any other space of module maps is
# a HomSpace, so a hand-built intertwining system has no place to come back
KRON_FUNCTIONS = {
    ("algebra", "tensor_product"),
    ("modules", "HomSpace.__init__"),
    ("modules", "tensor_over_algebra"),
    ("extensions", "_separable"),
}


def test_kronecker_products_build_only_the_allowed_systems():
    found = {
        (module, function)
        for module, function, node in package_functions(with_linalg=True)
        if "kron" in (getattr(node, "attr", None), getattr(node, "id", None))
    }
    assert found == KRON_FUNCTIONS


# the callers of the free function algebra.radical: the memoized radical of
# an algebra, and the top of a Hom space, which reads rad End(m) once for
# both approximations and isomorphism.  Anything else that needs the radical
# of an End algebra goes through one of them
RADICAL_CALLERS = {
    ("algebra", "Algebra.radical"),
    ("modules", "_top_of_hom"),
}


def test_only_the_allowed_functions_compute_a_radical():
    found = {
        (module, function)
        for module, function, node in package_functions(with_linalg=True)
        if isinstance(node, ast.Call)
        and "radical" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and (node.args or node.keywords)  # the method Algebra.radical() takes none
    }
    assert found == RADICAL_CALLERS


def test_only_linalg_chooses_how_a_basis_is_read():
    calls = [
        (module, node.lineno)
        for module, _, node in package_functions()
        if isinstance(node, ast.Call)
        and "Coordinates" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == []


def test_the_package_draws_no_random_numbers():
    # every verdict is exact: no module imports random or reaches numpy's
    # generators
    found = []
    for path in sorted((Path(__file__).parent.parent / "src" / "quivalg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {part for alias in node.names for part in alias.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split(".")) | {alias.name for alias in node.names}
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = {getattr(node, "attr", None), getattr(node, "id", None)}
            else:
                continue
            if names & {"random", "default_rng"}:
                found.append((path.stem, node.lineno))
    assert found == []


def memo_keys_written():
    """(module, key) for every literal key the package writes to a memo:
    ``x.memo[key] = ...`` or ``x.memo.setdefault(key, ...)``."""
    found = set()
    for module, _, node in package_functions(with_linalg=True):
        if isinstance(node, ast.Assign):
            slots = [t for t in node.targets if isinstance(t, ast.Subscript)]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault":
            slots = [ast.Subscript(node.func.value, node.args[0])]
        else:
            continue
        for slot in slots:
            if getattr(slot.value, "attr", None) == "memo" and isinstance(slot.slice, ast.Constant):
                found.add((module, slot.slice.value))
    return found


def test_every_memo_key_is_documented_where_the_memos_are():
    # a key is named, in double quotes, in the Algebra or ModuleRep docstring,
    # and those docstrings name no key that nothing writes
    written = memo_keys_written()
    documented = set(re.findall(r'"(\w+)"', quivalg.algebra.Algebra.__doc__ + quivalg.modules.ModuleRep.__doc__))
    assert {key for _, key in written} == documented
    assert ("algebra", "arrows") in written


MODULES_WITH_ALL = [
    mod
    for mod in (importlib.import_module(f"quivalg.{info.name}") for info in pkgutil.iter_modules(quivalg.__path__))
    if hasattr(mod, "__all__")
]


@pytest.mark.parametrize("mod", MODULES_WITH_ALL, ids=lambda mod: mod.__name__)
def test_all_lists_exactly_the_public_classes_and_functions(mod):
    # constants may be listed too; every listed name must exist
    listed = {n: getattr(mod, n) for n in mod.__all__}
    defined = {
        n
        for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == mod.__name__
    }
    assert {n for n, obj in listed.items() if inspect.isclass(obj) or inspect.isfunction(obj)} == defined


def test_only_linalg_refuses_a_field():
    # every radical is exact at every prime, so the only field a computation
    # refuses is a modulus that int64 arithmetic cannot hold
    raises = [
        (module, node.lineno)
        for module, _, node in package_functions()
        if isinstance(node, ast.Raise)
        and "UnsupportedFieldError" in {getattr(n, "id", None) for n in ast.walk(node)}
    ]
    assert raises == []
