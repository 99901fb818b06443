import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import quivalg.algebra
import quivalg.linalg
import quivalg.modules
from quivalg import corpus
from quivalg.algebra import QuiverPresentation, build_from_quiver, column_span_basis, enveloping, tensor_product
from quivalg.errors import InputError, UnsupportedFieldError
from quivalg.homology import ext_dims, gen_cogen, minimal_gen_cogen, minimal_resolution
from quivalg.linalg import PrimeField, PrimeMatrix, complement_projection, coordinates, mulmod, nullspace
from quivalg.modules import (
    DirectSum,
    HomSpace,
    ModuleRep,
    Morphism,
    dualize,
    endo_structure_constants,
    is_isomorphic,
    kernel,
    projective_cover,
    quotient_module,
    regular_module,
    standard_modules,
    submodule,
    tensor_over_algebra,
    top_multiplicities,
    zero_module,
)

from conftest import (
    FIELD,
    accepts,
    cokernel,
    cyclic_nakayama,
    dense_intertwines,
    dense_module_check,
    dense_sum,
    dense_tensor_quotient,
    hom_member,
    identity_morphism,
    image,
    rad_module,
    soc,
    soc_multiplicities,
    tensor_quotient,
)
from test_algebra import PRESENTATIONS, rebased


def small_corpus_modules(alg, max_dim=10):
    std = standard_modules(alg)
    mods = [std.regular, std.coregular] + std.projectives + std.injectives + std.simples
    return [m for m in mods if m.dim <= max_dim]


# ---------------------------------------------------------------------------
# submodules


def _is_invariant_line(m, v):
    """Whether span(v) is closed under the action, decided by ranks."""
    moved = np.stack([v] + [(m.action[a] @ v) % FIELD.p for a in range(m.algebra.dim)], axis=1)
    return PrimeMatrix(FIELD, moved).rank() == 1


def test_submodule_rejects_a_subspace_that_is_not_invariant(KA2, K2, AUS):
    """Lines in regular modules: each invariant one is a submodule whose
    inclusion intertwines, and each other one is refused."""
    refused = 0
    for alg in (KA2, K2, AUS):
        reg = regular_module(alg)
        lines = [np.eye(alg.dim, dtype=np.int64)[:, j] for j in range(alg.dim)]
        lines.append(np.ones(alg.dim, dtype=np.int64))  # a generic line
        for v in lines:
            basis = PrimeMatrix(FIELD, v.reshape(-1, 1))
            if _is_invariant_line(reg, v):
                sub, inc = submodule(reg, basis)
                assert sub.dim == 1
                inc.check()
            else:
                refused += 1
                with pytest.raises(InputError, match="not invariant"):
                    submodule(reg, basis)
    assert refused >= 4


def test_submodule_rejects_a_simple_subspace_of_a_projective(KA2):
    """P(1) over k(1 -> 2) has the simple socle S(2) and no other line: the
    top vector alone spans a subspace the arrow moves out of."""
    p1 = standard_modules(KA2).projectives[0]
    assert p1.dim == 2
    soc_basis = soc(p1)[1].map
    sub, _ = submodule(p1, soc_basis)
    assert sub.dim == 1
    other = np.array([[1], [0]]) if soc_basis.a[0, 0] == 0 else np.array([[0], [1]])
    with pytest.raises(InputError, match="not invariant"):
        submodule(p1, PrimeMatrix(FIELD, other))


def one_read_action(m, basis):
    """The action on span(basis) from one read of every moved basis column at
    once: the reference for the block reads of ``submodule``."""
    c, d = basis.cols, m.algebra.dim
    coords = coordinates(basis).read(m.moved(basis.a))
    assert coords is not None
    return coords.reshape(c, d, c).transpose(1, 0, 2)


def read_step(m):
    """The basis columns per block of ``submodule``'s reads from m."""
    return max(1, 2**16 // (m.dim * m.algebra.dim))


@pytest.fixture(scope="module")
def deep_kernel(K2):
    """P_10 of the simple over k[x]/(x^2)^(x)3 and a basis of the kernel of
    P_10 -> P_9: 287 columns of a 528-dim sum, read in 20 blocks."""
    a = tensor_product(tensor_product(K2, K2), K2)
    f = minimal_resolution(standard_modules(a).simples[0], 10).maps[10]
    return f.source, nullspace(f.map)


def test_block_reads_agree_with_one_read(corpus_algebras, deep_kernel):
    for a in corpus_algebras.values():
        std = standard_modules(a)
        for m in [std.regular, std.coregular] + std.projectives + std.injectives + std.simples:
            for basis in (rad_module(m)[1].map, soc(m)[1].map, FIELD.identity(m.dim)):
                if basis.cols:
                    assert basis.cols <= read_step(m)
                    assert submodule(m, basis)[0].action.tobytes() == one_read_action(m, basis).tobytes()
    m, basis = deep_kernel
    assert basis.cols > 2 * read_step(m) and basis.cols % read_step(m)  # a partial last block
    sub, inc = submodule(m, basis)
    assert sub.action.tobytes() == one_read_action(m, basis).tobytes()
    assert inc.map == basis


def test_block_reads_refuse_a_column_of_the_last_block(deep_kernel):
    # the kernel is invariant; a generator of P_10 appended to it is the
    # only column moved out of the span, and it sits in the last block
    m, basis = deep_kernel
    top = np.zeros((m.dim, 1), dtype=np.int64)
    top[0] = 1
    wider = basis.hstack(PrimeMatrix(FIELD, top))
    assert wider.cols > 2 * read_step(m) and wider.cols % read_step(m) > 1
    with pytest.raises(InputError, match="not invariant"):
        submodule(m, wider)


def test_a_submodule_keeps_the_action_it_built(deep_kernel):
    # the 287-dim kernel's action (5.3 MB) is built once and kept: the traced
    # peak was 2.11 times its size while the module reduced a copy of it,
    # and 1.46 times with the block reads.  It is now built on first read,
    # into place: submodule() peaks at 0.98 times its size (the closure
    # check) and the first read at 1.40 times
    m, basis = deep_kernel
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sub, _ = submodule(m, basis)
        peaks = [tracemalloc.get_traced_memory()[1] - held]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        action = sub.action
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        if started:
            tracemalloc.stop()
    assert sub.action is action
    assert max(peaks) < 1.75 * action.nbytes, [f"{x / action.nbytes:.2f}" for x in peaks]


def spans_the_same(p, basis, moved):
    """Whether the columns of moved lie in the column span of basis."""
    field = PrimeField(p)
    return PrimeMatrix(field, np.hstack([basis, moved])).rank() == PrimeMatrix(field, basis).rank()


def test_submodule_checks_closure_on_the_idempotents_and_the_arrows(KA2, AUS):
    # each e_v.m is closed under every idempotent; it is a submodule iff
    # every arrow keeps it, which the whole action decides too
    refused_by_one_arrow = 0
    for alg in (KA2, AUS, rebased(AUS, np.random.default_rng(3))):
        p = alg.field.p
        std = standard_modules(alg)
        arrows = alg.arrows().a.T
        for m in [std.regular, std.coregular] + std.projectives + std.injectives:
            for e in alg.idempotents:
                basis = column_span_basis(PrimeMatrix(alg.field, m.act(e)))
                if not basis.cols:
                    continue
                assert all(spans_the_same(p, basis.a, mulmod(m.act(f), basis.a, p)) for f in alg.idempotents)
                moved_out = [not spans_the_same(p, basis.a, mulmod(m.act(x), basis.a, p)) for x in arrows]
                whole = spans_the_same(p, basis.a, m.moved(basis.a))
                assert whole == (not any(moved_out))
                if whole:
                    assert submodule(m, basis)[0].action.tobytes() == one_read_action(m, basis).tobytes()
                else:
                    refused_by_one_arrow += sum(moved_out) == 1
                    with pytest.raises(InputError, match="not invariant"):
                        submodule(m, basis)
    assert refused_by_one_arrow >= 4


def test_submodule_checks_closure_on_the_idempotents_too(KA2, AUS):
    # the sum v of the socle's basis vectors spans a line every arrow kills,
    # which an idempotent moves out of when the socle meets two vertices
    refused = 0
    for alg in (KA2, AUS, rebased(AUS, np.random.default_rng(4))):
        p = alg.field.p
        std = standard_modules(alg)
        for m in [std.regular, std.coregular] + std.projectives + std.injectives:
            socle = soc(m)[1].map.a
            v = (socle.sum(axis=1, keepdims=True)) % p
            assert not any(mulmod(m.act(x), v, p).any() for x in alg.arrows().a.T)
            if all(spans_the_same(p, v, mulmod(m.act(e), v, p)) for e in alg.idempotents):
                assert submodule(m, PrimeMatrix(alg.field, v))[0].dim == 1
                continue
            refused += 1
            with pytest.raises(InputError, match="not invariant"):
                submodule(m, PrimeMatrix(alg.field, v))
    assert refused >= 3


@pytest.mark.parametrize("p", [2, 32003, 2**31 - 1])
def test_a_submodule_reads_through_its_ambient_module(p):
    # aus in a random basis; the ambient modules are a dense module, a sum
    # holding one summand object twice and a submodule, and the bases a
    # column span (read through an inverse) and a nullspace (a gather)
    rng = np.random.default_rng(p + 7)
    alg = rebased(build_from_quiver(PRESENTATIONS["aus"], PrimeField(p)), rng)
    std = standard_modules(alg)
    twice = DirectSum(alg, [std.regular, std.coregular, std.regular])
    ambients = [std.regular, twice, rad_module(twice)[0]]
    checked = 0
    for amb in ambients:
        for basis in (rad_module(amb)[1].map, soc(amb)[1].map):
            lazy, built = submodule(amb, basis)[0], submodule(amb, basis)[0]
            dense = ModuleRep(alg, built.action)
            x = rng.integers(0, p, size=(alg.dim, 3))
            b = rng.integers(0, p, size=(lazy.dim, 4))
            gens = quivalg.modules._generators(alg)
            assert lazy._generator_action().tobytes() == dense._combine(gens).tobytes()
            assert lazy._generator_action().tobytes() == dense._combine(gens).tobytes()  # through amb
            assert lazy.act(x[:, 0]).tobytes() == dense.act(x[:, 0]).tobytes()
            assert lazy._combine(x).tobytes() == dense._combine(x).tobytes()
            assert lazy.moved(b).tobytes() == dense.moved(b).tobytes()
            assert lazy.moved(b, x).tobytes() == dense.moved(b, x).tobytes()
            assert quivalg.modules._radical_span(lazy) == quivalg.modules._radical_span(dense)
            assert "action" not in lazy.__dict__
            assert lazy.action.tobytes() == dense.action.tobytes()
            checked += 1
    assert checked == 6


def test_module_input_is_reduced_and_never_aliased(KA2):
    rng = np.random.default_rng(5)
    action = standard_modules(KA2).regular.action
    m = ModuleRep(KA2, action + FIELD.p * rng.integers(-3, 3, size=action.shape))
    assert m.action.dtype == np.int64 and m.action.tobytes() == action.tobytes()
    # a reduced int64 action of the caller's is still copied, so that the
    # caller may change it afterwards
    given = action.copy()
    m = ModuleRep(KA2, given)
    assert not np.shares_memory(m.action, given)
    given[:] = 0
    assert m.action.tobytes() == action.tobytes()


# ---------------------------------------------------------------------------
# reads of the action


def whole_action_reads(m, x, basis):
    """act(x), moved(basis) and the arrows' actions side by side (the
    radical span) from the whole action tensor at once, in Python integers:
    the reference for the block reads."""
    p, d = m.algebra.field.p, m.algebra.dim
    act = m.action.astype(object)
    act_x = np.tensordot(np.asarray(x, dtype=object) % p, act, axes=1) % p
    moved = np.concatenate([act[a].dot(basis.astype(object)) % p for a in range(d)], axis=1)
    arrows = m.algebra.arrows().a.astype(object)
    arrow_action = (np.tensordot(arrows.T, act, axes=1) % p).transpose(1, 0, 2)
    return [z.astype(np.int64).reshape(shape) for z, shape in (
        (act_x, (m.dim, m.dim)),
        (moved, (m.dim, d * basis.shape[1])),
        (arrow_action, (m.dim, arrows.shape[1] * m.dim)),
    )]


@pytest.mark.parametrize("p", [2, 32003, 2**31 - 1])
def test_action_reads_equal_the_whole_action_formulas(p):
    # aus in a random basis: its arrows have several nonzero coordinates at
    # p > 2; at 2^31 - 1 every product takes mulmod's int64 route
    rng = np.random.default_rng(p)
    alg = rebased(build_from_quiver(PRESENTATIONS["aus"], PrimeField(p)), rng)
    std = standard_modules(alg)
    # the reads are linear in the action tensor, so a random one tests them
    # too; this one is past the size that one product reads at once
    noise = ModuleRep(alg, rng.integers(0, p, size=(alg.dim, 120, 120)))
    assert noise.action.size > quivalg.modules._BLOCK
    mods = [zero_module(alg), std.regular, std.coregular, noise, DirectSum(alg, [std.regular, noise, std.regular])]
    for m in mods:
        for x in (np.zeros(alg.dim, dtype=np.int64), rng.integers(-2 * p, 2 * p, size=alg.dim), alg.unit):
            basis = rng.integers(0, p, size=(m.dim, 3))
            act, moved, span = whole_action_reads(m, x, basis)
            assert m.act(x).tobytes() == act.tobytes()
            assert m.moved(basis).tobytes() == moved.tobytes()
            assert quivalg.modules._radical_span(m).a.tobytes() == span.tobytes()


# ---------------------------------------------------------------------------
# standard modules


def test_standard_dims_k2(K2):
    std = standard_modules(K2)
    assert [m.dim for m in std.projectives] == [2]
    assert [m.dim for m in std.injectives] == [2]
    assert [m.dim for m in std.simples] == [1]
    assert std.coregular.dim == 2


def test_standard_dims_ka2(KA2):
    std = standard_modules(KA2)
    assert [m.dim for m in std.projectives] == [2, 1]
    assert [m.dim for m in std.injectives] == [1, 2]


def test_standard_dims_aus(AUS):
    std = standard_modules(AUS)
    assert [m.dim for m in std.projectives] == [3, 2]
    assert [m.dim for m in std.injectives] == [3, 2]


def test_module_actions_validate(corpus_algebras):
    for a in corpus_algebras.values():
        std = standard_modules(a)
        for m in [std.regular, std.coregular] + std.projectives + std.injectives + std.simples:
            m.check()


def test_module_check_near_the_largest_prime_never_rejects_a_valid_module():
    # x acts on F_p^4 by N = v w^T with w.v = 0, so N^2 = 0: a valid
    # k[x]/(x^2)-module whose check products can exceed int64 at this p
    p = 2**31 - 1
    k2 = build_from_quiver(
        QuiverPresentation(("1",), (("x", "1", "1"),), (((1, ("x", "x")),),), 1), PrimeField(p)
    )
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = [int(t) for t in rng.integers(1, p, size=4)]
        w = [0] + [int(t) for t in rng.integers(0, p, size=3)]
        w[0] = -sum(wi * vi for wi, vi in zip(w[1:], v[1:])) * pow(v[0], p - 2, p) % p
        action = np.zeros((2, 4, 4), dtype=np.int64)
        action[k2.labels.index("e_1")] = np.eye(4, dtype=np.int64)
        action[k2.labels.index("x")] = [[vi * wj % p for wj in w] for vi in v]
        try:
            ModuleRep(k2, action).check()
        except UnsupportedFieldError:
            pass


# ---------------------------------------------------------------------------
# linearity tests read the generators, and agree with per-basis references


def corrupted_copies(m, rng):
    """Per basis element b of the algebra, (b, m with one entry of its
    action at b changed by a nonzero amount)."""
    p = m.algebra.field.p
    for b in range(m.algebra.dim):
        action = m.action.copy()
        i, j = rng.integers(0, m.dim, size=2)
        action[b, i, j] = (action[b, i, j] + rng.integers(1, p)) % p
        yield b, ModuleRep(m.algebra, action)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_module_check_agrees_with_the_pairwise_reference(p):
    # every standard module of every corpus algebra, and copies with one
    # entry corrupted at each basis element, paths of length >= 2 included
    rng = np.random.default_rng(p)
    refused, refused_long = 0, 0
    for entry in corpus.ENTRIES:
        alg = corpus.load_entry(entry.name, p).algebra
        std = standard_modules(alg)
        lengths = alg.basis_path_lengths or [0] * alg.dim
        for m in [std.regular, std.coregular] + std.projectives + std.injectives + std.simples:
            assert accepts(m.check) and dense_module_check(m), entry.name
            for b, bad in corrupted_copies(m, rng):
                verdict = dense_module_check(bad)
                assert accepts(bad.check) == verdict, (entry.name, b)
                refused += not verdict
                refused_long += not verdict and lengths[b] >= 2
    assert refused > 100 and refused_long > 10


def test_morphism_check_agrees_with_the_per_basis_reference(corpus_algebras):
    # Hom basis maps, the same maps with one entry corrupted, and random maps
    rng = np.random.default_rng(3)
    refused = 0
    for h in corpus_hom_spaces(corpus_algebras):
        p, shape = h.matrix.field.p, (h.target.dim, h.source.dim)
        maps = list(h.maps()) + [rng.integers(0, p, size=shape)]
        if h.dim and all(shape):
            bad = h.maps()[0].copy()
            bad[tuple(rng.integers(0, shape))] += 1
            maps.append(bad % p)
        for f in maps:
            mor = Morphism(h.source, h.target, PrimeMatrix(h.matrix.field, f))
            verdict = dense_intertwines(mor)
            assert accepts(mor.check) == verdict
            refused += not verdict
    assert refused > 100


def test_tensor_relations_from_the_generators_span_the_per_basis_relations(corpus_algebras):
    # x (x)_A y for x the dual of a standard module (a right module) and y a
    # standard module: the same projection and section, byte for byte
    pairs = 0
    for a in corpus_algebras.values():
        std = standard_modules(a)
        mods = [m for m in [std.regular, std.coregular] + std.projectives + std.simples if m.dim <= 6]
        for x, y in itertools.product(mods, repeat=2):
            got, want = tensor_quotient(dualize(x), y), dense_tensor_quotient(dualize(x), y)
            for g, w in zip(got, want):
                assert g.a.shape == w.a.shape and g.a.tobytes() == w.a.tobytes()
            pairs += 1
    assert pairs > 200


def test_linearity_tests_read_the_generators(KA3, monkeypatch):
    # the module check, the morphism check and the tensor relations each
    # read the idempotents and arrows (_generators), not every basis element
    reads = []
    real = quivalg.modules._generators
    monkeypatch.setattr(quivalg.modules, "_generators", lambda alg: reads.append(alg) or real(alg))
    std = standard_modules(KA3)
    tests = {
        "ModuleRep.check": std.regular.check,
        "Morphism.check": identity_morphism(DirectSum(KA3, [std.regular, std.coregular])).check,
        "tensor_over_algebra": lambda: tensor_quotient(dualize(std.regular), std.simples[0]),
    }
    for name, run in tests.items():
        reads.clear()
        run()
        assert reads, name


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_dims_k2(K2):
    std = standard_modules(K2)
    A, S = std.regular, std.simples[0]
    assert len(HomSpace(A, S).maps()) == 1
    assert len(HomSpace(S, A).maps()) == 1
    assert len(HomSpace(A, A).maps()) == 2


def test_hom_dims_ka2(KA2):
    std = standard_modules(KA2)
    assert len(HomSpace(std.projectives[0], std.simples[0]).maps()) == 1


def test_hom_morphisms_intertwine(corpus_algebras):
    for a in corpus_algebras.values():
        std = standard_modules(a)
        h = HomSpace(std.regular, std.coregular)
        for f in h.maps():
            Morphism(h.source, h.target, PrimeMatrix(a.field, f)).check()


def test_yoneda_identity(corpus_algebras):
    # dim Hom(P(i), M) equals dim e_i.M for every corpus module
    for name, a in corpus_algebras.items():
        std = standard_modules(a)
        for m in small_corpus_modules(a):
            for i, p in enumerate(std.projectives):
                lhs = HomSpace(p, m).dim
                rhs = PrimeMatrix(a.field, m.act(a.idempotents[i])).rank()
                assert lhs == rhs, (name, i)


def test_hom_mismatched_algebras(K2, KA2):
    with pytest.raises(InputError):
        HomSpace(standard_modules(K2).regular, standard_modules(KA2).regular)


def corpus_hom_spaces(corpus_algebras):
    """Hom spaces between the regular, coregular, simple and zero modules of
    every corpus algebra, including zero spaces and empty matrices."""
    spaces = []
    for a in corpus_algebras.values():
        std = standard_modules(a)
        mods = [std.regular, std.coregular, std.simples[0], std.simples[-1], zero_module(a)]
        spaces.extend(HomSpace(x, y) for x in mods for y in mods)
    return spaces


def test_hom_basis_is_identity_on_free_rows(corpus_algebras):
    for h in corpus_hom_spaces(corpus_algebras):
        free = quivalg.linalg.coordinates(h.matrix).rows
        assert np.array_equal(h.matrix.a[free], np.eye(h.dim, dtype=np.int64))
        # the free row of each basis column is its last nonzero row
        for j, f in enumerate(free):
            assert not h.matrix.a[f + 1 :, j].any()


def test_hom_coordinates_run_no_elimination(corpus_algebras, monkeypatch):
    spaces = corpus_hom_spaces(corpus_algebras)

    def no_elimination(*args, **kwargs):
        raise AssertionError("elimination after the hom space was built")

    monkeypatch.setattr(quivalg.linalg, "_eliminate", no_elimination)
    for h in spaces:
        maps = h.maps()
        eye = np.eye(h.dim, dtype=np.int64)
        for j in range(h.dim):
            assert np.array_equal(h.read(maps[j : j + 1])[:, 0], eye[j])
            assert np.array_equal(hom_member(h, eye[j]).a, maps[j])
        if h.source is h.target and h.dim:
            mult = endo_structure_constants(h)
            p = h.matrix.field.p
            for i, j in itertools.product(range(h.dim), repeat=2):
                assert np.array_equal(hom_member(h, mult[i, j]).a, mulmod(maps[i], maps[j], p))


def test_hom_coords_inverts_from_coords(corpus_algebras):
    rng = np.random.default_rng(0)
    for h in corpus_hom_spaces(corpus_algebras):
        p = h.matrix.field.p
        for _ in range(3):
            c = rng.integers(0, p, size=h.dim)
            assert np.array_equal(h.read(hom_member(h, c).a[None])[:, 0], c)


def test_hom_coords_rejects_non_intertwiners(corpus_algebras, KA2):
    rng = np.random.default_rng(1)
    rejected = 0
    for h in corpus_hom_spaces(corpus_algebras):
        if h.dim == h.target.dim * h.source.dim:
            continue  # every linear map intertwines
        f = PrimeMatrix(FIELD, rng.integers(0, FIELD.p, size=(h.target.dim, h.source.dim)))
        with pytest.raises(InputError, match="does not intertwine"):
            Morphism(h.source, h.target, f).check()
        with pytest.raises(InputError, match="not in the hom space"):
            h.read(f.a[None])
        rejected += 1
    assert rejected > 50
    # a zero hom space rejects every nonzero map
    std = standard_modules(KA2)
    h = HomSpace(std.simples[0], std.simples[1])
    assert h.dim == 0
    with pytest.raises(InputError):
        h.read(FIELD.matrix([[1]]).a[None])


def test_hom_coords_of_unreduced_representative(corpus_algebras):
    rng = np.random.default_rng(2)
    for h in corpus_hom_spaces(corpus_algebras):
        p = h.matrix.field.p
        f = hom_member(h, rng.integers(0, p, size=h.dim)).a
        want = h.read(f[None])
        for shift in (p, -p, 3 * p):
            assert np.array_equal(h.read((f + shift)[None]), want)


def gencogen_of_path_algebra(n):
    """The minimal generator-cogenerator of the path algebra of 1 -> ... -> n."""
    verts = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, n))
    return minimal_gen_cogen(build_from_quiver(QuiverPresentation(verts, arrows, (), n - 1), FIELD))


def test_hom_nullspace_eliminates_only_coupled_rows(monkeypatch):
    m = gencogen_of_path_algebra(5)
    nullspace, eliminate = quivalg.modules.nullspace, quivalg.linalg._eliminate
    constraints, eliminated = [], []

    def recording_nullspace(c):
        constraints.append(c.a.copy())
        return nullspace(c)

    def recording_eliminate(a, p, full):
        eliminated.append(a.copy())
        return eliminate(a, p, full)

    monkeypatch.setattr(quivalg.modules, "nullspace", recording_nullspace)
    monkeypatch.setattr(quivalg.linalg, "_eliminate", recording_eliminate)
    h = HomSpace(m, m)
    assert h.dim == 35
    [c], [a] = constraints, eliminated
    counts = np.count_nonzero(c, axis=1)
    forced = np.unique(np.nonzero(c[counts == 1])[1])
    # the 9,375 x 625 stack: its 100 coupled rows on the 75 unforced unknowns
    assert c.shape == (9375, 625)
    assert a.shape == (np.count_nonzero(counts >= 2), 625 - forced.size) == (100, 75)
    assert np.array_equal(a, np.delete(c[counts >= 2], forced, axis=1))


# sha256 of HomSpace(M, M).matrix.a for the minimal generator-cogenerator M
# of A6, recorded before nullspace stopped eliminating singleton rows
A6_GENCOGEN_HOM_SHA256 = "30ee20e332339b02bfd691a67520d9edf009814c83b3e99af35947bf15c6d4df"


def test_a6_gencogen_hom_basis_is_pinned():
    m = gencogen_of_path_algebra(6)
    h = HomSpace(m, m)
    assert h.matrix.a.shape == (1296, 51)
    assert hashlib.sha256(h.matrix.a.tobytes()).hexdigest() == A6_GENCOGEN_HOM_SHA256


def test_hom_spaces_compute_no_radical(K2, KA2, monkeypatch):
    # the constraints come from the algebra's own basis, so a Hom space over
    # a tensor or enveloping algebra, which is built without validation,
    # certifies no radical
    def refuse(*args):
        raise AssertionError("a radical was computed")

    monkeypatch.setattr(quivalg.algebra, "radical", refuse)
    for alg in (tensor_product(K2, KA2), enveloping(KA2)):
        reg = regular_module(alg)
        assert HomSpace(reg, reg).dim == alg.dim  # End(A) = A^op


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def test_quotient_projection_times_section_is_identity(corpus_algebras):
    for a in corpus_algebras.values():
        for m in small_corpus_modules(a):
            for sub in (rad_module(m)[1].map, soc(m)[1].map):
                quot, proj, sec = quotient_module(m, sub)
                assert proj.map @ sec == FIELD.identity(quot.dim)


def test_quotient_by_a_spanning_set_equals_the_quotient_by_its_basis(corpus_algebras):
    # the radical's actions side by side span rad(m) with dependent columns
    for a in corpus_algebras.values():
        r = a.radical()
        for m in small_corpus_modules(a):
            cols = [m.act(r.a[:, j]) for j in range(r.cols)]
            span = PrimeMatrix(FIELD, np.hstack([np.zeros((m.dim, 0), dtype=np.int64), *cols, *cols]))
            got = quotient_module(m, span)
            want = quotient_module(m, column_span_basis(span))
            assert got[0].action.tobytes() == want[0].action.tobytes()
            assert got[1].map.tobytes() == want[1].map.tobytes()
            assert got[2].tobytes() == want[2].tobytes()


def test_quotient_of_a_sum_is_the_quotient_of_its_dense_sum(corpus_algebras):
    # a DirectSum's quotient reads the action per summand; the quotient by
    # the whole space has an empty section
    for name, a in corpus_algebras.items():
        for mods in direct_sum_cases(a):
            s, dense = DirectSum(a, mods), dense_sum(a, mods)
            for sub in (rad_module(dense)[1].map, FIELD.identity(s.dim)):
                got, want = quotient_module(s, sub), quotient_module(dense, sub)
                assert got[0].action.tobytes() == want[0].action.tobytes(), name
                assert got[0].action.flags["C_CONTIGUOUS"], name
                assert "action" not in s.__dict__, name


def test_kernel_of_identity(K2):
    m = standard_modules(K2).regular
    ker, _ = kernel(identity_morphism(m))
    assert ker.dim == 0


def test_cokernel_of_zero_map(K2):
    m = standard_modules(K2).regular
    z = zero_module(K2)
    cok, proj = cokernel(Morphism(z, m, FIELD.zeros(m.dim, 0)))
    assert cok.dim == m.dim
    assert is_isomorphic([m], cok)


def test_kernel_p1_to_s1_is_s2(KA2):
    std = standard_modules(KA2)
    h = HomSpace(std.projectives[0], std.simples[0])
    f = Morphism(h.source, h.target, PrimeMatrix(FIELD, h.maps()[0]))
    ker, inc = kernel(f)
    inc.check()
    assert ker.dim == 1
    assert is_isomorphic([std.simples[1]], ker)


def test_image_composition(KA2):
    std = standard_modules(KA2)
    h = HomSpace(std.projectives[0], std.regular)
    f = Morphism(h.source, h.target, PrimeMatrix(FIELD, h.maps()[0]))
    img, inc = image(f)
    inc.check()
    assert img.dim == PrimeMatrix(FIELD, f.map.a).rank()


# ---------------------------------------------------------------------------
# duality


def test_double_dual_equal_matrices(corpus_algebras):
    for a in corpus_algebras.values():
        m = standard_modules(a).regular
        dd = dualize(dualize(m))
        assert dd.algebra is m.algebra
        assert np.array_equal(dd.action, m.action)


def test_dual_simple_is_simple_at_same_idempotent(KA2):
    std = standard_modules(KA2)
    for i, s in enumerate(std.simples):
        d = dualize(s)
        assert d.dim == 1
        assert d.act(KA2.idempotents[i])[0, 0] == 1


def test_duality_dim_symmetry(corpus_algebras):
    for name, a in corpus_algebras.items():
        mods = small_corpus_modules(a, max_dim=6)
        for m, n in itertools.product(mods[:4], mods[:4]):
            lhs = HomSpace(m, n).dim
            rhs = HomSpace(dualize(n), dualize(m)).dim
            assert lhs == rhs, name


# ---------------------------------------------------------------------------
# tensor over the algebra


def test_tensor_unit_law(K2):
    from quivalg.algebra import opposite

    std = standard_modules(K2)
    reg_op = regular_module(opposite(K2))
    res = tensor_over_algebra(reg_op, std.simples[0], left=(K2, regular_module(K2).action))
    assert res.dim == 1
    res.module.check()
    assert is_isomorphic([std.simples[0]], res.module)


def test_tensor_dual_with_simple(K2):
    std = standard_modules(K2)
    d_right = dualize(std.regular)
    # D(A) is an A-bimodule: the left action is transposed right multiplication
    res = tensor_over_algebra(d_right, std.simples[0], left=(K2, K2.mult.transpose(1, 0, 2)))
    res.module.check()
    # dimension matches the dual-hom route
    assert res.dim == HomSpace(std.simples[0], std.regular).dim


def test_tensor_with_zero(K2):
    from quivalg.algebra import opposite

    reg_op = regular_module(opposite(K2))
    res = tensor_over_algebra(reg_op, zero_module(K2), left=(K2, regular_module(K2).action))
    assert res.dim == 0


# ---------------------------------------------------------------------------
# socle, top, radical


def test_soc_of_k2_regular(K2):
    s, inc = soc(standard_modules(K2).regular)
    assert s.dim == 1
    # the socle is spanned by x (second basis vector)
    assert inc.map == PrimeMatrix(FIELD, np.array([[0], [1]]))


def test_top_of_projectives(corpus_algebras):
    for a in corpus_algebras.values():
        std = standard_modules(a)
        for i, p in enumerate(std.projectives):
            mults = top_multiplicities(p)
            want = [0] * len(a.idempotents)
            want[i] = 1
            assert mults == want


def test_arrows_give_the_radical_routes_of_the_whole_radical(corpus_algebras):
    # rad(m) = X.m and soc(m) = the joint kernel of X for the arrows X: the
    # same column space and the same kernel as from every radical element,
    # so the quotient and the socle basis are the same bytes
    for a in corpus_algebras.values():
        r = a.radical()
        for m in small_corpus_modules(a):
            acts = mulmod(r.a.T, m.action.reshape(a.dim, -1), FIELD.p).reshape(r.cols, m.dim, m.dim)
            span = PrimeMatrix(FIELD, acts.transpose(1, 0, 2).reshape(m.dim, -1))
            got, want = complement_projection(quivalg.modules._radical_span(m)), complement_projection(span)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            socle = nullspace(PrimeMatrix(FIELD, acts.reshape(-1, m.dim)))
            assert soc(m)[1].map.tobytes() == socle.tobytes()


def test_the_top_reduces_one_copy_of_the_radical_span(K2):
    # complement_projection row-reduces one copy of the transposed radical
    # span and copies it no further: on P_4 of the simple over
    # k[x]/(x^2)^(x)3 (dim 120, a 120 x 360 span) the traced peak is 1.12
    # times the span, and 2.02 times with a second copy (a copied transpose)
    a = tensor_product(tensor_product(K2, K2), K2)
    span = quivalg.modules._radical_span(minimal_resolution(standard_modules(a).simples[0], 4).terms[4])
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        complement_projection(span)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 1.5 * span.a.nbytes, f"{peak / span.a.nbytes:.2f}"


def test_rad_of_simple_is_zero(KA2):
    for s in standard_modules(KA2).simples:
        r, _ = rad_module(s)
        assert r.dim == 0


# ---------------------------------------------------------------------------
# covers and envelopes


def test_cover_of_simple_k2(K2):
    std = standard_modules(K2)
    cov = projective_cover(std.simples[0])
    cov.morphism.check()
    assert cov.projective.dim == 2
    ker, _ = kernel(cov.morphism)
    assert is_isomorphic([std.simples[0]], ker)


def test_cover_of_projective_is_iso(corpus_algebras):
    for a in corpus_algebras.values():
        for p in standard_modules(a).projectives:
            cov = projective_cover(p)
            assert cov.projective.dim == p.dim
            assert cov.morphism.is_iso()


def test_envelope_of_ka2_regular(KA2):
    # the injective envelope is the dual of the projective cover of the dual
    cov = projective_cover(dualize(standard_modules(KA2).regular))
    emb = Morphism(standard_modules(KA2).regular, dualize(cov.projective), cov.morphism.map.transpose())
    emb.check()
    assert emb.target.dim == 4
    assert cov.summands == [1, 1]  # two copies of I(2)


def test_cover_surjective_kernel_in_radical(corpus_algebras):
    for name, a in corpus_algebras.items():
        for m in small_corpus_modules(a, max_dim=6):
            cov = projective_cover(m)
            assert cov.morphism.map.rank() == m.dim, name
            ker, inc = kernel(cov.morphism)
            if ker.dim:
                _, rad_inc = rad_module(cov.projective)
                stacked = rad_inc.map.hstack(inc.map)
                assert stacked.rank() == rad_inc.map.cols, name


def test_envelope_in_socle_terms(corpus_algebras):
    # target socle multiplicities equal the module's: the embedding is essential
    for a in corpus_algebras.values():
        m = standard_modules(a).regular
        env = dualize(projective_cover(dualize(m)).projective)
        assert soc_multiplicities(env) == soc_multiplicities(m)


# ---------------------------------------------------------------------------
# generator-cogenerators against a brute-force summand search


def brute_force_summand(p_mod, m, grid=range(7)):
    """Search for f: p -> m, g: m -> p with g o f invertible, over a small
    coefficient grid in the hom bases."""
    hf = HomSpace(p_mod, m)
    hg = HomSpace(m, p_mod)
    if hf.dim == 0 or hg.dim == 0:
        return False
    for cf in itertools.product(grid, repeat=hf.dim):
        if not any(cf):
            continue
        f = hom_member(hf, cf)
        for cg in itertools.product(grid, repeat=hg.dim):
            if not any(cg):
                continue
            g = hom_member(hg, cg)
            if (g @ f).is_invertible():
                return True
    return False


def test_gen_cogen_matches_brute_force(K2, KA2, AUS):
    # the trace criterion against "every P(i) and I(i) splits off m", each
    # split found by a composite q -> m -> q that is invertible.  End(q) is
    # local and the composites map bilinearly onto End(q)/rad = k, so a grid
    # holding 0 and 1 is enough to find a split when there is one
    for alg in (K2, KA2, AUS):
        std = standard_modules(alg)
        pool = list({m.content_hash(): m for m in small_corpus_modules(alg, max_dim=4)}.values())
        mods = pool + [DirectSum(alg, [x, y]) for x, y in itertools.combinations_with_replacement(pool, 2)]
        for m in mods:
            want = all(brute_force_summand(q, m, range(3)) for q in std.projectives + std.injectives)
            assert gen_cogen(m) == want


# ---------------------------------------------------------------------------
# isomorphism tests


def test_iso_self(K2):
    m = standard_modules(K2).regular
    assert is_isomorphic([m], m)


def test_iso_different_simples(KA2):
    std = standard_modules(KA2)
    assert not is_isomorphic([std.simples[0]], std.simples[1])


def test_k2_self_dual(K2):
    std = standard_modules(K2)
    assert is_isomorphic(std.injectives, std.regular)


def test_iso_dimension_mismatch(KA2):
    std = standard_modules(KA2)
    p1 = std.projectives[0]
    i1 = std.injectives[0]
    # the dimensions differ
    assert not is_isomorphic([p1], i1)


def test_iso_allows_isomorphic_summands(K2, KA2):
    s = standard_modules(K2).simples[0]
    assert is_isomorphic([s, s], DirectSum(K2, [s, s]))
    assert not is_isomorphic([s, s], standard_modules(K2).regular)
    std = standard_modules(KA2)
    p1, s2 = std.projectives[0], std.simples[1]
    assert is_isomorphic([p1, p1, s2], DirectSum(KA2, [s2, p1, p1]))
    assert is_isomorphic([p1, zero_module(KA2)], p1)
    assert is_isomorphic([zero_module(KA2)], zero_module(KA2))


def isomorphic_by_composites(x, y):
    """Indecomposable x and y are isomorphic iff some g_j o f_i of Hom basis
    maps is invertible.  End(x) is local, so its non-units form a subspace; an
    isomorphism writes id_x as a sum of the g_j o f_i, so one of them is a
    unit."""
    if x.dim != y.dim:
        return False
    there, back = HomSpace(x, y), HomSpace(y, x)
    return any(
        PrimeMatrix(x.algebra.field, mulmod(g, f, x.algebra.field.p)).is_invertible()
        for f in there.maps()
        for g in back.maps()
    )


def test_iso_agrees_with_invertible_composites(corpus_algebras):
    for name, a in corpus_algebras.items():
        std = standard_modules(a)
        mods = std.projectives + std.simples + std.injectives
        for x, y in itertools.product(mods, repeat=2):
            assert is_isomorphic([x], y) == isomorphic_by_composites(x, y), name


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [6, 9])
def test_iso_is_exact_at_small_primes(n, p):
    # the cyclic Nakayama algebra with rad^2 = 0 is self-injective, so
    # D(A) = A; a random map D(A) -> A is invertible with probability about
    # (1 - 1/p)^n, which a search over random maps misses at p = 2 and 3
    std = standard_modules(cyclic_nakayama(n, p))
    assert is_isomorphic(std.injectives, std.regular)
    assert is_isomorphic(std.projectives, std.coregular)


# ---------------------------------------------------------------------------
# direct sums


def direct_sum_cases(a):
    """Sums with repeated summands, with distinct ones and with a zero one."""
    std = standard_modules(a)
    pool = std.projectives + std.injectives + std.simples
    return [[std.simples[0]] * 3, pool, pool + pool[::-1] + [zero_module(a), std.regular]]


def test_direct_sum_moved_is_the_dense_product(corpus_algebras):
    rng = np.random.default_rng(11)
    for name, a in corpus_algebras.items():
        for mods in direct_sum_cases(a):
            s = DirectSum(a, mods)
            basis = rng.integers(0, a.field.p, size=(s.dim, 3))
            want = dense_sum(a, mods).moved(basis)
            got = s.moved(basis)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert "action" not in s.__dict__, name


def test_direct_sum_combine_is_the_block_action_combine(corpus_algebras, KA3):
    # one read per distinct summand object, placed on the diagonal: a sum's
    # reads, linearity checks and Ext into it build no block action
    rng = np.random.default_rng(12)
    for name, a in corpus_algebras.items():
        gens = quivalg.modules._generators(a)
        for mods in direct_sum_cases(a):
            s, dense = DirectSum(a, mods), dense_sum(a, mods)
            x = rng.integers(0, a.field.p, size=(a.dim, 3))
            for got, want in [(s._combine(x), dense._combine(x)), (s.act(x[:, 0]), dense.act(x[:, 0]))]:
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
            assert s._generator_action().tobytes() == dense._combine(gens).tobytes(), name
            assert "action" not in s.__dict__, name
    std = standard_modules(KA3)
    s = DirectSum(KA3, [std.regular, std.coregular])
    identity_morphism(s).check()
    assert "action" not in s.__dict__
    s = DirectSum(KA3, std.simples + std.simples[:1])
    for m in std.projectives + std.injectives + std.simples:
        assert ext_dims(m, s, 4).dims == ext_dims(m, dense_sum(KA3, s.summands), 4).dims
    assert "action" not in s.__dict__


def test_combine_in_blocks_is_the_one_product():
    # the regular module of kA12 in a random basis has 78^3 action entries,
    # above 2^16: its reads sum products over blocks of basis elements, and
    # must equal one product of the whole action with dense coordinates
    verts = tuple(str(i) for i in range(1, 13))
    arrows = tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, 12))
    rng = np.random.default_rng(12)
    a = rebased(build_from_quiver(QuiverPresentation(verts, arrows, (), 11), FIELD), rng)
    m, p = regular_module(a), a.field.p
    assert m.action.size > 2**16
    x = rng.integers(0, p, size=(a.dim, 40))
    want = mulmod(x.T, m.action.reshape(a.dim, -1), p).reshape(40, m.dim, m.dim)
    assert m._combine(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [2, 2**31 - 1])
def test_combine_with_one_basis_element_per_block(monkeypatch, p):
    # every block one basis element: the sum of products, reduced between
    # blocks, is exact at the largest modulus a field accepts
    rng = np.random.default_rng(p)
    a = rebased(build_from_quiver(PRESENTATIONS["aus"], PrimeField(p)), rng)
    mods = standard_modules(a)
    cases = [mods.regular, mods.coregular] + mods.projectives + mods.injectives
    x = rng.integers(0, p, size=(a.dim, 5))
    want = [m._combine(x) for m in cases]
    monkeypatch.setattr(quivalg.modules, "_BLOCK", 1)
    assert [m._combine(x).tobytes() for m in cases] == [w.tobytes() for w in want]


# sha256 over the shape and bytes of the action of the minimal
# generator-cogenerator and of regular + D(A) + S + S on each corpus entry,
# recorded while sums were built densely, block by block
SUM_ACTION_SHA256 = "a01ee6bdeb335589673c67dad315aebe97f5970975d60468c54d33a22f7ca54e"


def test_direct_sum_action_is_the_block_action():
    from quivalg import corpus

    h = hashlib.sha256()
    for entry in corpus.ENTRIES:
        a = corpus.load_entry(entry.name).algebra
        std = standard_modules(a)
        for s in (minimal_gen_cogen(a), DirectSum(a, [std.regular, std.coregular, std.simples[-1], std.simples[-1]])):
            assert s.action.tobytes() == dense_sum(a, s.summands).action.tobytes(), entry.name
            h.update(np.array(s.action.shape, dtype=np.int64).tobytes())
            h.update(s.action.tobytes())
    assert h.hexdigest() == SUM_ACTION_SHA256


def test_direct_sum_refuses_modules_over_another_algebra(K2, KA2):
    with pytest.raises(InputError, match="different algebras"):
        DirectSum(K2, [standard_modules(K2).simples[0], standard_modules(KA2).simples[0]])
