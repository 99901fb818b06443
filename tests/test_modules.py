import itertools

import numpy as np
import pytest

import quivalg.linalg
from quivalg.algebra import QuiverPresentation, build_from_quiver
from quivalg.errors import InputError, UnsupportedFieldError
from quivalg.linalg import PrimeField, PrimeMatrix
from quivalg.modules import (
    HomSpace,
    ModuleRep,
    Morphism,
    cokernel,
    direct_sum,
    dualize,
    endo_structure_constants,
    image,
    is_isomorphic,
    kernel,
    projective_cover,
    injective_envelope,
    quotient_module,
    rad_module,
    regular_module,
    soc,
    soc_multiplicities,
    standard_modules,
    submodule,
    summand_test,
    tensor_over_algebra,
    top_multiplicities,
    zero_module,
)

from conftest import FIELD


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
# hom spaces


def test_hom_dims_k2(K2):
    std = standard_modules(K2)
    A, S = std.regular, std.simples[0]
    assert len(HomSpace(A, S).morphisms()) == 1
    assert len(HomSpace(S, A).morphisms()) == 1
    assert len(HomSpace(A, A).morphisms()) == 2


def test_hom_dims_ka2(KA2):
    std = standard_modules(KA2)
    assert len(HomSpace(std.projectives[0], std.simples[0]).morphisms()) == 1


def test_hom_morphisms_intertwine(corpus_algebras):
    for a in corpus_algebras.values():
        std = standard_modules(a)
        for f in HomSpace(std.regular, std.coregular).morphisms():
            f.check()


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
        HomSpace(standard_modules(K2).regular, standard_modules(KA2).regular).morphisms()


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
        assert np.array_equal(h.matrix.a[h.free], np.eye(h.dim, dtype=np.int64))
        # the free row of each basis column is its last nonzero row
        for j, f in enumerate(h.free):
            assert not h.matrix.a[f + 1 :, j].any()


def test_hom_coordinates_run_no_elimination(corpus_algebras, monkeypatch):
    spaces = corpus_hom_spaces(corpus_algebras)

    def no_elimination(*args, **kwargs):
        raise AssertionError("elimination after the hom space was built")

    monkeypatch.setattr(quivalg.linalg, "_eliminate", no_elimination)
    for h in spaces:
        eye = np.eye(h.dim, dtype=np.int64)
        for j in range(h.dim):
            assert np.array_equal(h.coords(h.basis_map(j)), eye[j])
            assert h.from_coords(eye[j]) == h.basis_map(j)
        if h.source is h.target and h.dim:
            mult = endo_structure_constants(h)
            for i, j in itertools.product(range(h.dim), repeat=2):
                assert h.from_coords(mult[i, j]) == h.basis_map(i) @ h.basis_map(j)


def test_hom_coords_inverts_from_coords(corpus_algebras):
    rng = np.random.default_rng(0)
    for h in corpus_hom_spaces(corpus_algebras):
        p = h.matrix.field.p
        for _ in range(3):
            c = rng.integers(0, p, size=h.dim)
            assert np.array_equal(h.coords(h.from_coords(c)), c)


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
            h.coords(f)
        rejected += 1
    assert rejected > 50
    # a zero hom space rejects every nonzero map
    std = standard_modules(KA2)
    h = HomSpace(std.simples[0], std.simples[1])
    assert h.dim == 0
    with pytest.raises(InputError):
        h.coords(FIELD.matrix([[1]]))


def test_hom_coords_of_unreduced_representative(corpus_algebras):
    rng = np.random.default_rng(2)
    for h in corpus_hom_spaces(corpus_algebras):
        p = h.matrix.field.p
        f = h.from_coords(rng.integers(0, p, size=h.dim))
        want = h.coords(f)
        for shift in (p, -p, 3 * p):
            assert np.array_equal(h.coords(PrimeMatrix(f.field, f.a + shift)), want)


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def test_quotient_projection_times_section_is_identity(corpus_algebras):
    for a in corpus_algebras.values():
        for m in small_corpus_modules(a):
            for sub in (rad_module(m)[1].map, soc(m)[1].map):
                quot, proj, sec = quotient_module(m, sub)
                assert proj.map @ sec == FIELD.identity(quot.dim)


def test_kernel_of_identity(K2):
    m = standard_modules(K2).regular
    ker, _ = kernel(Morphism.identity(m))
    assert ker.dim == 0


def test_cokernel_of_zero_map(K2):
    m = standard_modules(K2).regular
    z = zero_module(K2)
    cok, proj = cokernel(Morphism(z, m, FIELD.zeros(m.dim, 0)))
    assert cok.dim == m.dim
    assert is_isomorphic(cok, m).isomorphic


def test_kernel_p1_to_s1_is_s2(KA2):
    std = standard_modules(KA2)
    f = HomSpace(std.projectives[0], std.simples[0]).morphisms()[0]
    ker, inc = kernel(f)
    inc.check()
    assert ker.dim == 1
    assert is_isomorphic(ker, std.simples[1]).isomorphic


def test_image_composition(KA2):
    std = standard_modules(KA2)
    f = HomSpace(std.projectives[0], std.regular).morphisms()[0]
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
    assert is_isomorphic(res.module, std.simples[0]).isomorphic


def test_tensor_dual_with_simple(K2):
    std = standard_modules(K2)
    d_right = dualize(std.regular)
    res = tensor_over_algebra(d_right, std.simples[0])
    # dimension matches the dual-hom route
    assert res.dim == HomSpace(std.simples[0], std.regular).dim


def test_tensor_with_zero(K2):
    from quivalg.algebra import opposite

    reg_op = regular_module(opposite(K2))
    res = tensor_over_algebra(reg_op, zero_module(K2))
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
    assert is_isomorphic(ker, std.simples[0]).isomorphic


def test_cover_of_projective_is_iso(corpus_algebras):
    for a in corpus_algebras.values():
        for p in standard_modules(a).projectives:
            cov = projective_cover(p)
            assert cov.projective.dim == p.dim
            assert cov.morphism.is_iso()


def test_envelope_of_ka2_regular(KA2):
    env = injective_envelope(standard_modules(KA2).regular)
    env.morphism.check()
    assert env.morphism.target.dim == 4
    assert env.summands == [1, 1]  # two copies of I(2)


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
        env = injective_envelope(m)
        assert soc_multiplicities(env.morphism.target) == soc_multiplicities(m)


# ---------------------------------------------------------------------------
# summand tests


def test_summand_examples(KA2):
    std = standard_modules(KA2)
    reg = std.regular
    assert summand_test(std.projectives[0], reg)
    assert not summand_test(std.simples[0], reg)
    both, _, _ = direct_sum([std.simples[0], reg])
    assert summand_test(std.simples[0], both)


def test_summand_nonlocal_rejected(K2):
    std = standard_modules(K2)
    both, _, _ = direct_sum([std.regular, std.regular])
    with pytest.raises(InputError, match="local"):
        summand_test(both, std.regular)


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
        f = hf.from_coords(np.array(cf, dtype=np.int64))
        for cg in itertools.product(grid, repeat=hg.dim):
            if not any(cg):
                continue
            g = hg.from_coords(np.array(cg, dtype=np.int64))
            if (g @ f).is_invertible():
                return True
    return False


def test_summand_matches_brute_force(K2, KA2, AUS):
    cases = []
    for alg in (K2, KA2):
        std = standard_modules(alg)
        pool = [m for m in std.projectives + std.simples + std.injectives if m.dim <= 4]
        targets = [std.regular] + std.projectives + std.simples
        for p in pool:
            for m in targets:
                if m.dim <= 4:
                    cases.append((p, m))
    std = standard_modules(AUS)
    cases.append((std.projectives[1], std.regular))
    cases.append((std.simples[0], std.regular))
    for p, m in cases:
        assert summand_test(p, m) == brute_force_summand(p, m)


# ---------------------------------------------------------------------------
# isomorphism tests


def test_iso_self(K2):
    m = standard_modules(K2).regular
    v = is_isomorphic(m, m)
    assert v.isomorphic and v.certified


def test_iso_different_simples(KA2):
    std = standard_modules(KA2)
    v = is_isomorphic(std.simples[0], std.simples[1])
    assert not v.isomorphic and v.certified


def test_k2_self_dual(K2):
    std = standard_modules(K2)
    assert is_isomorphic(std.coregular, std.regular).isomorphic


def test_iso_reproducible(K2):
    std = standard_modules(K2)
    a = is_isomorphic(std.coregular, std.regular, seed=5)
    b = is_isomorphic(std.coregular, std.regular, seed=5)
    assert a == b


def test_iso_records_failure_bound(KA2):
    std = standard_modules(KA2)
    p1 = std.projectives[0]
    i1 = std.injectives[0]
    # dims differ: certified negative
    v = is_isomorphic(p1, i1)
    assert not v.isomorphic and v.certified
