"""Seeded property sweeps on randomly generated modules.

Random modules come from kernels, images and cokernels of random maps
between sums of standard projectives and injectives, which reaches plenty of
non-standard indecomposables while staying deterministic.
"""

import random

import numpy as np

from quivalg.checks import bar_ext_oracle
from quivalg.homology import ext_dims, is_injective, is_projective, nakayama
from quivalg.linalg import PrimeMatrix
from quivalg.modules import (
    DirectSum,
    HomSpace,
    ModuleRep,
    Morphism,
    dualize,
    kernel,
    projective_cover,
    standard_modules,
    top,
    top_multiplicities,
)

from conftest import (
    accepts,
    cokernel,
    dense_intertwines,
    dense_module_check,
    dense_tensor_quotient,
    hom_complex_ext_dims,
    hom_member,
    image,
    semisimple_targets,
    tensor_quotient,
)


def random_modules(alg, rng, count=6, max_dim=8):
    std = standard_modules(alg)
    pool = std.projectives + std.injectives
    out = []
    guard = 0
    while len(out) < count and guard < 60:
        guard += 1
        src = DirectSum(alg, [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 2))])
        tgt = DirectSum(alg, [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 2))])
        h = HomSpace(src, tgt)
        if h.dim == 0:
            continue
        coeffs = np.array([rng.randrange(alg.field.p) for _ in range(h.dim)], dtype=np.int64)
        f = hom_member(h, coeffs)
        mor = Morphism(src, tgt, f)
        pick = rng.randrange(3)
        m = (kernel(mor)[0], image(mor)[0], cokernel(mor)[0])[pick]
        if 0 < m.dim <= max_dim:
            out.append(m)
    return out


def test_random_module_properties(corpus_algebras):
    rng = random.Random(20240808)
    for name, alg in corpus_algebras.items():
        std = standard_modules(alg)
        for m in random_modules(alg, rng):
            m.check()
            # Yoneda identity on a random module
            for i, p in enumerate(std.projectives):
                assert HomSpace(p, m).dim == PrimeMatrix(
                    alg.field, m.act(alg.idempotents[i])
                ).rank(), name
            # duality dimension symmetry against the regular module
            assert (
                HomSpace(m, std.regular).dim
                == HomSpace(dualize(std.regular), dualize(m)).dim
            ), name
            # the natural map between the two Nakayama routes is an iso
            nk = nakayama(m)
            eta = Morphism(nk.module, nk.hom_route, nk.eta)
            eta.check()
            assert eta.is_iso(), name


def test_linearity_tests_agree_with_per_basis_references(corpus_algebras):
    # random modules as one more input to the differential tests of
    # ModuleRep.check, Morphism.check and tensor_over_algebra (test_modules)
    rng, nrng = random.Random(20261021), np.random.default_rng(20261021)
    refused = 0
    for name, alg in corpus_algebras.items():
        p, mods = alg.field.p, random_modules(alg, rng, count=3, max_dim=6)
        for m in mods:
            assert accepts(m.check) and dense_module_check(m), name
            action = m.action.copy()
            b, i, j = nrng.integers(alg.dim), *nrng.integers(0, m.dim, size=2)
            action[b, i, j] += 1
            bad = ModuleRep(alg, action)
            assert accepts(bad.check) == dense_module_check(bad), name
            refused += not dense_module_check(bad)
            for n in mods:
                h = HomSpace(m, n)
                for f in list(h.maps()) + [nrng.integers(0, p, size=(n.dim, m.dim))]:
                    mor = Morphism(m, n, PrimeMatrix(alg.field, f))
                    assert accepts(mor.check) == dense_intertwines(mor), name
                for g, w in zip(tensor_quotient(dualize(m), n), dense_tensor_quotient(dualize(m), n)):
                    assert g.a.shape == w.a.shape and g.a.tobytes() == w.a.tobytes(), name
    assert refused > 5


def test_random_ext_agreement(corpus_algebras):
    rng = random.Random(7)
    for name, alg in corpus_algebras.items():
        mods = random_modules(alg, rng, count=3, max_dim=5)
        for m in mods:
            for n in mods:
                assert bar_ext_oracle(m, n, 3).dims == ext_dims(m, n, 3).dims, name


def test_ext_into_semisimple_targets_equals_the_hom_complex(corpus_algebras):
    # random modules as one more input to the differential test of Ext into
    # a semisimple target (test_homology), read off the vertex lists
    rng = random.Random(20261022)
    for name, alg in corpus_algebras.items():
        for m in random_modules(alg, rng, count=3, max_dim=6):
            for n in semisimple_targets(alg):
                assert ext_dims(m, n, 5).dims == hom_complex_ext_dims(m, n, 5), name


def test_ext_additive_in_first_argument(corpus_algebras):
    rng = random.Random(99)
    for name, alg in corpus_algebras.items():
        mods = random_modules(alg, rng, count=2, max_dim=5)
        if len(mods) < 2:
            continue
        m1, m2 = mods[0], mods[1]
        both = DirectSum(alg, [m1, m2])
        n = standard_modules(alg).coregular
        lhs = ext_dims(both, n, 3).dims
        rhs = [
            x + y
            for x, y in zip(ext_dims(m1, n, 3).dims, ext_dims(m2, n, 3).dims)
        ]
        assert lhs == rhs, name


def test_projectivity_and_tops_equal_their_cover_definitions(corpus_algebras):
    # the verdicts read dimensions off top(m); the definitions build the
    # cover, the envelope and the top module
    rng = random.Random(20240808)
    verdicts = set()
    for name, alg in corpus_algebras.items():
        std = standard_modules(alg)
        mods = [std.regular, std.coregular] + std.projectives + std.injectives + std.simples
        for m in mods + random_modules(alg, rng):
            cover = projective_cover(m)
            t, _ = top(m)
            mults = top_multiplicities(m)
            assert mults == [cover.summands.count(i) for i in range(len(alg.idempotents))], name
            assert mults == [PrimeMatrix(alg.field, t.act(e)).rank() for e in alg.idempotents], name
            assert is_projective(m) == (cover.projective.dim == m.dim), name
            assert is_injective(m) == (projective_cover(dualize(m)).projective.dim == m.dim), name
            verdicts.add((is_projective(m), is_injective(m)))
    assert len(verdicts) == 4
