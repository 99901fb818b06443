import dataclasses
import hashlib
import itertools
import json
import sys

import numpy as np
import pytest

import quivalg.linalg
from quivalg import corpus
from quivalg.algebra import opposite
from quivalg.catalog import named_modules, resolve_expression
from quivalg.errors import InputError, InternalCheckError
from quivalg.homology import (
    DecomposedModule,
    dominant_dimension,
    endomorphism_algebra,
    ext_dims,
    gen_cogen,
    id_bounded,
    is_projective,
    min_add_approximation,
    minimal_gen_cogen,
    minimal_resolution,
    nakayama,
    pd_bounded,
    self_orthogonal,
)
from quivalg.modules import (
    HomSpace,
    ModuleRep,
    Morphism,
    direct_sum,
    zero_module,
    dualize,
    is_isomorphic,
    projective_cover,
    rad_module,
    standard_modules,
    top_multiplicities,
)

from conftest import quiver


def small_corpus_modules(alg, max_dim=6):
    std = standard_modules(alg)
    mods = [std.regular, std.coregular] + std.projectives + std.injectives + std.simples
    out, seen = [], set()
    for m in mods:
        if m.dim <= max_dim and m.content_hash() not in seen:
            seen.add(m.content_hash())
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# resolutions


def test_periodic_resolution_k2(K2):
    std = standard_modules(K2)
    res = minimal_resolution(std.simples[0], "projective", 3)
    assert [t.dim for t in res.terms] == [2, 2, 2, 2]
    for s in res.syzygies:
        assert is_isomorphic(s, std.simples[0]).isomorphic


def test_hereditary_resolution_ka2(KA2):
    std = standard_modules(KA2)
    res = minimal_resolution(std.simples[0], "projective", 2)
    assert [t.dim for t in res.terms] == [2, 1, 0]
    assert is_isomorphic(res.syzygies[0], std.simples[1]).isomorphic


def test_resolution_of_projective_is_short(KA2):
    std = standard_modules(KA2)
    res = minimal_resolution(std.projectives[0], "projective", 3)
    assert [t.dim for t in res.terms] == [2, 0, 0, 0]


def test_resolution_exact_and_minimal(corpus_algebras):
    for name, a in corpus_algebras.items():
        for m in small_corpus_modules(a, max_dim=4):
            res = minimal_resolution(m, "projective", 3)
            # exactness by ranks: rank d_i + rank d_{i+1} = dim P_i
            for i in range(3):
                r_i = res.maps[i].map.rank()
                r_next = res.maps[i + 1].map.rank()
                ker_dim = res.terms[i].dim - r_i
                assert ker_dim == r_next, (name, i)
            # minimality: the image of each differential lies in rad(P)
            for i in range(1, 4):
                if res.terms[i].dim == 0:
                    continue
                _, rad_inc = rad_module(res.terms[i - 1])
                stacked = rad_inc.map.hstack(res.maps[i].map)
                assert stacked.rank() == rad_inc.map.cols, (name, i)


def test_injective_coresolution_structure(KA2):
    std = standard_modules(KA2)
    res = minimal_resolution(std.regular, "injective", 1)
    assert res.maps[0].source.dim == 3
    assert [t.dim for t in res.terms] == [4, 1]
    assert res.term_summands[0] == [1, 1]
    res.maps[0].check()
    res.maps[1].check()


# ---------------------------------------------------------------------------
# Ext


def test_ext_k2_simple(K2):
    s = standard_modules(K2).simples[0]
    assert ext_dims(s, s, 6).dims == [1, 1, 1, 1, 1, 1, 1]


def test_ext_ka2(KA2):
    std = standard_modules(KA2)
    assert ext_dims(std.simples[0], std.simples[1], 4).dims == [0, 1, 0, 0, 0]
    assert ext_dims(std.simples[1], std.simples[0], 4).dims == [0, 0, 0, 0, 0]


def test_ext_vanishes_on_projectives(corpus_algebras):
    for a in corpus_algebras.values():
        std = standard_modules(a)
        table = ext_dims(std.regular, std.coregular, 3)
        assert table.dims[1:] == [0, 0, 0]


def test_ext_zero_degree_is_hom(corpus_algebras):
    for a in corpus_algebras.values():
        mods = small_corpus_modules(a, max_dim=4)
        for m, n in itertools.product(mods[:4], mods[:4]):
            assert ext_dims(m, n, 0).dims[0] == HomSpace(m, n).dim


def test_ext_opposite_duality(corpus_algebras):
    # Ext_A(m, n) = Ext_{A^op}(D n, D m) degreewise
    for name, a in corpus_algebras.items():
        mods = small_corpus_modules(a, max_dim=4)
        for m, n in itertools.product(mods[:4], mods[:4]):
            lhs = ext_dims(m, n, 3).dims
            rhs = ext_dims(dualize(n), dualize(m), 3).dims
            assert lhs == rhs, name


def standard_module_list(alg):
    std = standard_modules(alg)
    return [std.regular, std.coregular] + std.projectives + std.injectives + std.simples


# sha256 of the JSON list of ext_dims(m, n, 4).dims over every ordered pair
# of standard_module_list, recorded while the hom complexes were still
# assembled from per-pair solves in bases of the cells e_v.n
EXT_TABLES_SHA256 = {
    "k": "4d69d279c6464d189e7191e07ee3e14b30e925f12c87270143152f94542aaa4e",
    "k2": "fcb7f41a70446bf9aef0c200bcd100dffef6f4f1e766d05f0e31f034d07a938c",
    "k3": "8da709f936c644abe2f97f347ad9bc6ff58412e36a74b579404dfe10a84a7bde",
    "k4": "4f513d1cacc96f82ecb6fd6a8b71750df71e4c9c3de1bc13e562846dba21e3e5",
    "ka2": "e097d972e947f4666e8c83761f17dba97a25020a6e7a7ac5b2405a4739d4733c",
    "ka3": "7a5fa193294f880771a918ccd5cc001537cc3bfcfbede3b267da1f23e2e400a0",
    "aus": "50b77931a8af623b4e0c9237ea4624e83c20c45559c4a1fcc05440e0a594e40d",
    "k2xk2": "6ff7ed854cffa4382e0a812abe5e6e7fbedce653af56f43e6637f1e899641bf5",
    "ka2xk2": "68a8388a82d1986ea27ec87508e95e5a739b0dcdfbb4f574a2fada0177b5cecc",
}


def test_ext_tables_are_pinned(corpus_loaded):
    got = {}
    for name, loaded in corpus_loaded.items():
        mods = standard_module_list(loaded.algebra)
        tables = [ext_dims(m, n, 4).dims for m in mods for n in mods]
        got[name] = hashlib.sha256(json.dumps(tables).encode()).hexdigest()
    assert got == EXT_TABLES_SHA256


def test_ext_and_covers_run_no_solve(corpus_loaded, monkeypatch):
    cases = []
    for loaded in corpus_loaded.values():
        mods = standard_module_list(loaded.algebra)
        ext_dims(mods[0], mods[0], 0)  # memoizes the generator coordinates
        # fresh copies carry no memoized resolution
        cases.append([ModuleRep(m.algebra, m.action) for m in mods])

    def no_solve(*args, **kwargs):
        raise AssertionError("solve called")

    real = quivalg.linalg.solve
    for name, mod in list(sys.modules.items()):
        if name == "quivalg" or name.startswith("quivalg."):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, no_solve)
    for mods in cases:
        for m in mods:
            projective_cover(m)
            for n in mods:
                ext_dims(m, n, 3)


def test_minimality_witness(corpus_algebras):
    # dim Ext^i(m, S(j)) = multiplicity of P(j) in term i of the resolution
    for name, a in corpus_algebras.items():
        std = standard_modules(a)
        for m in small_corpus_modules(a, max_dim=4):
            res = minimal_resolution(m, "projective", 3)
            for j, s in enumerate(std.simples):
                dims = ext_dims(m, s, 3).dims
                for i in range(4):
                    assert dims[i] == res.term_summands[i].count(j), (name, i, j)


# ---------------------------------------------------------------------------
# pd / id


def test_pd_id_examples(KA2, K2):
    std = standard_modules(KA2)
    assert str(pd_bounded(std.simples[0], 6)) == "1"
    assert str(id_bounded(std.simples[0], 6)) == "0"
    assert str(pd_bounded(std.projectives[0], 6)) == "0"
    s = standard_modules(K2).simples[0]
    assert str(pd_bounded(s, 6)) == "at-least-6"
    assert not pd_bounded(s, 6).finite


# ---------------------------------------------------------------------------
# dominant dimension


def test_dominant_dimension_table(corpus_algebras):
    want = {
        "k": "infinity-certified",
        "k2": "infinity-certified",
        "k3": "infinity-certified",
        "k4": "infinity-certified",
        "ka2": "1",
        "ka3": "1",
        "aus": "2",
        "k2xk2": "infinity-certified",
        "ka2xk2": "1",
    }
    for name, a in corpus_algebras.items():
        assert str(dominant_dimension(a, 6)) == want[name], name


def test_domdim_at_least_one_iff_envelope_projective(corpus_algebras):
    from quivalg.modules import injective_envelope

    for name, a in corpus_algebras.items():
        ev = dominant_dimension(a, 6)
        env = injective_envelope(standard_modules(a).regular)
        env_proj = is_projective(env.morphism.target)
        assert ev.at_least(1) == env_proj, name


def test_domdim_opposite_invariance(corpus_algebras):
    # cheap extra suite: evidence agrees with the opposite algebra's
    for name, a in corpus_algebras.items():
        lhs = dominant_dimension(a, 6)
        rhs = dominant_dimension(opposite(a), 6)
        assert (lhs.kind, lhs.value) == (rhs.kind, rhs.value), name


# ---------------------------------------------------------------------------
# Nakayama functor


def test_nakayama_sends_projectives_to_injectives(corpus_algebras):
    for name, a in corpus_algebras.items():
        std = standard_modules(a)
        for i, p in enumerate(std.projectives):
            nk = nakayama(p)
            assert is_isomorphic(nk.module, std.injectives[i]).isomorphic, (name, i)


def test_nakayama_k2_regular(K2):
    std = standard_modules(K2)
    nk = nakayama(std.regular)
    assert nk.module.dim == 2
    assert is_isomorphic(nk.module, std.coregular).isomorphic


def test_nakayama_k2_simple(K2):
    std = standard_modules(K2)
    nk = nakayama(std.simples[0])
    assert nk.module.dim == 1
    assert is_isomorphic(nk.module, std.simples[0]).isomorphic


def test_nakayama_routes_agree(no_randomized_iso, corpus_loaded):
    # regular, coregular, every simple and injective and every named module
    # of each entry: the routes agree through the natural map eta, never
    # through the randomized search
    for name, loaded in corpus_loaded.items():
        std = standard_modules(loaded.algebra)
        mods = [std.regular, std.coregular] + std.simples + std.injectives
        mods += [resolve_expression(loaded, nm).module for nm in named_modules(loaded)]
        for m in mods:
            nk = nakayama(m)
            eta = Morphism(nk.module, nk.hom_route, nk.eta)
            eta.check()
            assert eta.is_iso(), name


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("regular", "not a module map"),
        ("no-quotient-map", "tensor relations"),
        ("doubled", "routes disagree"),
    ],
)
def test_nakayama_rejects_routes_that_disagree(monkeypatch, KA2, corruption, message):
    # each corruption of the tensor route fails one check of eta: the
    # regular module of ka2 has the dimension of nu(regular) = D(A) but is
    # not isomorphic to it; a zero quotient map makes every tensor a
    # relation; a doubled route makes eta a module map that is not square
    import quivalg.homology

    std = standard_modules(KA2)
    real = quivalg.homology.tensor_over_algebra

    def corrupted(*args, **kwargs):
        t = real(*args, **kwargs)
        if corruption == "regular":
            return dataclasses.replace(t, module=std.regular)
        if corruption == "no-quotient-map":
            return dataclasses.replace(t, proj=t.proj.field.zeros(t.proj.rows, t.proj.cols))
        doubled, _, _ = direct_sum([t.module, t.module])
        return dataclasses.replace(
            t,
            dim=2 * t.dim,
            proj=t.proj.vstack(t.proj.field.zeros(t.proj.rows, t.proj.cols)),
            sec=t.sec.hstack(t.sec),
            module=doubled,
        )

    monkeypatch.setattr(quivalg.homology, "tensor_over_algebra", corrupted)
    with pytest.raises(InternalCheckError, match=message):
        nakayama(std.regular)


# ---------------------------------------------------------------------------
# self-orthogonality and generator-cogenerators


def test_self_orth_regular(corpus_algebras):
    for a in corpus_algebras.values():
        assert self_orthogonal(standard_modules(a).regular, 4).self_orthogonal


def test_self_orth_k2_fails_at_one(K2):
    std = standard_modules(K2)
    both, _, _ = direct_sum([std.regular, std.simples[0]])
    rep = self_orthogonal(both, 4)
    assert not rep.self_orthogonal
    assert rep.first_nonzero_degree == 1


def test_self_orth_injectives_over_selfinjective(K2):
    for i in standard_modules(K2).injectives:
        assert self_orthogonal(i, 4).self_orthogonal


def test_gen_cogen(corpus_algebras, K2, KA2):
    for name, a in corpus_algebras.items():
        std = standard_modules(a)
        both, _, _ = direct_sum([std.regular, std.coregular])
        assert gen_cogen(both), name
    assert gen_cogen(standard_modules(K2).regular)
    assert not gen_cogen(standard_modules(KA2).regular)


# ---------------------------------------------------------------------------
# approximations


def test_approx_zero_target(K2):
    std = standard_modules(K2)
    ap = min_add_approximation(std.regular, zero_module(K2))
    assert ap.copies == 0


def test_approx_by_regular_is_cover(KA2):
    std = standard_modules(KA2)
    for x in std.simples + std.injectives:
        ap = min_add_approximation(std.regular, x)
        assert ap.copies == sum(top_multiplicities(x))
        assert ap.morphism.map.rank() == x.dim


def test_approx_k2_example(K2):
    std = standard_modules(K2)
    both, _, _ = direct_sum([std.regular, std.simples[0]])
    ap = min_add_approximation(both, std.simples[0])
    assert ap.copies == 1


# ---------------------------------------------------------------------------
# endomorphism algebras


def test_endo_k2_gen_cogen_is_dim5(K2):
    std = standard_modules(K2)
    dm = DecomposedModule.from_summands([std.regular, std.simples[0]])
    endo = endomorphism_algebra(dm)
    assert endo.algebra.dim == 5
    assert len(endo.algebra.idempotents) == 2
    assert endo.algebra.radical().cols == 3


def test_endo_of_simple_is_ground_field(KA2):
    std = standard_modules(KA2)
    endo = endomorphism_algebra(DecomposedModule.from_summands([std.simples[0]]))
    assert endo.algebra.dim == 1


def test_endo_of_regular_commutative(K2):
    std = standard_modules(K2)
    endo = endomorphism_algebra(DecomposedModule.from_summands([std.regular]))
    e = endo.algebra
    assert e.dim == 2
    assert np.array_equal(e.mult, np.transpose(e.mult, (1, 0, 2)))  # commutative
    assert e.radical().cols == 1  # local with one-dimensional radical: k[x]/(x^2)


def test_endo_nonbasic_rejected(K2):
    std = standard_modules(K2)
    dm = DecomposedModule.from_summands([std.regular, std.regular])
    with pytest.raises(InputError, match="not basic"):
        endomorphism_algebra(dm)


def test_minimal_gen_cogen(corpus_algebras):
    for name, a in corpus_algebras.items():
        dm = minimal_gen_cogen(a)
        assert gen_cogen(dm.module), name
        # pairwise non-isomorphic summands
        for i in range(len(dm.summands)):
            for j in range(i + 1, len(dm.summands)):
                assert not is_isomorphic(dm.summands[i], dm.summands[j]).isomorphic


def test_summand_verdicts_are_exact(no_randomized_iso, corpus_algebras):
    # minimal_gen_cogen and the basic check of endomorphism_algebra decide
    # isomorphism of summands exactly, without the randomized search
    # (number of summands, dim End) of the minimal generator-cogenerator
    want = {
        "k": (1, 1),
        "k2": (1, 2),
        "k3": (1, 3),
        "k4": (1, 4),
        "ka2": (3, 5),
        "ka3": (5, 12),
        "aus": (3, 10),
        "k2xk2": (1, 4),
        "ka2xk2": (3, 10),
    }
    algebras = dict(corpus_algebras)
    # the path algebras A_n: 2n-1 summands, dim End = n(3n-1)/2
    for n in (3, 4):
        verts = [str(i) for i in range(1, n + 1)]
        arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
        algebras[f"A{n}"] = quiver(verts, arrows, (), n - 1)
        want[f"A{n}"] = (2 * n - 1, n * (3 * n - 1) // 2)
    for name, a in algebras.items():
        dm = minimal_gen_cogen(a)
        got = (len(dm.summands), endomorphism_algebra(dm).algebra.dim)
        assert got == want[name], name
    std = standard_modules(corpus_algebras["k2"])
    with pytest.raises(InputError, match="not basic"):
        endomorphism_algebra(DecomposedModule.from_summands([std.regular, std.regular]))


# sha256 of End(M).algebra.mult.tobytes(), recorded before HomSpace.coords
# stopped solving: dimensions and idempotent counts pass under any Hom
# basis, these pin the structure constants in the basis itself
END_MULT_SHA256 = {
    "A3 gencogen": "ee09cb53cfe9b38893219ad60f6f4340a59441e2d9c7120dc2d68ed1980e2a8f",
    "A4 gencogen": "5a9349e3813e35f531197e0ba6c4886b95a9cd09b77ae51690549efa289b3907",
    "A5 gencogen": "79666a0c34616c8d444b630b9c9ab7ae7a9513b36291d48925230c037dbf50fc",
    "k2 regular+S": "9142e447b7c1d89b7fa1b328f04ecca7dae2842d7bf19516226da96cc059a139",
    "aus gencogen": "e4fc761db48b1c0ab007e964e8a5bfe5a5c0565cfdc1c501300b40ffb30c5843",
}


def test_end_structure_constants_are_pinned():
    modules = {}
    for n in (3, 4, 5):
        verts = [str(i) for i in range(1, n + 1)]
        arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
        modules[f"A{n} gencogen"] = minimal_gen_cogen(quiver(verts, arrows, (), n - 1))
    for name, expr in (("k2", "regular+S"), ("aus", "gencogen")):
        modules[f"{name} {expr}"] = resolve_expression(corpus.load_entry(name), expr)
    got = {
        key: hashlib.sha256(endomorphism_algebra(dm).algebra.mult.tobytes()).hexdigest()
        for key, dm in modules.items()
    }
    assert got == END_MULT_SHA256
