import dataclasses
import gc
import hashlib
import itertools
import json
import random
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import quivalg.checks
import quivalg.homology
import quivalg.linalg
import quivalg.modules
from quivalg import corpus
from quivalg.algebra import Algebra, column_span_basis, opposite, tensor_product
from quivalg.catalog import named_modules, resolve_expression
from quivalg.checks import bar_ext_oracle
from quivalg.errors import InputError, InternalCheckError
from quivalg.linalg import PrimeMatrix, coordinates, mulmod, nullspace
from quivalg.homology import (
    DomDimEvidence,
    dominant_dimension,
    endomorphism_algebra,
    ext_dims,
    gen_cogen,
    id_bounded,
    is_injective,
    is_projective,
    minimal_gen_cogen,
    minimal_resolution,
    nakayama,
    pd_bounded,
    self_orthogonal,
)
from quivalg.modules import (
    DirectSum,
    HomSpace,
    ModuleRep,
    Morphism,
    zero_module,
    dualize,
    is_isomorphic,
    min_add_approximation,
    projective_cover,
    quotient_module,
    standard_modules,
    top_multiplicities,
)

from conftest import dense_sum, hom_complex_ext_dims, identity_morphism, quiver, rad_module, semisimple_targets
from test_algebra import rebased
from test_random_modules import random_modules


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
    res = minimal_resolution(std.simples[0], 3)
    assert [t.dim for t in res.terms] == [2, 2, 2, 2]
    for s in res.syzygies:
        assert is_isomorphic([std.simples[0]], s)


def test_hereditary_resolution_ka2(KA2):
    std = standard_modules(KA2)
    s0, s1 = std.simples
    # to depth 0 the one syzygy is the kernel of the first map
    res = minimal_resolution(ModuleRep(KA2, s0.action), 0)
    assert is_isomorphic([s1], res.syzygies[0])
    # the injective side, read through the dual: the cosyzygy of S(1) is S(0)
    res = minimal_resolution(dualize(s1), 0)
    assert is_isomorphic([s0], dualize(res.syzygies[0]))
    res = minimal_resolution(std.simples[0], 2)
    assert [t.dim for t in res.terms] == [2, 1, 0]
    assert is_isomorphic([std.simples[1]], res.syzygies[0])


def test_resolution_of_projective_is_short(KA2):
    std = standard_modules(KA2)
    res = minimal_resolution(std.projectives[0], 3)
    assert [t.dim for t in res.terms] == [2, 0, 0, 0]


def test_resolution_exact_and_minimal(corpus_algebras):
    for name, a in corpus_algebras.items():
        for m in small_corpus_modules(a, max_dim=4):
            res = minimal_resolution(m, 3)
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
    # the coresolution of A is the dual of the resolution of D(A) over A^op
    res = minimal_resolution(standard_modules(opposite(KA2)).coregular, 1)
    assert res.maps[0].target.dim == 3
    assert [t.dim for t in res.terms] == [4, 1]
    assert res.term_summands[0] == [1, 1]
    injectives = standard_modules(KA2).injectives
    for term, summands in zip(res.terms, res.term_summands):
        assert is_isomorphic([injectives[v] for v in summands], dualize(term))
    for f in res.maps:
        f.check()
        Morphism(dualize(f.target), dualize(f.source), f.map.transpose()).check()


def dense_resolution(m, depth):
    """Reference for a minimal projective resolution: each cover source
    materialised by ``dense_sum`` and each syzygy read one algebra element
    at a time.  Returns the terms' and syzygies' actions and the maps."""
    a = m.algebra
    p = a.field.p
    std = standard_modules(a)
    terms, maps, syzygies = [], [], []
    cur, inc_prev = m, None
    for i in range(depth + 1):
        cov = projective_cover(cur)
        big = dense_sum(a, [std.projectives[v] for v in cov.summands])
        f = cov.morphism.map
        Morphism(big, cur, f).check()
        terms.append(big.action)
        maps.append(f if i == 0 else inc_prev @ f)
        basis = nullspace(f)
        action = np.zeros((a.dim, basis.cols, basis.cols), dtype=np.int64)
        if basis.cols:
            reader = coordinates(basis)
            for x in range(a.dim):
                action[x] = reader.read(mulmod(big.action[x], basis.a, p))
        syzygies.append(action)
        cur, inc_prev = ModuleRep(a, action), basis
    return terms, maps, syzygies


def resolution_test_modules(corpus_loaded):
    rng = random.Random(20240808)
    for name, loaded in corpus_loaded.items():
        a = loaded.algebra
        for m in standard_module_list(a) + random_modules(a, rng):
            # a fresh copy carries no memoized resolution
            yield name, ModuleRep(a, m.action)


def test_resolutions_equal_the_dense_route(corpus_loaded):
    for name, m in resolution_test_modules(corpus_loaded):
        # the injective side is read as the resolution of the dual
        for x in (m, dualize(m)):
            terms, maps, syzygies = dense_resolution(x, 3)
            res = minimal_resolution(x, 3)
            assert [t.action.tobytes() for t in res.terms] == [t.tobytes() for t in terms], name
            assert [f.map for f in res.maps] == maps, name
            assert [s.action.tobytes() for s in res.syzygies] == [s.tobytes() for s in syzygies], name


def test_ext_pd_and_domdim_never_build_a_term_action(monkeypatch):
    # nor a dense differential: those are built only when Resolution.maps is
    # read
    dense_maps = []
    real = quivalg.homology._Resolved.dense_maps
    monkeypatch.setattr(quivalg.homology._Resolved, "dense_maps", lambda *args: dense_maps.append(None) or real(*args))
    for entry in corpus.ENTRIES:
        loaded = corpus.load_entry(entry.name)
        a = loaded.algebra
        mods = standard_module_list(a)
        # the named sums go through projective_cover as sums themselves
        sums = [resolve_expression(loaded, nm) for nm in named_modules(loaded)]
        for m in mods + sums:
            ext_dims(m, mods[0], 3)
            pd_bounded(m, 5)
            assert all("action" not in t.__dict__ for t in minimal_resolution(m, 5).terms), entry.name
        dominant_dimension(a, 5)
        # the coresolution dominant_dimension reads: D(A) over A^op
        res = minimal_resolution(standard_modules(opposite(a)).coregular, 4)
        assert all("action" not in t.__dict__ for t in res.terms), entry.name
        # read once, a term's action is the block sum of its summands
        t = res.terms[0]
        assert t.action.tobytes() == dense_sum(t.algebra, t.summands).action.tobytes()
    assert not dense_maps


def test_a_resolved_module_is_freed_without_the_cycle_collector(KA2):
    std = standard_modules(KA2)
    m = ModuleRep(KA2, std.simples[0].action)
    gc.collect()
    gc.disable()
    try:
        minimal_resolution(m, 3)
        res = minimal_resolution(m, 2)  # a memo hit rebuilds base and the first map
        assert res.base is m and res.maps[0].target is m
        res = minimal_resolution(m, 5)  # extended from the memo
        assert len(res.syzygies) == 6
        del res
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def count_calls(monkeypatch, name):
    """A list that grows by one entry per call homology makes through its
    binding of ``name``."""
    real = getattr(quivalg.homology, name)
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(quivalg.homology, name, counted)
    return calls


def test_no_syzygy_is_built_past_the_last_term(K2, corpus_loaded, monkeypatch):
    # the resolution takes each kernel as a submodule of the last term
    kernels = count_calls(monkeypatch, "submodule")
    a = tensor_product(tensor_product(K2, K2), K2)
    std = standard_modules(a)
    # into the regular module Ext^0..Ext^3 read the terms P_0..P_4: one
    # kernel below each of P_0..P_3 (the algebra is self-injective)
    s = ModuleRep(a, std.simples[0].action)
    assert ext_dims(s, std.regular, 3).dims == [1, 0, 0, 0]
    assert len(kernels) == 4
    # into a semisimple target Ext^i is read off P_i: P_0..P_3, three kernels
    del kernels[:]
    s = ModuleRep(a, std.simples[0].action)
    assert ext_dims(s, s, 3).dims == [1, 3, 6, 10]
    assert len(kernels) == 3
    for name, loaded in corpus_loaded.items():
        a = loaded.algebra
        std = standard_modules(a)
        # Ext to degree 4 from a fresh module: P_0..P_4 into a semisimple
        # target, P_0..P_5 into the regular module unless it is semisimple
        targets = [(n, 0) for n in semisimple_targets(a)] + [(std.regular, a.arrows().cols > 0)]
        for m in standard_module_list(a):
            for n, extra in targets:
                del kernels[:]
                ext_dims(ModuleRep(a, m.action), n, 4)
                assert len(kernels) == 4 + extra, (name, n)
            m = ModuleRep(a, m.action)
            del kernels[:]
            pd_bounded(m, 4)
            assert len(kernels) == 4, name
            pd_bounded(m, 2)  # read from the memo
            assert len(kernels) == 4, name
            pd_bounded(m, 6)  # two more terms, from the deepest syzygy
            assert len(kernels) == 6, name
    for entry in corpus.ENTRIES:
        a = corpus.load_entry(entry.name).algebra  # no memoized coresolution
        del kernels[:]
        # the coresolution to I^3, unless self-injectivity certifies infinity
        evidence = dominant_dimension(a, 4)
        assert len(kernels) == (0 if evidence.kind == "infinity" else 3), entry.name


@pytest.mark.parametrize("side", ["projective", "injective"])
def test_a_deeper_request_extends_the_memo(corpus_loaded, monkeypatch, side):
    # the injective side is read as the resolution of the dual over A^op
    covers = count_calls(monkeypatch, "projective_cover")
    read = (lambda x: x) if side == "projective" else dualize
    for name, loaded in corpus_loaded.items():
        a = loaded.algebra
        for i, m in enumerate(standard_module_list(a)):
            m = read(ModuleRep(a, m.action))
            shallow = minimal_resolution(m, 2)
            if i % 2:  # the last syzygy, read before the extension or after it
                assert len(shallow.syzygies) == 3
            del covers[:]
            res = minimal_resolution(m, 5)
            assert len(covers) == 3, name
            fresh = minimal_resolution(ModuleRep(m.algebra, m.action), 5)
            assert res.term_summands == fresh.term_summands, name
            assert [t.action.tobytes() for t in res.terms] == [t.action.tobytes() for t in fresh.terms], name
            assert [f.map.a.tobytes() for f in res.maps] == [f.map.a.tobytes() for f in fresh.maps], name
            syzygies = [s.action.tobytes() for s in fresh.syzygies]
            assert [s.action.tobytes() for s in res.syzygies] == syzygies, name
            assert [s.action.tobytes() for s in shallow.syzygies] == syzygies[:3], name


def generator_columns(a, vertices):
    """The generator e_v of each summand P(v) of the sum over ``vertices``,
    one column each, read in the bases ``proj_bases[v]``."""
    std = standard_modules(a)
    blocks = [coordinates(std.proj_bases[v]).read(a.idempotents[v]) for v in vertices]
    gens = np.zeros((sum(len(g) for g in blocks), len(vertices)), dtype=np.int64)
    offset = 0
    for s, g in enumerate(blocks):
        gens[offset : offset + len(g), s] = g
        offset += len(g)
    return gens


def test_generator_images_are_the_maps_at_the_generators(corpus_loaded):
    # the dense route: each differential times the generator coordinates
    for name, m in resolution_test_modules(corpus_loaded):
        a = m.algebra
        res = minimal_resolution(m, 3)
        for i, f in enumerate(res.maps):
            dense = mulmod(f.map.a, generator_columns(a, res.term_summands[i]), a.field.p)
            assert np.array_equal(res.images[i], dense), (name, i)


def held_modules(obj):
    """The modules obj holds through attributes, lists and tuples, by id,
    without looking inside a module."""
    if isinstance(obj, ModuleRep):
        return {id(obj): obj}
    if isinstance(obj, (list, tuple)):
        parts = obj
    elif hasattr(obj, "__dict__"):
        parts = vars(obj).values()
    else:
        return {}
    return {k: v for part in parts for k, v in held_modules(part).items()}


def test_the_memo_keeps_one_syzygy(K2):
    a = tensor_product(tensor_product(K2, K2), K2)
    std = standard_modules(a)
    # into the regular module Ext^0..Ext^9 read P_0..P_10; into the simple
    # target, P_0..P_9
    cases = [(std.regular, 11, [1] + [0] * 9), (std.simples[0], 10, [(i + 1) * (i + 2) // 2 for i in range(10)])]
    for n, terms, dims in cases:
        s = ModuleRep(a, std.simples[0].action)
        assert ext_dims(s, n, 9).dims == dims
        state = s.memo["resolution"]
        assert len(state.terms) == terms
        # every other module it holds is a term, a sum of P(v)
        syzygies = [x for x in held_modules(state).values() if not isinstance(x, DirectSum)]
        assert len(syzygies) == 1
        # the deepest, the kernel of P_k -> P_(k-1): dim P_k - dim P_(k-1) + ... +- dim P_0 -+ dim S
        k = terms - 2
        assert syzygies[0].dim == sum((-1) ** (k - j) * state.terms[j].dim for j in range(k + 1)) + (-1) ** (k + 1) * s.dim


def test_a_deeper_request_builds_each_cover_matrix_once(K2, corpus_loaded, monkeypatch):
    # each cover matrix is built once, when its kernel is taken, and none is
    # kept at rest: a resolution to depth d builds d of them, whether it is
    # asked for at once or first to a smaller depth, and then holds the
    # images, the syzygy and the Ext of a fresh request
    k2_3 = tensor_product(tensor_product(K2, K2), K2)
    cases = [ModuleRep(k2_3, standard_modules(k2_3).simples[0].action)]
    cases += [m for _, m in resolution_test_modules(corpus_loaded)]
    built = []
    for module in (quivalg.modules, quivalg.homology):  # covers and kernels
        real = module.generator_map

        def counted(*args, real=real):
            out = real(*args)
            built.append(weakref.ref(out))
            return out

        monkeypatch.setattr(module, "generator_map", counted)

    def depth_built(m, depth):
        minimal_resolution(m, depth)
        assert not [ref for ref in built if ref() is not None]  # none kept at rest
        return len(built)

    for m in cases:
        fresh, grown = (ModuleRep(m.algebra, m.action) for _ in range(2))
        assert depth_built(fresh, 6) == 6
        del built[:]
        assert depth_built(grown, 2) == 2
        assert depth_built(grown, 6) == 6  # nothing rebuilt
        del built[:]
        got, fresh_state = grown.memo["resolution"], fresh.memo["resolution"]
        assert len(got.images) == len(fresh_state.images) == 7
        assert all(np.array_equal(x, y) for x, y in zip(got.images, fresh_state.images))
        assert got.syzygy[1].map == fresh_state.syzygy[1].map
        # Ext reads depth cutoff + 1, or cutoff into a semisimple target
        std = standard_modules(m.algebra)
        for n in (std.regular, std.simples[0]):
            depth = 6 + (rad_module(n)[0].dim > 0)
            fresh, grown = (ModuleRep(m.algebra, m.action) for _ in range(2))
            want = ext_dims(fresh, n, 6).dims
            assert len(built) == depth
            del built[:]
            ext_dims(grown, n, 2)
            assert ext_dims(grown, n, 6).dims == want
            assert len(built) == depth
            assert not [ref for ref in built if ref() is not None]
            del built[:]


def test_one_syzygy_is_alive_at_a_time(K2, monkeypatch):
    # the resolution covers m, then each syzygy in turn; none but the one
    # being covered may be alive while it is, nor any at all while the next
    # kernel is built
    a = tensor_product(tensor_product(K2, K2), K2)
    s = ModuleRep(a, standard_modules(a).simples[0].action)
    real_cover, real_submodule = quivalg.homology.projective_cover, quivalg.homology.submodule
    built, alive = [], []

    def living():
        return [i for i, ref in enumerate(built) if ref() is not None]

    def kernel_step(m, basis):
        alive.append(living())
        sub, inc = real_submodule(m, basis)
        built.append(weakref.ref(sub))
        return sub, inc

    def cover_step(m):
        alive.append(living())
        return real_cover(m)

    monkeypatch.setattr(quivalg.homology, "submodule", kernel_step)
    monkeypatch.setattr(quivalg.homology, "projective_cover", cover_step)
    minimal_resolution(s, 9)
    # cover m; then per syzygy: its kernel step, then its cover
    assert alive == [[]] + [step for i in range(9) for step in ([], [i])]


def test_no_syzygy_on_the_resolution_path_builds_its_action(K2, monkeypatch):
    # a syzygy is read through the term it lies in: its top and its cover
    # never build its action, nor does Ext, pd or dominant dimension
    real_submodule, syzygies = quivalg.homology.submodule, []

    def kernel_step(m, basis):
        sub, inc = real_submodule(m, basis)
        syzygies.append(sub)
        return sub, inc

    monkeypatch.setattr(quivalg.homology, "submodule", kernel_step)
    a = tensor_product(tensor_product(K2, K2), K2)
    s = ModuleRep(a, standard_modules(a).simples[0].action)
    assert ext_dims(s, s, 6).dims == [(i + 1) * (i + 2) // 2 for i in range(7)]
    for entry in corpus.ENTRIES:
        a = corpus.load_entry(entry.name).algebra
        mods = standard_module_list(a)
        for m in mods:
            m = ModuleRep(a, m.action)
            ext_dims(m, mods[0], 3)
            pd_bounded(m, 5)
        dominant_dimension(a, 4)
    syzygies = [x for x in syzygies if x.dim]  # a zero kernel is a zero module
    assert len(syzygies) > 50
    assert all(isinstance(x, quivalg.modules.Submodule) for x in syzygies)
    assert not [x for x in syzygies if "action" in x.__dict__]


def test_a_deep_resolution_has_a_bounded_working_set(K2):
    # the traced peak of a fresh ext_dims(S, S, 9) over k[x]/(x^2)^(x)3,
    # which is transient: the 241-dim kernel of P_9 -> P_8 (dim P_9 = 440)
    # read in blocks of basis columns, and three arrows rather than seven
    # radical elements for every top.  One read of the whole kernel and the
    # full radical traced 26.4 MB; whole-action products, two syzygies alive
    # at once and a reducing copy of each kernel's action 13.4 MB; one
    # syzygy alive, read in bounded blocks, 9.2 MB; one copy of each radical
    # span 8.1 MB; each syzygy read through its term, with no action, 5.5 MB
    a = tensor_product(tensor_product(K2, K2), K2)
    s = standard_modules(a).simples[0]
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert ext_dims(s, s, 9).dims == [(i + 1) * (i + 2) // 2 for i in range(10)]
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 7e6, f"{peak / 1e6:.1f} MB"


def test_the_bar_oracle_has_a_bounded_working_set():
    # the traced peak of a fresh bar_ext_oracle(A, A, 3) over k[x]/(x^4):
    # its largest coboundary is 1296 x 432 with 2,592 nonzeros, which a
    # dense int64 matrix held in 12 MB; as triplets the call peaks near 1 MB
    a = corpus.load_entry("k4").algebra
    m = standard_modules(a).regular
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert bar_ext_oracle(m, m, 3).dims == [4, 0, 0, 0]
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 4e6, f"{peak / 1e6:.1f} MB"


def test_the_bar_chains_hold_no_dense_differential():
    # the traced peak of a fresh bar_ext_oracle(A, A, 9) over aus: its chain
    # differential D_9 is 377 x 610 with 1,819 nonzeros; built as a dense
    # int64 array (1.84 MB) it set the call's peak of 2.72 MB, and the chains
    # alone peaked there too; as triplets from D_8 they peak near 0.3 MB and
    # the call near 2.1 MB, in the coboundary ranks
    a = corpus.load_entry("aus").algebra
    m = standard_modules(a).regular
    g = quivalg.checks._graded_data(a)
    gm = quivalg.checks._graded_module(g, m)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        peaks = []
        for call in (lambda: quivalg.checks._bar_chains(g, gm, 9, 2000), lambda: bar_ext_oracle(m, m, 9)):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        if started:
            tracemalloc.stop()
    assert result.dims == [5] + [0] * 9
    assert peaks[0] <= 1e6 and peaks[1] <= 2.4e6, [f"{x / 1e6:.2f} MB" for x in peaks]


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


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_ext_into_a_semisimple_target_equals_the_hom_complex(p):
    # into a semisimple target Ext^i is read off the vertex list of P_i; the
    # reference ranks the hom complex of the resolution to depth 6, and is
    # itself held to ext_dims on the regular and coregular targets
    for entry in corpus.ENTRIES:
        a = corpus.load_entry(entry.name, p).algebra
        std = standard_modules(a)
        for m in standard_module_list(a):
            for n in semisimple_targets(a) + [std.regular, std.coregular]:
                assert ext_dims(m, n, 5).dims == hom_complex_ext_dims(m, n, 5), (entry.name, m, n)


def forbid_everywhere(monkeypatch, real):
    """Make every quivalg binding of ``real`` raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{real.__name__} called")

    for name, mod in list(sys.modules.items()):
        if name == "quivalg" or name.startswith("quivalg."):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, forbidden)


def forbid_solve(monkeypatch):
    """Make every quivalg binding of linalg.solve raise."""
    forbid_everywhere(monkeypatch, quivalg.linalg.solve)


def test_ext_and_covers_run_no_solve(corpus_loaded, monkeypatch):
    cases = []
    for loaded in corpus_loaded.values():
        mods = standard_module_list(loaded.algebra)
        ext_dims(mods[0], mods[0], 0)  # memoizes the standard modules
        # fresh copies carry no memoized resolution
        cases.append([ModuleRep(m.algebra, m.action) for m in mods])
    forbid_solve(monkeypatch)
    for mods in cases:
        for m in mods:
            projective_cover(m)
            for n in mods:
                ext_dims(m, n, 3)


def test_covers_and_projectivity_build_no_submodule(corpus_loaded, monkeypatch):
    # tops, covers and projectivity read top(m) off one projection of the
    # radical span: no rad submodule, top module, or cover to compare
    cases = []
    for loaded in corpus_loaded.values():
        a = loaded.algebra
        standard_modules(opposite(a))  # is_injective reads the opposite's P(i)
        cases.append([ModuleRep(a, m.action) for m in small_corpus_modules(a)])
    forbid_everywhere(monkeypatch, quivalg.modules.submodule)
    for mods in cases:
        for m in mods:
            projective_cover(m)
            top_multiplicities(m)
    forbid_everywhere(monkeypatch, quivalg.modules.quotient_module)
    forbid_everywhere(monkeypatch, quivalg.modules.DirectSum)
    for mods in cases:
        for m in mods:
            is_projective(m)
            is_injective(m)


def test_coordinate_reads_run_no_solve(monkeypatch):
    # coordinates are read through linalg.coordinates and HomSpace.read, so on
    # fresh corpus algebras, with nothing memoized, the bar oracle, End of the
    # minimal generator-cogenerator, the Nakayama map and approximations run
    # no solve
    forbid_solve(monkeypatch)
    for entry in corpus.ENTRIES:
        a = corpus.load_entry(entry.name).algebra
        std = standard_modules(a)
        dm = minimal_gen_cogen(a)
        endomorphism_algebra(dm)
        for m in std.simples + [std.coregular]:
            assert bar_ext_oracle(m, std.regular, 2).dims == ext_dims(m, std.regular, 2).dims
            nakayama(m)
            min_add_approximation(dm, m)


def test_minimality_witness(corpus_algebras):
    # dim Ext^i(m, S(j)) = multiplicity of P(j) in term i of the resolution
    for name, a in corpus_algebras.items():
        std = standard_modules(a)
        for m in small_corpus_modules(a, max_dim=4):
            res = minimal_resolution(m, 3)
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
    # the injective envelope of A is the dual of the projective cover of D(A)
    for name, a in corpus_algebras.items():
        ev = dominant_dimension(a, 6)
        env = dualize(projective_cover(dualize(standard_modules(a).regular)).projective)
        assert ev.at_least(1) == is_projective(env), name


def test_domdim_opposite_invariance(corpus_algebras):
    # cheap extra suite: evidence agrees with the opposite algebra's
    for name, a in corpus_algebras.items():
        lhs = dominant_dimension(a, 6)
        rhs = dominant_dimension(opposite(a), 6)
        assert (lhs.kind, lhs.value) == (rhs.kind, rhs.value), name


def self_injectivity_cases():
    """Every corpus algebra at p = 2, 3 and 32003, its opposite, and End of
    its minimal generator-cogenerator wherever that End is accepted."""
    for entry in corpus.ENTRIES:
        for p in (2, 3, 32003):
            a = corpus.load_entry(entry.name, p).algebra
            yield f"{entry.name}-{p}", a
            yield f"{entry.name}-{p}-op", opposite(a)
            try:
                yield f"{entry.name}-{p}-end", endomorphism_algebra(minimal_gen_cogen(a)).algebra
            except InputError:
                pass


def test_self_injective_iff_every_injective_is_projective():
    # dominant_dimension certifies infinity from the I(v) alone: for a basic
    # algebra, all I(v) projective iff all P(v) injective
    verdicts = set()
    for name, a in self_injectivity_cases():
        std = standard_modules(a)
        by_injectives = all(is_projective(i) for i in std.injectives)
        assert by_injectives == all(is_injective(q) for q in std.projectives), name
        for c in range(1, 7):
            assert (dominant_dimension(a, c).kind == "infinity") == by_injectives, (name, c)
        verdicts.add(by_injectives)
    assert verdicts == {True, False}


def test_the_coresolution_is_memoized_on_the_dual_of_a(monkeypatch):
    covers = count_calls(monkeypatch, "projective_cover")
    checked = 0
    for entry in corpus.ENTRIES:
        a = corpus.load_entry(entry.name).algebra  # no memoized coresolution
        del covers[:]
        if dominant_dimension(a, 6).kind == "infinity":
            assert not covers, entry.name
            continue
        assert len(covers) == 6, entry.name  # I^0..I^5
        del covers[:]
        dominant_dimension(a, 6)
        assert not covers, entry.name
        dominant_dimension(a, 8)
        assert len(covers) == 2, entry.name  # I^6 and I^7 only
        state = standard_modules(opposite(a)).coregular.memo["resolution"]
        assert len(state.terms) == 8, entry.name
        checked += 1
    assert checked == 4  # ka2, ka3, aus, ka2xk2


# ---------------------------------------------------------------------------
# Nakayama functor


def test_nakayama_sends_projectives_to_injectives(corpus_algebras):
    for name, a in corpus_algebras.items():
        std = standard_modules(a)
        for i, p in enumerate(std.projectives):
            nk = nakayama(p)
            assert is_isomorphic([std.injectives[i]], nk.module), (name, i)


def test_nakayama_k2_regular(K2):
    std = standard_modules(K2)
    nk = nakayama(std.regular)
    assert nk.module.dim == 2
    assert is_isomorphic(std.injectives, nk.module)


def test_nakayama_k2_simple(K2):
    std = standard_modules(K2)
    nk = nakayama(std.simples[0])
    assert nk.module.dim == 1
    assert is_isomorphic([std.simples[0]], nk.module)


def test_nakayama_routes_agree(corpus_loaded):
    # regular, coregular, every simple and injective and every named module
    # of each entry: the routes agree through the natural map eta
    for name, loaded in corpus_loaded.items():
        std = standard_modules(loaded.algebra)
        mods = [std.regular, std.coregular] + std.simples + std.injectives
        mods += [resolve_expression(loaded, nm) for nm in named_modules(loaded)]
        for m in mods:
            nk = nakayama(m)
            eta = Morphism(nk.module, nk.hom_route, nk.eta)
            eta.check()
            assert eta.is_iso(), name


def test_nakayama_verifies_eta_near_two_to_the_29():
    # corpus algebras in a random basis at p = 536870923: dense entries close
    # to p, where an int64 overflow in building eta would fail its checks
    p = 536870923
    rng = np.random.default_rng(1)
    checked = 0
    for entry in corpus.ENTRIES:
        a = rebased(corpus.load_entry(entry.name, p).algebra, rng)
        for s in standard_modules(a).simples:
            nk = nakayama(s)
            eta = Morphism(nk.module, nk.hom_route, nk.eta)
            eta.check()
            assert eta.is_iso(), entry.name
            checked += 1
    # one simple each over k, k2, k3, k4 and k2xk2, two over ka2, aus and
    # ka2xk2, three over ka3
    assert checked == 14


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
        doubled = DirectSum(t.module.algebra, [t.module, t.module])
        return dataclasses.replace(
            t,
            dim=2 * t.dim,
            proj=PrimeMatrix(t.proj.field, np.vstack([t.proj.a, np.zeros_like(t.proj.a)])),
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
    both = DirectSum(K2, [std.regular, std.simples[0]])
    rep = self_orthogonal(both, 4)
    assert not rep.self_orthogonal
    assert rep.first_nonzero_degree == 1


def test_self_orth_injectives_over_selfinjective(K2):
    for i in standard_modules(K2).injectives:
        assert self_orthogonal(i, 4).self_orthogonal


def test_gen_cogen(corpus_algebras, K2, KA2):
    for name, a in corpus_algebras.items():
        std = standard_modules(a)
        both = DirectSum(a, [std.regular, std.coregular])
        assert gen_cogen(both), name
    assert gen_cogen(standard_modules(K2).regular)
    assert not gen_cogen(standard_modules(KA2).regular)


def gen_cogen_pool(a):
    std = standard_modules(a)
    return standard_module_list(a) + [DirectSum(a, [std.regular, std.coregular])]


@pytest.mark.parametrize("p", [2, 3])
def test_gen_cogen_at_small_primes_matches_32003(corpus_loaded, p):
    # the trace criterion takes ranks only, so it needs no bound on p
    for name, loaded in corpus_loaded.items():
        pool = gen_cogen_pool(corpus.load_entry(name, p).algebra)
        want = [gen_cogen(m) for m in gen_cogen_pool(loaded.algebra)]
        assert [gen_cogen(m) for m in pool] == want, name


def test_standard_modules_share_the_opposite_projectives(monkeypatch):
    # the injectives of A are the duals of the opposite's P(i): once A's
    # standard modules are built, the opposite's build no submodule
    algebras = [corpus.load_entry(e.name).algebra for e in corpus.ENTRIES]
    for a in algebras:
        standard_modules(a)
    forbid_everywhere(monkeypatch, quivalg.modules.submodule)
    for a in algebras:
        std = standard_modules(opposite(a))
        assert [q.dim for q in std.injectives] == [q.dim for q in standard_modules(a).projectives]


# ---------------------------------------------------------------------------
# approximations


def test_approx_zero_target(K2):
    std = standard_modules(K2)
    ap = min_add_approximation(DirectSum(K2, [std.regular]), zero_module(K2))
    assert ap.multiplicities == [0]
    assert ap.morphism.source.dim == 0


def test_approx_by_regular_is_cover(KA2):
    std = standard_modules(KA2)
    regular = DirectSum(KA2, list(std.projectives))
    for x in std.simples + std.injectives:
        ap = min_add_approximation(regular, x)
        assert ap.multiplicities == top_multiplicities(x)
        assert ap.morphism.map.rank() == x.dim


def test_approx_k2_example(K2):
    # id_S, not the whole of A + S
    std = standard_modules(K2)
    both = DirectSum(K2, [std.regular, std.simples[0]])
    ap = min_add_approximation(both, std.simples[0])
    assert ap.multiplicities == [0, 1]
    assert ap.morphism.source.summands == [std.simples[0]]


def test_approx_refuses_a_summand_whose_end_is_not_local(K2):
    # End(S + S) = M_2(k): one idempotent for the one summand, so its corner
    # is all of M_2(k), which is not local
    std = standard_modules(K2)
    s2 = DirectSum(K2, [std.simples[0], std.simples[0]])
    with pytest.raises(InputError, match="not basic"):
        min_add_approximation(DirectSum(K2, [s2]), std.simples[0])


def is_right_minimal(f: Morphism) -> bool:
    """f is right minimal iff K = {psi in End(source) : f o psi = 0} lies in
    rad End(source).  K is a right ideal, so that holds iff K is nilpotent:
    the chain K, K*K, K*K*K, ... reaches 0.  Read from one HomSpace of the
    source, with no idempotent and no radical routine."""
    field, p = f.map.field, f.map.field.p
    end = HomSpace(f.source, f.source)
    after = PrimeMatrix(field, end.postcompose(f.map.a).reshape(end.dim, -1).T)
    k = mulmod(end.matrix.a, nullspace(after).a, p).T.reshape(-1, f.source.dim, f.source.dim)
    power = k
    while len(power):
        products = mulmod(power.reshape(-1, f.source.dim), np.hstack(list(k)), p)
        products = products.reshape(len(power), f.source.dim, len(k), f.source.dim).transpose(0, 2, 1, 3)
        span = column_span_basis(PrimeMatrix(field, products.reshape(-1, f.source.dim**2).T))
        if span.cols == len(power):
            return False  # K^(j+1) = K^j != 0
        power = span.a.T.reshape(-1, f.source.dim, f.source.dim)
    return True


def approximation_cases(corpus_loaded):
    """(name, m, x): k2 regular+S, regular+regular and S+S, and every corpus
    generator-cogenerator, each against every simple and D(A)."""
    cases = [("k2", "regular+S"), ("k2", "regular+regular"), ("k2", "S+S")]
    cases += [(e.name, "gencogen") for e in corpus.ENTRIES]
    for name, expr in cases:
        loaded = corpus_loaded[name]
        std = standard_modules(loaded.algebra)
        for x in std.simples + [std.coregular]:
            yield f"{name} {expr}", resolve_expression(loaded, expr), x


def test_approximations_are_right_minimal(corpus_loaded):
    # the oracle reads no idempotent and no radical: each map is checked to
    # be a module map, right minimal, and onto Hom(m, x) under Hom(m, -)
    for name, m, x in approximation_cases(corpus_loaded):
        f = min_add_approximation(m, x).morphism
        f.check()
        assert is_right_minimal(f), name
        through = HomSpace(m, f.source)
        composites = mulmod(f.map.a, np.hstack(list(through.maps())), f.map.field.p)
        composites = composites.reshape(x.dim, through.dim, m.dim).transpose(1, 0, 2).reshape(through.dim, -1)
        assert PrimeMatrix(f.map.field, composites.T).rank() == HomSpace(m, x).dim, name


def test_right_minimality_oracle_refuses_a_redundant_summand(K2):
    # f = [0 0 1]: A + S -> S is fixed by the idempotent of S, which is not
    # invertible
    std = standard_modules(K2)
    source = DirectSum(K2, [std.regular, std.simples[0]])
    redundant = Morphism(source, std.simples[0], K2.field.matrix([[0, 0, 1]]))
    redundant.check()
    assert not is_right_minimal(redundant)
    assert is_right_minimal(identity_morphism(std.simples[0]))


# ---------------------------------------------------------------------------
# endomorphism algebras


def test_endo_k2_gen_cogen_is_dim5(K2):
    std = standard_modules(K2)
    dm = DirectSum(K2, [std.regular, std.simples[0]])
    endo = endomorphism_algebra(dm)
    assert endo.algebra.dim == 5
    assert len(endo.algebra.idempotents) == 2
    assert endo.algebra.radical().cols == 3


def test_endo_of_simple_is_ground_field(KA2):
    std = standard_modules(KA2)
    endo = endomorphism_algebra(DirectSum(KA2, [std.simples[0]]))
    assert endo.algebra.dim == 1


def test_endo_of_regular_commutative(K2):
    std = standard_modules(K2)
    endo = endomorphism_algebra(DirectSum(K2, [std.regular]))
    e = endo.algebra
    assert e.dim == 2
    assert np.array_equal(e.mult, np.transpose(e.mult, (1, 0, 2)))  # commutative
    assert e.radical().cols == 1  # local with one-dimensional radical: k[x]/(x^2)


def test_endo_nonbasic_rejected(K2, KA2):
    std = standard_modules(K2)
    dm = DirectSum(K2, [std.regular, std.regular])
    with pytest.raises(InputError, match="not basic"):
        endomorphism_algebra(dm)
    # one summand whose End is not local: dim End/rad End = 2, one idempotent
    dm = DirectSum(KA2, [standard_modules(KA2).regular])
    with pytest.raises(InputError, match="not basic"):
        endomorphism_algebra(dm)


def test_endo_refuses_a_composite_outside_the_hom_space(monkeypatch, KA2):
    # End's associativity is inherited from exact reads of the composites,
    # so one corrupted composite is refused by its read
    postcompose = HomSpace.postcompose

    def corrupted(self, g):
        out = postcompose(self, g)
        out[-1, 0, 0] += 1
        return out

    dm = minimal_gen_cogen(KA2)
    monkeypatch.setattr(HomSpace, "postcompose", corrupted)
    with pytest.raises(InputError, match="not in the hom space"):
        endomorphism_algebra(dm)


def test_endo_is_built_once_and_not_revalidated(monkeypatch, AUS):
    # no associativity pass on End(m), and one End per module: the checks on
    # m share it and its memos; the full validation, run afterwards, passes
    def refuse(self):
        raise AssertionError("validated")

    dm = minimal_gen_cogen(AUS)
    monkeypatch.setattr(Algebra, "_validate", refuse)
    endo = endomorphism_algebra(dm)
    assert dm.memo["endomorphism"] is endo
    assert endomorphism_algebra(dm) is endo
    monkeypatch.undo()
    b = endo.algebra
    assert Algebra(b.field, b.labels, b.mult, b.unit, b.idempotents).radical() == b.radical()


def auslander_algebra(n):
    """Gamma_n = End(k[x]/(x) + ... + k[x]/(x^n)) over k[x]/(x^n), each
    k[x]/(x^i) the regular module modulo the paths of length at least i
    (the path lengths read from ``basis_paths``)."""
    a = quiver(["1"], [("x", "1", "1")], [[(1, ("x",) * n)]], n - 1)
    lengths = np.array([0 if q == ("1",) else len(q) for q in a.basis_paths])
    reg, units = standard_modules(a).regular, np.eye(a.dim, dtype=np.int64)
    summands = [quotient_module(reg, PrimeMatrix(a.field, units[:, lengths >= i]))[0] for i in range(1, n + 1)]
    return endomorphism_algebra(DirectSum(a, summands)).algebra


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_auslander_algebras_match_their_closed_forms(n):
    # Auslander (Representation Dimension of Artin Algebras, 1971): dim
    # n(n+1)(2n+1)/6, n idempotents, global dimension 2 and, by Mueller,
    # dominant dimension exactly 2
    gamma = auslander_algebra(n)
    assert gamma.dim == n * (n + 1) * (2 * n + 1) // 6
    assert len(gamma.idempotents) == n
    assert dominant_dimension(gamma, 4) == DomDimEvidence("exact", 2)
    bounds = [pd_bounded(s, 4) for s in standard_modules(gamma).simples]
    assert all(b.finite for b in bounds) and max(b.value for b in bounds) == 2


def test_endo_at_small_primes_matches_32003():
    # dim End(regular + S) = 5 over k[x]/(x^2): at p = 5 and p = 2, not
    # above dim End, the basic check counts the same radical as at 32003
    def shape(p):
        end = endomorphism_algebra(resolve_expression(corpus.load_entry("k2", p), "regular+S")).algebra
        return end.dim, len(end.idempotents), end.radical().cols

    assert shape(5) == shape(2) == shape(32003) == (5, 2, 3)


def test_minimal_gen_cogen(corpus_algebras):
    for name, a in corpus_algebras.items():
        dm = minimal_gen_cogen(a)
        assert gen_cogen(dm), name
        # pairwise non-isomorphic summands with local End: End(M) is basic,
        # which endomorphism_algebra decides exactly at every prime
        endomorphism_algebra(dm)


def test_summand_verdicts_are_exact(corpus_algebras):
    # minimal_gen_cogen and the basic check of endomorphism_algebra decide
    # isomorphism of summands exactly, without comparing them pairwise
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
        endomorphism_algebra(DirectSum(corpus_algebras["k2"], [std.regular, std.regular]))


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


def end_pin_modules():
    modules = {}
    for n in (3, 4, 5):
        verts = [str(i) for i in range(1, n + 1)]
        arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
        modules[f"A{n} gencogen"] = minimal_gen_cogen(quiver(verts, arrows, (), n - 1))
    for name, expr in (("k2", "regular+S"), ("aus", "gencogen")):
        modules[f"{name} {expr}"] = resolve_expression(corpus.load_entry(name), expr)
    return modules


def test_end_structure_constants_are_pinned():
    got = {
        key: hashlib.sha256(endomorphism_algebra(dm).algebra.mult.tobytes()).hexdigest()
        for key, dm in end_pin_modules().items()
    }
    assert got == END_MULT_SHA256


def array_digest(arrays):
    """sha256 over the shape and the int64 bytes of each array in turn."""
    h = hashlib.sha256()
    for x in arrays:
        x = np.asarray(x, dtype=np.int64)
        h.update(np.array(x.shape, dtype=np.int64).tobytes())
        h.update(x.tobytes())
    return h.hexdigest()


# sha256 of the End action on M and of End's unit and idempotents, for the
# modules of END_MULT_SHA256, recorded while each was read by its own
# HomSpace.coords call
END_ACTION_SHA256 = {
    "A3 gencogen": "7251aff1e99ca4ab5e69d133a0e3951a2d08ab0176adf6d8576be89a8fcab9bc",
    "A4 gencogen": "4497ffebd4a165c1697cd9c03a53121d3ffb95800bc91d9c7cd21376bfcbbd42",
    "A5 gencogen": "3856bf5f4cf41941e62863ec44213b5b0ee3780d3d45a769d3b2ab840e4e3442",
    "k2 regular+S": "dc11b9e98261cc47c832c8e7e834c4de46fa8bd74586607486947ec62d169163",
    "aus gencogen": "23b7d4573a735c8dcbbaa58af13d1432bbc8974cd99af05e3091e8cf75fba041",
}


def test_end_action_and_idempotents_are_pinned():
    got = {}
    for key, dm in end_pin_modules().items():
        b = endomorphism_algebra(dm)
        got[key] = array_digest([b.end_action, b.algebra.unit] + b.algebra.idempotents)
    assert got == END_ACTION_SHA256


# sha256 of the Nakayama map eta and of the action on the Hom route, over
# standard_module_list, recorded while the Hom route was read one
# HomSpace.coords call per element
NAKAYAMA_SHA256 = {
    "k": "036b147c383432a13cea95c541458cf67bddf7b07752c4afb92585284e9b36a2",
    "k2": "102fb80e7a55cd85510734ac799a3ef01f15aaf9b7c36503727d317462ac9624",
    "k3": "e013294630b05454d6ee80fb2ae13894d1373f262fb7906fc5cfb80d39ec623f",
    "k4": "4a9915cc189c8f5034ed566077384cc224179826d734119f756df624ac7bbaee",
    "ka2": "f4d2bb75cb45fe87217d34d6e8ccca8f055746b8847f3e5d927759a4a36f2eea",
    "ka3": "14f84d9ce2641523f337e8fb845f821d8a0180d770e715554d60a52c6303ee3b",
    "aus": "3b29be7aafc47c39c77baecbf72f4d345e20513ad33f8d5462374d843a451dd3",
    "k2xk2": "0ca51ef77ed48fa46889234dc09172bc4cf43aa0d522dcefc50eb5c155719278",
    "ka2xk2": "279062f0759c1f4d330d78e04893494b04f9042fdc63da0523006ec84b9879e3",
}


def test_nakayama_maps_are_pinned(corpus_loaded):
    got = {}
    for name, loaded in corpus_loaded.items():
        results = [nakayama(m) for m in standard_module_list(loaded.algebra)]
        got[name] = array_digest([x for r in results for x in (r.eta.a, r.hom_route.action)])
    assert got == NAKAYAMA_SHA256


# sha256 of the map of min_add_approximation(M, X) for X the simples and
# D(A), recorded when the approximation became right minimal (its source is
# sum M_i^(d_i), not copies of the whole of M)
APPROX_SHA256 = {
    "k2 regular+S": "5e8568ea5cb1269e51046c51541665a88a19714c1d57120480716596d5f79a88",
    "ka3 gencogen": "25cb4fcc83659f8e1b8b3053f427c98545a8ed824df6268fb6f4f6c0bcf33ef6",
    "aus gencogen": "5b023c5b7dbf4ab751b201d4a3e56494bcaabcd35bfe9a502f4d24e9713cba24",
    "ka2xk2 gencogen": "7f1185fb8eac0c240ece9f2980b6028d85ac5a8634cf843454761d50241948f2",
}


def test_approximation_maps_are_pinned(corpus_loaded):
    got = {}
    for name, expr in (("k2", "regular+S"), ("ka3", "gencogen"), ("aus", "gencogen"), ("ka2xk2", "gencogen")):
        loaded = corpus_loaded[name]
        dm = resolve_expression(loaded, expr)
        std = standard_modules(loaded.algebra)
        maps = [min_add_approximation(dm, x).morphism.map.a for x in std.simples + [std.coregular]]
        got[f"{name} {expr}"] = array_digest(maps)
    assert got == APPROX_SHA256
