import hashlib
import itertools
import json
import sys

import numpy as np
import pytest

import quivalg.algebra
import quivalg.homology
import quivalg.linalg
import quivalg.modules
from quivalg import corpus
from quivalg.checks import (
    _graded_data,
    _sparse_rank,
    bar_ext_oracle,
    diamond,
    kunneth_check,
    muller_check,
    nc_evidence_scan,
    remark32_check,
    thick_shadow_check,
    wg_lemma_check,
)
from quivalg.errors import BudgetError, InputError
from quivalg.homology import ext_dims, minimal_gen_cogen
from quivalg.linalg import PrimeField, PrimeMatrix
from quivalg.modules import DirectSum, ModuleRep, standard_modules

from test_algebra import rebased


def small_corpus_modules(alg, max_dim=4):
    std = standard_modules(alg)
    mods = [std.regular, std.coregular] + std.projectives + std.injectives + std.simples
    out, seen = [], set()
    for m in mods:
        if m.dim <= max_dim and m.content_hash() not in seen:
            seen.add(m.content_hash())
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# the bar oracle


def test_bar_oracle_k2_simple(K2):
    s = standard_modules(K2).simples[0]
    assert bar_ext_oracle(s, s, 3).dims == [1, 1, 1, 1]


def test_bar_oracle_degree_zero_is_hom(KA2):
    from quivalg.modules import HomSpace

    std = standard_modules(KA2)
    for m in std.projectives + std.simples:
        t = bar_ext_oracle(m, std.regular, 0)
        assert t.dims[0] == HomSpace(m, std.regular).dim


def test_bar_oracle_free_module(K2):
    std = standard_modules(K2)
    t = bar_ext_oracle(std.regular, std.simples[0], 3)
    assert t.dims[1:] == [0, 0, 0]


def test_bar_oracle_budget():
    from quivalg import corpus

    k4 = corpus.load_entry("k4").algebra
    std = standard_modules(k4)
    with pytest.raises(BudgetError):
        bar_ext_oracle(std.regular, std.regular, 6, budget=50)


def test_bar_oracle_reuses_its_chains_and_rechecks_the_budget():
    # the chains of m are built once per cutoff; every call checks their
    # dimensions against its own budget, and refuses as a fresh module would.
    # Over aus the cochains of this n are smaller than the chains of m, so
    # only the chain check can refuse.
    std = standard_modules(corpus.load_entry("aus").algebra)
    m, n = std.regular, std.simples[1]
    first = bar_ext_oracle(m, n, 3)
    chains = m.memo["bar_chains"][3]
    assert bar_ext_oracle(m, n, 3) == first
    assert m.memo["bar_chains"][3] is chains
    top = max(tags.size for tags in chains.tags[1:])
    with pytest.raises(BudgetError) as hit:
        bar_ext_oracle(m, n, 3, budget=top - 1)
    with pytest.raises(BudgetError) as fresh:
        bar_ext_oracle(ModuleRep(m.algebra, m.action), n, 3, budget=top - 1)
    assert str(hit.value) == str(fresh.value)
    assert bar_ext_oracle(m, n, 3, budget=top) == first
    for cutoff in (0, 2, 4):
        got = bar_ext_oracle(m, n, cutoff)
        assert len(m.memo["bar_chains"][cutoff].tags) == cutoff + 2
        assert got.dims == ext_dims(m, n, cutoff).dims
    assert m.memo["bar_chains"][3] is chains


def test_bar_oracle_near_two_to_the_29():
    # ka2 in a random basis: dense structure constants close to p, where the
    # graded radical's products overflowed int64 before they went through
    # mulmod and raised a false InternalCheckError
    p = 536870923
    a = rebased(corpus.load_entry("ka2", p).algebra, np.random.default_rng(0))
    std = standard_modules(a)
    mods = [std.regular, std.coregular] + std.projectives + std.injectives + std.simples
    for m, n in itertools.product(mods, mods):
        assert bar_ext_oracle(m, n, 3).dims == ext_dims(m, n, 3).dims


def test_bar_oracle_runs_no_resolution_cover_or_hom(corpus_loaded, monkeypatch):
    # the oracle is a second Ext route: on the corpus sweep pool it must not
    # reach the minimal-resolution machinery, Hom spaces, the arrows that
    # the minimal route reads radicals and socles through, or the engine's
    # rank (the coboundaries are ranked by the oracle's own elimination)
    cases = []
    for loaded in corpus_loaded.values():
        pool = small_corpus_modules(loaded.algebra, corpus.BAR_SWEEP_MAX_DIM)
        want = [ext_dims(m, n, corpus.BAR_SWEEP_DEGREE).dims for m in pool for n in pool]
        bar_ext_oracle(pool[0], pool[0], 0)  # memoizes the graded radical
        # fresh copies carry no memoized grading or chains
        cases.append(([ModuleRep(m.algebra, m.action) for m in pool], want))

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the minimal route")

    real = {
        quivalg.modules.projective_cover,
        quivalg.homology.minimal_resolution,
        quivalg.homology.ext_dims,
        quivalg.modules.HomSpace,
    }
    for name, mod in list(sys.modules.items()):
        if name == "quivalg" or name.startswith("quivalg."):
            for key, value in list(vars(mod).items()):
                if any(value is r for r in real):
                    monkeypatch.setattr(mod, key, forbidden)
    monkeypatch.setattr(quivalg.algebra.Algebra, "arrows", forbidden)
    monkeypatch.setattr(quivalg.linalg.PrimeMatrix, "rank", forbidden)
    for pool, want in cases:
        got = [bar_ext_oracle(m, n, corpus.BAR_SWEEP_DEGREE).dims for m in pool for n in pool]
        assert got == want


def triplet_cases(rng, p):
    """(shape, rows, columns, values) with duplicate triplets, some of which
    cancel mod p, and values of either sign as the coboundaries carry them."""
    none = np.zeros(0, dtype=np.int64)
    yield (0, 0), none, none, none
    yield (4, 6), none, none, none
    r, c = rng.integers(0, 4, 10), rng.integers(0, 6, 10)
    yield (4, 6), r, c, np.zeros(10, dtype=np.int64)
    yield (4, 6), r, c, p * rng.integers(-2, 3, 10)
    # every triplet cancelled by a duplicate
    v = rng.integers(1, p, 10)
    yield (4, 6), np.concatenate([r, r]), np.concatenate([c, c]), np.concatenate([v, -v])
    # sparse and dense random matrices, a quarter of their triplets cancelled
    for shape, count in [((12, 9), 8), ((12, 9), 30), ((30, 40), 60), ((30, 40), 2000), ((25, 20), 1500)]:
        r, c = rng.integers(0, shape[0], count), rng.integers(0, shape[1], count)
        v = rng.integers(-(p - 1), p, count)
        pick = rng.choice(count, count // 4, replace=False)
        yield shape, np.concatenate([r, r[pick]]), np.concatenate([c, c[pick]]), np.concatenate([v, p - v[pick]])
    # a dense matrix of rank at most 3, each entry split into two triplets
    left = rng.integers(0, p, (15, 3)).astype(object)
    right = rng.integers(0, p, (3, 11)).astype(object)
    dense = np.array((left @ right) % p, dtype=np.int64)
    r, c = np.nonzero(dense)
    part = rng.integers(-(p - 1), p, r.size)
    yield dense.shape, np.concatenate([r, r]), np.concatenate([c, c]), np.concatenate([part, dense[r, c] - part])


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_sparse_rank_matches_the_engine_rank(p):
    rng = np.random.default_rng(p % 1009)
    ranks = []
    for shape, r, c, v in triplet_cases(rng, p):
        dense = np.zeros(shape, dtype=object)
        for i, j, x in zip(r.tolist(), c.tolist(), v.tolist()):
            dense[i, j] += x
        want = PrimeMatrix(PrimeField(p), np.array(dense % p, dtype=np.int64).reshape(shape)).rank()
        assert _sparse_rank(r, c, v, p) == want
        ranks.append(want)
    assert ranks[:5] == [0] * 5
    assert ranks[-2] == 20 and 0 < ranks[-1] <= 3


# sha256 of the graded radical basis and of its product table, recorded
# while each product was read by its own solve in the basis of its cell
GRADED_DATA_SHA256 = {
    "k": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "k2": "f1a6f49caa7032df3e74c227806e77144f8da12785462870782f147c5bccb1ac",
    "k3": "3d36d8bff147cbe2502e57c629ceca5378ee803b636d5607841aacafedddca5d",
    "k4": "bfe07bb8895fd583f8c42dab09bc84f94b761225fdad0fba754a07862e272028",
    "ka2": "5abd5044bc899c0e12ea8f85a5c0ba0c7a1a17793906628610188e865f035e75",
    "ka3": "b5b1ea45022283baad7ac424330a6ac4b129de258aa49b26e8da5f105b047d9b",
    "aus": "7e274329e8da062ecea1051a922db2880f61c6f6bef702ecfc5a53a2b2a05095",
    "k2xk2": "dcf5788c54469de1d3988f2f66f0e377601988785bfa7f3b54ef94b4f2838909",
    "ka2xk2": "87b6a053c529eafea45f2d496257ac94dc42a20fc92b710c16223be08fc4fd97",
}


def graded_data_digest(a):
    g = _graded_data(a)
    h = hashlib.sha256(np.array(g.j_vectors, dtype=np.int64).reshape(-1, a.dim).tobytes())
    table = [[i, j, [[int(t), int(c)] for t, c in terms]] for (i, j), terms in sorted(g.products.items())]
    h.update(json.dumps(table).encode())
    return h.hexdigest()


def test_graded_data_is_pinned(corpus_loaded):
    got = {name: graded_data_digest(loaded.algebra) for name, loaded in corpus_loaded.items()}
    assert got == GRADED_DATA_SHA256


def test_bar_oracle_matches_minimal_route(corpus_algebras):
    # sweep: all small module pairs, degrees 0..3
    for name, a in corpus_algebras.items():
        if a.dim > 6:
            continue
        mods = small_corpus_modules(a)
        for m, n in itertools.product(mods, mods):
            assert bar_ext_oracle(m, n, 3).dims == ext_dims(m, n, 3).dims, name


# ---------------------------------------------------------------------------
# Mueller correspondence


def test_muller_k2_free_plus_simple(K2):
    std = standard_modules(K2)
    dm = DirectSum(K2, [std.regular, std.simples[0]])
    r = muller_check(K2, dm, 6)
    assert r.verdict == "pass"
    assert r.witness["first_ext_failure"] == 1
    assert r.witness["domdim_endo"] == "2"


def test_muller_k2_regular(K2):
    std = standard_modules(K2)
    r = muller_check(K2, DirectSum(K2, [std.regular]), 6)
    assert r.verdict == "pass"
    assert r.witness["domdim_endo"] == "infinity-certified"


def test_muller_rejects_non_gen_cogen(KA2):
    std = standard_modules(KA2)
    dm = DirectSum(KA2, list(std.projectives))
    with pytest.raises(InputError, match="generator-cogenerator"):
        muller_check(KA2, dm, 6)


def test_muller_on_corpus_gen_cogens(corpus_algebras):
    for name, a in corpus_algebras.items():
        dm = minimal_gen_cogen(a)
        r = muller_check(a, dm, 6)
        assert r.verdict == "pass", (name, r.witness)


# ---------------------------------------------------------------------------
# the endomorphism Ext comparison


def test_wg_k2_regular_passes(K2):
    std = standard_modules(K2)
    r = wg_lemma_check(K2, DirectSum(K2, [std.regular]), 6)
    assert r.verdict == "pass"
    assert r.witness["lhs_dims"] == [2, 0, 0, 0, 0, 0, 0]


def test_wg_k2_free_plus_simple_documented_failure(K2):
    # the compared module is not self-orthogonal, so the degreewise identity
    # provably fails from degree 3 on; the statement-level biconditional of
    # the underlying result still agrees (both sides false)
    std = standard_modules(K2)
    dm = DirectSum(K2, [std.regular, std.simples[0]])
    r = wg_lemma_check(K2, dm, 6)
    assert r.verdict == "fail"
    assert r.witness["lhs_dims"] == [5, 1, 1, 0, 0, 0, 0]
    assert r.witness["rhs_dims"] == [5, 1, 1, 1, 1, 1, 1]
    assert r.witness["first_mismatch"] == 3
    assert r.witness["biconditional_agrees"] is True


def test_wg_degree_zero_agrees_on_corpus(corpus_algebras):
    # Hom_B(D(B), B) = Hom(nu m, m) holds without any orthogonality hypothesis
    for name, a in corpus_algebras.items():
        dm = minimal_gen_cogen(a)
        r = wg_lemma_check(a, dm, 2)
        lhs, rhs = r.witness["lhs_dims"], r.witness["rhs_dims"]
        assert lhs[0] == rhs[0], name


def test_wg_biconditional_agrees_on_corpus(corpus_algebras):
    for name, a in corpus_algebras.items():
        dm = minimal_gen_cogen(a)
        r = wg_lemma_check(a, dm, 6)
        assert r.witness["biconditional_agrees"] is True, name


# ---------------------------------------------------------------------------
# the three-sequence remark


def test_remark32_values(GROUND, K2, KA2):
    r = remark32_check(GROUND, 4)
    assert r.verdict == "pass"
    assert r.witness["seq_dual_regular"] == [1, 0, 0, 0, 0]
    r = remark32_check(K2, 4)
    assert r.verdict == "pass"
    assert r.witness["seq_dual_regular"][1:] == [0, 0, 0, 0]
    r = remark32_check(KA2, 4)
    assert r.verdict == "pass"
    assert r.witness["seq_dual_regular"] == [1, 1, 0, 0, 0]
    assert r.witness["seq_enveloping"] == [1, 1, 0, 0, 0]


def test_remark32_budget(KA2):
    with pytest.raises(BudgetError):
        remark32_check(KA2, 4, budget=4)


# ---------------------------------------------------------------------------
# tensor products


def test_kunneth_k2_k2(K2):
    r = kunneth_check(K2, K2, 6)
    assert r.verdict == "pass"
    assert r.witness["seq_c"] == [4, 0, 0, 0, 0, 0, 0]
    assert r.witness["domdim_c"] == "infinity-certified"


def test_kunneth_ka2_k2(KA2, K2):
    r = kunneth_check(KA2, K2, 6)
    assert r.verdict == "pass"
    assert r.witness["seq_c"] == [2, 2, 0, 0, 0, 0, 0]
    assert r.witness["domdim_c"] == "1"


def test_kunneth_with_ground_field(KA2, GROUND):
    r = kunneth_check(KA2, GROUND, 6)
    assert r.verdict == "pass"
    assert r.witness["seq_c"] == r.witness["seq_a"]


# ---------------------------------------------------------------------------
# diamond property and the conjecture scan


def test_diamond_grades(K2, KA2, GROUND, AUS):
    assert diamond(K2, 6).witness["grade"] == "holds-certified"
    assert diamond(GROUND, 6).witness["grade"] == "holds-certified"
    assert diamond(KA2, 6).verdict == "fail"
    assert diamond(AUS, 6).verdict == "fail"


def test_nc_scan_no_counterexample_language(corpus_algebras):
    for name, a in corpus_algebras.items():
        r = nc_evidence_scan(a, 6)
        assert r.verdict in ("pass", "inconclusive"), name
        blob = " ".join(str(v) for v in r.witness.values())
        assert "counterexample" not in blob.lower()


# ---------------------------------------------------------------------------
# thick shadows


def test_thick_k2(K2):
    std = standard_modules(K2)
    mods = [("regular", std.regular), ("S", std.simples[0])]
    r = thick_shadow_check(K2, mods, 6)
    assert r.verdict == "pass"
    assert r.witness["pd_finite"] == ["regular"]
    assert r.witness["id_finite"] == ["regular"]


def test_thick_hypothesis_not_met(KA2):
    std = standard_modules(KA2)
    r = thick_shadow_check(KA2, [("regular", std.regular)], 6)
    assert r.verdict == "inconclusive"
    assert r.witness["status"] == "hypothesis-not-met"


def test_thick_tensor(K2xK2):
    std = standard_modules(K2xK2)
    r = thick_shadow_check(K2xK2, [("regular", std.regular)], 6)
    assert r.verdict == "pass"
