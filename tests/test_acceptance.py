"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
values are exact integers over exact arithmetic; there are no tolerances.

Criterion 3 states the degreewise identity between Ext over the
endomorphism algebra and Ext of the Nakayama image together with its
hypothesis: M is self-orthogonal.  It checks the hypothesis on every corpus
generator-cogenerator and the identity on those that satisfy it.  The
instance regular+S over k[x]/(x^2) falls outside the hypothesis, and the
identity breaks there from degree 3 (README, "The self-orthogonality
hypothesis of the endomorphism Ext comparison"); its low degrees are
asserted by criterion 3b.
"""

import itertools
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from quivalg import catalog, corpus
from quivalg.algebra import column_span_basis
from quivalg.checks import bar_ext_oracle, kunneth_check, remark32_check
from quivalg.cli import main as cli_main
from quivalg.homology import (
    dominant_dimension,
    endomorphism_algebra,
    ext_dims,
    minimal_resolution,
    nakayama,
    self_orthogonal,
)
from quivalg.linalg import PrimeMatrix, nullspace, rref
from quivalg.modules import (
    DirectSum,
    HomSpace,
    Morphism,
    dualize,
    standard_modules,
)

from conftest import multiply


def criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:>3} [{status}] {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {tail}"


def corpus_modules(alg, max_dim):
    std = standard_modules(alg)
    mods = [std.regular, std.coregular] + std.projectives + std.injectives + std.simples
    out, seen = [], set()
    for m in mods:
        if m.dim <= max_dim and m.content_hash() not in seen:
            seen.add(m.content_hash())
            out.append(m)
    return out


@pytest.fixture(scope="module")
def loaded_corpus():
    return {e.name: corpus.load_entry(e.name) for e in corpus.ENTRIES}


def test_criterion_1_oracle_equivalence(loaded_corpus):
    pairs = 0
    ok = True
    for name, loaded in loaded_corpus.items():
        a = loaded.algebra
        if a.dim > 6:
            continue
        mods = corpus_modules(a, max_dim=4)
        for m, n in itertools.product(mods, mods):
            pairs += 1
            if bar_ext_oracle(m, n, 3).dims != ext_dims(m, n, 3).dims:
                ok = False
    criterion(
        1,
        "bar-resolution Ext equals minimal-resolution Ext, degrees 0..3",
        ok,
        f"{pairs} module pairs, exact equality",
    )


def test_criterion_2_muller_values(loaded_corpus):
    k2 = loaded_corpus["k2"].algebra
    std = standard_modules(k2)
    dm = DirectSum(k2, [std.regular, std.simples[0]])
    endo = endomorphism_algebra(dm)
    d = dominant_dimension(endo.algebra, 6)
    so = self_orthogonal(dm, 6)
    ok = d.kind == "exact" and d.value == 2 and so.first_nonzero_degree == 1
    dm2 = DirectSum(k2, [std.regular])
    endo2 = endomorphism_algebra(dm2)
    d2 = dominant_dimension(endo2.algebra, 6)
    ok = ok and d2.kind == "infinity"
    criterion(
        2,
        "Mueller correspondence on (k2, regular+S) and (k2, regular)",
        ok,
        f"domdim End = {d}, first Ext failure = {so.first_nonzero_degree}, "
        f"End(regular) = {d2}",
    )


def _lemma33_sequences(dm):
    """dim Ext^n_B(D(B), B) for B = End(M), and dim Ext^n(nu M, M), n = 0..6."""
    endo = endomorphism_algebra(dm)
    std_b = standard_modules(endo.algebra)
    lhs = ext_dims(std_b.coregular, std_b.regular, 6).dims
    nu_m = nakayama(dm).module
    rhs = ext_dims(nu_m, dm, 6).dims
    return endo.algebra, lhs, rhs


# The generator-cogenerators of the corpus that are self-orthogonal: the
# regular modules of the self-injective entries, which are
# projective-injective.  Every other row has Ext^1(M, M) != 0: Ext^1(S, S)
# for regular+S, and the End algebras of the gencogen rows have finite
# dominant dimension (Mueller).
SELF_ORTHOGONAL_ROWS = {
    ("k", "regular"),
    ("k2", "regular"),
    ("k3", "regular"),
    ("k4", "regular"),
    ("k2xk2", "regular"),
}


def test_criterion_3_lemma33_degreewise(loaded_corpus):
    rows = [(e.name, expr) for e in corpus.ENTRIES for expr in e.muller_exprs]
    assert SELF_ORTHOGONAL_ROWS < set(rows)
    compared, failures, sequences = [], [], {}
    for name, expr in rows:
        dm = catalog.resolve_expression(loaded_corpus[name], expr)
        so = self_orthogonal(dm, 6)
        b, lhs, rhs = _lemma33_sequences(dm)
        sequences[name, expr] = lhs, rhs
        # the orthogonality biconditional, each side read off its own algebra
        left = dominant_dimension(b, 6).at_least(6) and not any(lhs[1:])
        right = so.self_orthogonal and not any(rhs[1:])
        if (name, expr) in SELF_ORTHOGONAL_ROWS:
            if not so.self_orthogonal:
                failures.append(f"{name}:{expr} not self-orthogonal")
            elif lhs != rhs:
                failures.append(f"{name}:{expr} lhs={lhs} rhs={rhs}")
            else:
                compared.append(f"{name}:{expr}")
        elif so.first_nonzero_degree != 1:
            failures.append(f"{name}:{expr} first Ext failure {so.first_nonzero_degree}")
        if left != right:
            failures.append(f"{name}:{expr} biconditional {left} vs {right}")

    # K2+S, the instance outside the hypothesis: End has global dimension 2,
    # while nu M = M over the symmetric k[x]/(x^2) and S is periodic.
    lhs, rhs = sequences["k2", "regular+S"]
    if lhs != [5, 1, 1, 0, 0, 0, 0] or rhs != [5, 1, 1, 1, 1, 1, 1]:
        failures.append(f"K2+S lhs={lhs} rhs={rhs}")
    criterion(
        3,
        "for self-orthogonal generator-cogenerators M, Ext^n over End(M) of "
        "(D(B), B) equals Ext^n of (nu M, M), n = 0..6",
        not failures,
        "; ".join(failures)
        or f"identity on {', '.join(compared)}; hypothesis fails at degree 1 "
        f"on the other {len(rows) - len(compared)} rows, K2+S among them "
        f"(lhs={lhs} rhs={rhs}); biconditional agrees on all {len(rows)}",
    )


def test_criterion_3b_lemma33_anchored_values(loaded_corpus):
    k2 = loaded_corpus["k2"].algebra
    std = standard_modules(k2)
    dm = DirectSum(k2, [std.regular, std.simples[0]])
    _, lhs, rhs = _lemma33_sequences(dm)
    ok = lhs[0] == rhs[0] == 5 and lhs[1] == rhs[1] == 1 and lhs[2] == rhs[2]
    criterion(
        "3b",
        "anchored low degrees of the same comparison: 5 at n=0, 1 at n=1, equal at n=2",
        ok,
        f"lhs[:3]={lhs[:3]} rhs[:3]={rhs[:3]}",
    )


def _aus_isomorphism_after_normalization(loaded, b) -> bool:
    """Explicit algebra isomorphism search for a monomial bound quiver
    algebra with at most one arrow per idempotent cell, up to reordering of
    the idempotents: arrow images are radical cell bases, path images their
    products, and multiplicativity is checked on all basis pairs."""
    qa, pres = loaded.algebra, loaded.doc
    n = len(qa.idempotents)
    if b.dim != qa.dim or len(b.idempotents) != n:
        return False
    arrows = {name: (src, tgt) for name, src, tgt in pres.arrows}
    vertex_pos = {v: i for i, v in enumerate(pres.vertices)}
    rad_b = b.radical()
    for perm in permutations(range(n)):
        arrow_img = {}
        feasible = True
        for name, (src, tgt) in arrows.items():
            eu = b.idempotents[perm[vertex_pos[tgt]]]
            ev = b.idempotents[perm[vertex_pos[src]]]
            cell = column_span_basis(
                PrimeMatrix(b.field, (b.left_mult(eu) @ b.right_mult(ev) @ rad_b.a) % b.field.p)
            )
            if cell.cols != 1:
                feasible = False
                break
            arrow_img[name] = cell.a[:, 0]
        if not feasible:
            continue
        images = []
        vertex_set = {(v,) for v in pres.vertices}
        for path in qa.basis_paths:
            if path in vertex_set:
                images.append(b.idempotents[perm[vertex_pos[path[0]]]])
            else:
                vec = arrow_img[path[-1]]
                for name in list(path[:-1])[::-1]:
                    vec = multiply(b, arrow_img[name], vec)
                images.append(vec)
        phi = PrimeMatrix(b.field, np.array(images, dtype=np.int64).T)
        if not phi.is_invertible():
            continue
        multiplicative = True
        for i in range(qa.dim):
            for j in range(qa.dim):
                want = (phi.a @ qa.mult[i, j]) % b.field.p
                got = multiply(b, images[i], images[j])
                if not np.array_equal(want, got):
                    multiplicative = False
                    break
            if not multiplicative:
                break
        if multiplicative:
            return True
    return False


def test_criterion_4_endomorphism_identification(loaded_corpus):
    k2 = loaded_corpus["k2"].algebra
    std = standard_modules(k2)
    dm = DirectSum(k2, [std.regular, std.simples[0]])
    endo = endomorphism_algebra(dm)
    ok = endo.algebra.dim == 5 and _aus_isomorphism_after_normalization(loaded_corpus["aus"], endo.algebra)
    criterion(
        4,
        "End over k2 of (regular+S) has dim 5 and matches the quiver build of aus",
        ok,
        "structure constants matched through an explicit isomorphism",
    )


def test_criterion_5_tensor_products(loaded_corpus):
    k2 = loaded_corpus["k2"].algebra
    ka2 = loaded_corpus["ka2"].algebra
    k = loaded_corpus["k"].algebra
    r1 = kunneth_check(k2, k2, 6)
    c1 = r1.witness["seq_c"]
    d1 = r1.witness["domdim_c"]
    r2 = kunneth_check(ka2, k2, 6)
    ok = (
        r1.verdict == "pass"
        and d1 == "infinity-certified"
        and c1[0] == 4
        and c1[1:] == [0] * 6
        and r2.verdict == "pass"
        and r2.witness["domdim_c"] == "1"
    )
    for a, bb in [(k2, k2), (ka2, k2), (k2, k), (ka2, k)]:
        r = kunneth_check(a, bb, 6)
        ok = ok and r.witness["convolution"] == r.witness["seq_c"]
    criterion(
        5,
        "tensor products: min rule for dominant dimension and exact convolution identity",
        ok,
        f"k2xk2: Hom = {c1[0]}, Ext 1..6 = {c1[1:]}, domdim = {d1}; ka2xk2 domdim = "
        f"{r2.witness['domdim_c']}",
    )


def test_criterion_6_three_sequences(loaded_corpus):
    ok = True
    details = []
    for name in ("k", "k2", "ka2"):
        r = remark32_check(loaded_corpus[name].algebra, 4)
        ok = ok and r.verdict == "pass"
        details.append(f"{name}: {r.witness['seq_dual_regular'][1:]}")
    criterion(
        6,
        "the three Ext sequences agree in degrees 1..4 for k, k2, ka2",
        ok,
        "; ".join(details),
    )


def test_criterion_7_dominant_dimensions(loaded_corpus):
    want = {
        "k2": "infinity-certified",
        "k3": "infinity-certified",
        "k4": "infinity-certified",
        "ka2": "1",
        "ka3": "1",
        "aus": "2",
    }
    got = {name: str(dominant_dimension(loaded_corpus[name].algebra, 6)) for name in want}
    ok = got == want
    criterion(7, "dominant dimension table", ok, str(got))


def test_criterion_9_property_suites(loaded_corpus):
    ok = True
    # rank-nullity over seeded random matrices
    rng = np.random.default_rng(2024)
    from quivalg.linalg import PrimeField

    f = PrimeField(32003)
    for _ in range(50):
        rows, cols = rng.integers(1, 9, size=2)
        m = PrimeMatrix(f, rng.integers(0, 32003, size=(rows, cols)))
        _, rank, _ = rref(m)
        ok = ok and rank + nullspace(m).cols == cols
    checked = {"rank_nullity": True}
    # Yoneda, duality symmetry, minimality witness, Nakayama consistency
    for name, loaded in loaded_corpus.items():
        a = loaded.algebra
        std = standard_modules(a)
        mods = corpus_modules(a, max_dim=6)
        for m in mods:
            for i, p in enumerate(std.projectives):
                lhs = HomSpace(p, m).dim
                rhs = PrimeMatrix(a.field, m.act(a.idempotents[i])).rank()
                ok = ok and lhs == rhs
        for m, n in itertools.product(mods[:4], mods[:4]):
            ok = ok and HomSpace(m, n).dim == HomSpace(dualize(n), dualize(m)).dim
        for m in corpus_modules(a, max_dim=4):
            res = minimal_resolution(m, 3)
            for j, s in enumerate(std.simples):
                dims = ext_dims(m, s, 3).dims
                for i in range(4):
                    ok = ok and dims[i] == res.term_summands[i].count(j)
            nk = nakayama(m)
            ok = ok and Morphism(nk.module, nk.hom_route, nk.eta).is_iso()
    checked.update(
        yoneda=True, duality_symmetry=True, minimality_witness=True, nakayama_routes=True
    )
    criterion(9, "property suites over the whole corpus", ok, ",".join(checked))


GOLDEN_CORPUS_RUN = Path(__file__).parent / "data" / "corpus_run_machine.txt"


def _without_engine_line(text):
    return [line for line in text.splitlines() if not line.startswith("engine = ")]


def test_criterion_10_determinism(capsys, tmp_path):
    def corpus_run(extra=()):
        code = cli_main(["corpus", "run", "--machine", *extra])
        out = capsys.readouterr().out
        return code, out

    _, first = corpus_run()
    _, second = corpus_run()
    cat = str(tmp_path / "cat")
    _, third = corpus_run(("--catalog", cat))
    ok = first == second == third
    # the recorded output of an earlier engine; a refactor must reproduce it
    # (the engine version line may change with the engine)
    golden = GOLDEN_CORPUS_RUN.read_text(encoding="utf-8")
    ok = ok and _without_engine_line(first) == _without_engine_line(golden)
    # cached single commands reproduce the RESULTS block byte for byte
    cli_main(["domdim", "aus", "--machine"])
    plain = capsys.readouterr().out
    cli_main(["domdim", "aus", "--machine", "--catalog", cat])
    miss = capsys.readouterr().out
    cli_main(["domdim", "aus", "--machine", "--catalog", cat])
    hit = capsys.readouterr().out
    ok = ok and plain == miss == hit
    criterion(10, "byte-identical corpus runs, equal to the recorded run; cache changes no byte", ok)
