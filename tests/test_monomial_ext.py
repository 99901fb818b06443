"""Ext between simples of monomial algebras: the engine's minimal
resolutions against the path recursion of ``monomial_paths``, a route that
has no size budget, unlike the bar oracle."""

import itertools

import numpy as np
import pytest

from quivalg import corpus
from quivalg.algebra import QuiverPresentation, build_from_quiver
from quivalg.checks import bar_ext_oracle
from quivalg.errors import BudgetError
from quivalg.homology import ext_dims
from quivalg.linalg import PrimeField
from quivalg.modules import standard_modules

from monomial_paths import MonomialPaths


def engine_ext(algebra, vertices, cutoff):
    simples = standard_modules(algebra).simples
    return {
        (v, w): ext_dims(simples[i], simples[j], cutoff).dims
        for (i, v), (j, w) in itertools.product(enumerate(vertices), repeat=2)
    }


@pytest.mark.parametrize("name", ["k", "k2", "k3", "k4", "ka2", "ka3"])
def test_monomial_corpus_entries(name):
    loaded = corpus.load_entry(name)
    doc = loaded.doc
    paths = MonomialPaths(doc.vertices, doc.arrows, doc.relations)
    assert engine_ext(loaded.algebra, doc.vertices, 8) == paths.ext_dims(8)


def test_cyclic_nakayama_past_the_bar_oracle():
    # 10 vertices, rad^6 = 0: every path of length 6 is a relation
    n, length = 10, 6
    verts = tuple(str(i) for i in range(n))
    arrows = tuple((f"a{i}", str(i), str((i + 1) % n)) for i in range(n))
    relations = tuple(((1, tuple(f"a{(i + j) % n}" for j in reversed(range(length)))),) for i in range(n))
    pres = QuiverPresentation(verts, arrows, relations, length - 1)
    a = build_from_quiver(pres, PrimeField(32003))
    s = standard_modules(a).simples
    with pytest.raises(BudgetError):
        bar_ext_oracle(s[0], s[0], 12)
    want = MonomialPaths(verts, arrows, relations).ext_dims(12)
    assert engine_ext(a, verts, 12) == want
    # Omega^2 S(i) = S(i + 6): Ext^n(S(0), -) is one simple per degree
    assert want[("0", "6")][2] == want[("0", "2")][4] == 1
    assert all(sum(want[("0", w)][k] for w in verts) == 1 for k in range(13))


def random_monomial(rng):
    """A monomial bound quiver: 1-3 vertices, 1-4 arrows, random relations
    of length 2..bound, and every path of length bound + 1 that survives
    them, since ``build_from_quiver`` checks nilpotency and does not
    truncate."""
    verts = [str(i) for i in range(rng.integers(1, 4))]
    arrows = [(f"a{i}", str(rng.choice(verts)), str(rng.choice(verts))) for i in range(rng.integers(1, 5))]
    bound = int(rng.integers(1, 4))
    paths = MonomialPaths(verts, arrows, ())
    relations = []
    level = [(name,) for name, _, _ in arrows]
    for length in range(2, bound + 2):
        level = [q + (b,) for q in level for b in paths.leaving[paths.target[q[-1]]]]
        level = [q for q in level if not paths.ends_in_relation(q)]
        for q in level:
            if length == bound + 1 or rng.random() < 0.3:
                paths.relations.add(q)
                paths.longest = length
                relations.append(((1, tuple(reversed(q))),))
        level = [q for q in level if q not in paths.relations]
    return QuiverPresentation(tuple(verts), tuple(arrows), tuple(relations), bound)


def test_random_monomial_quivers():
    # the growth the recursion predicts is capped before the engine runs:
    # draws like six loops with rad^2 = 0 would resolve into gigabytes
    rng = np.random.default_rng(20260)
    cutoff, checked = 6, 0
    while checked < 40:
        pres = random_monomial(rng)
        paths = MonomialPaths(pres.vertices, pres.arrows, pres.relations)
        dims = {v: paths.nonzero_paths(v) for v in pres.vertices}
        size = sum(c * dims[w] for v in pres.vertices for b in paths.betti(v, cutoff + 1) for w, c in b.items())
        if sum(dims.values()) > 30 or size > 3000:
            continue
        a = build_from_quiver(pres, PrimeField(32003))
        assert engine_ext(a, pres.vertices, cutoff) == paths.ext_dims(cutoff), pres
        checked += 1
