"""Ext between the simples of a monomial algebra kQ/I by path recursion: a
third Ext route, which shares no code with the engine (Green, Happel and
Zacharia, "Projective resolutions over Artin algebras with zero relations",
Illinois J. Math. 29, 1985; Bardzell, J. Algebra 188, 1997).

Paths are tuples of arrow names in travel order, the reverse of the
composition order in which a relation is written.  A path is zero in kQ/I
iff it contains a relation.  The minimal projective resolution of S(v) has
one summand P(w) in degree n for each level-n path ending at w:
- level 0 is the trivial path at v, and level 1 the arrows leaving v;
- the children of a level-n path p are the nonzero paths q from the end of
  p such that pq is zero but pq' is nonzero for every proper prefix q' of q.
So dim Ext^n(S(v), S(w)) is the number of level-n paths ending at w.  Level
paths are nonzero, so there are finitely many, and the recursion runs on
their counts.
"""

from collections import Counter


class MonomialPaths:
    """The path recursion of kQ/I, from the vertices, arrows and monomial
    relations of a ``QuiverPresentation`` or an ``AlgebraDoc``."""

    def __init__(self, vertices, arrows, relations):
        self.vertices = list(vertices)
        self.target = {name: tgt for name, _, tgt in arrows}
        self.leaving = {v: [name for name, src, _ in arrows if src == v] for v in self.vertices}
        self.relations = set()
        for rel in relations:
            assert len(rel) == 1, "not a monomial relation"
            self.relations.add(tuple(reversed(rel[0][1])))
        self.longest = max(map(len, self.relations), default=0)
        self._children: dict[tuple, list[tuple]] = {}

    def ends_in_relation(self, path: tuple) -> bool:
        """Whether some relation is a suffix of path: for a path whose proper
        prefixes are nonzero, whether it is zero."""
        return any(path[-k:] in self.relations for k in range(2, min(len(path), self.longest) + 1))

    def children(self, p: tuple) -> list[tuple]:
        if p not in self._children:
            out, stack = [], [(b,) for b in self.leaving[self.target[p[-1]]]]
            while stack:
                q = stack.pop()
                if self.ends_in_relation(q):
                    continue  # q is zero, and so is every path through it
                if self.ends_in_relation(p + q):
                    out.append(q)
                else:
                    stack.extend(q + (b,) for b in self.leaving[self.target[q[-1]]])
            self._children[p] = sorted(out)
        return self._children[p]

    def betti(self, v: str, depth: int) -> list[Counter]:
        """Per degree n = 0..depth, the multiplicity of each vertex w among
        the summands P(w) of the minimal resolution of S(v)."""
        level = Counter((b,) for b in self.leaving[v])
        out = [Counter({v: 1})]
        for _ in range(depth):
            out.append(Counter())
            for p, count in level.items():
                out[-1][self.target[p[-1]]] += count
            nxt = Counter()
            for p, count in level.items():
                for q in self.children(p):
                    nxt[q] += count
            level = nxt
        return out

    def ext_dims(self, cutoff: int) -> dict[tuple[str, str], list[int]]:
        """dim Ext^n(S(v), S(w)) for n = 0..cutoff, for every pair (v, w)."""
        betti = {v: self.betti(v, cutoff) for v in self.vertices}
        return {(v, w): [b[w] for b in betti[v]] for v in self.vertices for w in self.vertices}

    def nonzero_paths(self, v: str) -> int:
        """dim P(v): the nonzero paths starting at v, the trivial one too."""
        count, stack = 1, [(b,) for b in self.leaving[v]]
        while stack:
            q = stack.pop()
            if not self.ends_in_relation(q):
                count += 1
                stack.extend(q + (b,) for b in self.leaving[self.target[q[-1]]])
        return count
