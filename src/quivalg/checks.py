"""Verification harness: an independent Ext oracle and the theorem checks.

The oracle computes Ext through a non-minimal bar-type chain: the normalized
resolution with terms A (x)_S J (x)_S ... (x)_S J (x)_S m, where S is the
span of the idempotents and J the radical.  Tensoring over S instead of k
keeps the chain spaces small enough to sweep while staying a genuine second
route: no projective covers are involved, exactness comes from an explicit
contracting homotopy, and cohomology is read off by ranks.  Each coboundary
is built as (row, column, value) triplets, never as a dense matrix, and
ranked by the oracle's own sparse elimination mod p, which no engine route
shares: a defect in the engine's rank cannot cancel out between the routes.

What depends on one argument alone is built once and memoized on it: the
graded radical and its product table in ``Algebra.memo["bar_graded"]``; a
module's graded basis and the graded action of the radical on it in
``ModuleRep.memo["bar_graded"]``; the chain spaces W_i of m and the
differentials D_i, which depend on m and the cutoff but not on n, in
``ModuleRep.memo["bar_chains"][cutoff]``.  A sweep over pairs (m, n) then
builds only the coboundaries.  The budget is a property of the call, not of
the memo, so every call checks the chain dimensions against its own budget,
hit or miss, and refuses exactly as a call on fresh objects would.

Each theorem check compares dimensions, never isomorphism verdicts, and
reports a concrete witness on failure.  Claims quantified over all degrees
are checked up to a cutoff and say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import Algebra, column_span_basis, enveloping, tensor_product
from .errors import BudgetError, InputError, InternalCheckError
from .homology import (
    DomDimEvidence,
    ExtTable,
    dominant_dimension,
    endomorphism_algebra,
    ext_dims,
    gen_cogen,
    id_bounded,
    is_injective,
    is_projective,
    nakayama,
    pd_bounded,
)
from .linalg import PrimeMatrix, coordinates, mulmod
from .modules import (
    DirectSum,
    ModuleRep,
    enveloping_module,
    regular_module,
    standard_modules,
)

__all__ = [
    "CheckReport",
    "DEFAULT_BUDGET",
    "bar_ext_oracle",
    "muller_check",
    "wg_lemma_check",
    "remark32_check",
    "kunneth_check",
    "diamond",
    "nc_evidence_scan",
    "thick_shadow_check",
]

DEFAULT_BUDGET = 2000  # largest chain or cochain dimension the oracle will build


@dataclass
class CheckReport:
    """Outcome of one named check; failures always carry a witness."""

    check_id: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    inputs: dict[str, str]
    witness: dict = dc_field(default_factory=dict)

    def results_items(self) -> list[tuple[str, str]]:
        items = [("check", self.check_id), ("verdict", self.verdict)]
        for key in sorted(self.inputs):
            items.append((f"input.{key}", self.inputs[key]))
        for key in sorted(self.witness):
            items.append((key, _fmt_value(self.witness[key])))
        return items


def _fmt_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


# ---------------------------------------------------------------------------
# the bar-type Ext oracle


class _GradedData:
    """Idempotent-graded basis of the radical and its product table, built
    once per algebra (``_graded_data``)."""

    def __init__(self, a: Algebra):
        self.algebra = a
        p = a.field.p
        nv = len(a.idempotents)
        rad = a.radical()
        # graded radical basis: cells e_u J e_v
        self.j_vectors: list[np.ndarray] = []
        self.j_tags: list[tuple[int, int]] = []
        for u in range(nv):
            lu = a.left_mult(a.idempotents[u])
            for v in range(nv):
                rv = a.right_mult(a.idempotents[v])
                moved = mulmod(mulmod(lu, rv, p), rad.a, p)
                cell = column_span_basis(PrimeMatrix(a.field, moved))
                self.j_vectors.extend(cell.a.T.copy())
                self.j_tags += [(u, v)] * cell.cols
        if len(self.j_vectors) != rad.cols:
            raise InternalCheckError("radical does not split into idempotent cells")
        # product table: j_i * j_j expanded over the target cell, every
        # product landing in one cell read at once.  prods[i, :, j] = j_i * j_j
        d, r = a.dim, len(self.j_vectors)
        js = np.array(self.j_vectors, dtype=np.int64).reshape(r, d)
        left = mulmod(js, a.mult.reshape(d, d * d), p).reshape(r, d, d).transpose(0, 2, 1)
        prods = mulmod(left.reshape(r * d, d), js.T, p).reshape(r, d, r)
        self.products: dict[tuple[int, int], list[tuple[int, int]]] = {}
        tags = np.array(self.j_tags, dtype=np.int64).reshape(r, 2)
        composable = tags[:, 1, None] == tags[None, :, 0]
        for u in range(nv):
            for v in range(nv):
                i, j = np.nonzero(composable & (tags[:, 0, None] == u) & (tags[None, :, 1] == v))
                if i.size == 0:
                    continue
                members = np.flatnonzero((tags[:, 0] == u) & (tags[:, 1] == v))
                coords = coordinates(PrimeMatrix(a.field, js[members].T)).read(prods[i, :, j].T)
                if coords is None:
                    raise InternalCheckError(
                        "radical product not in the radical" if members.size else "radical product left its cell"
                    )
                for col, pair in enumerate(zip(i.tolist(), j.tolist())):
                    nz = np.flatnonzero(coords[:, col])
                    self.products[pair] = list(zip(members[nz].tolist(), coords[nz, col].tolist()))


def _graded_data(a: Algebra) -> _GradedData:
    if "bar_graded" not in a.memo:
        a.memo["bar_graded"] = _GradedData(a)
    return a.memo["bar_graded"]


@dataclass(frozen=True)
class _GradedModule:
    """A module in its graded basis: per-vertex bases of the cells e_v m."""

    tags: np.ndarray  # vertex of each graded basis vector, ascending
    act: np.ndarray  # act[j]: radical basis element j in graded coordinates


def _graded_module(g: _GradedData, m: ModuleRep) -> _GradedModule:
    if "bar_graded" in m.memo:
        return m.memo["bar_graded"]
    a = g.algebra
    p = a.field.p
    cells = [column_span_basis(PrimeMatrix(a.field, m.act(e))).a for e in a.idempotents]
    tags = np.repeat(np.arange(len(cells)), [c.shape[1] for c in cells])
    if tags.size != m.dim:
        raise InternalCheckError("module does not split into idempotent cells")
    basis = np.hstack(cells)
    reader = coordinates(PrimeMatrix(a.field, basis))
    if reader is None:
        raise InternalCheckError("module does not split into idempotent cells")
    js = np.array(g.j_vectors, dtype=np.int64).reshape(-1, a.dim)
    acts = mulmod(js, m.action.reshape(a.dim, -1), p).reshape(len(js), m.dim, m.dim)
    # act[j] = basis^-1 acts[j] basis: all radical elements in one read
    moved = mulmod(acts.reshape(len(js) * m.dim, m.dim), basis, p).reshape(len(js), m.dim, m.dim)
    graded = reader.read(moved.transpose(1, 0, 2).reshape(m.dim, len(js) * m.dim))
    m.memo["bar_graded"] = _GradedModule(tags, graded.reshape(m.dim, len(js), m.dim).transpose(1, 0, 2))
    return m.memo["bar_graded"]


@dataclass(frozen=True)
class _BarChains:
    """The chain spaces W_0, ..., W_{cutoff+1} of a module and the
    differentials D_i: W_{i+1} -> W_i between them.

    W_0 is the graded basis of the module.  A chain of W_{i+1} in e_u W_{i+1}
    is a radical basis element j in e_u J e_v (its head) followed by a chain
    of W_i in e_v W_i (its tail); chains are ordered by head, then tail.
    """

    tags: list[np.ndarray]  # tags[i][c]: the vertex u with chain c of W_i in e_u W_i
    heads: list[np.ndarray]  # heads[i] and tails[i], for i >= 1
    tails: list[np.ndarray]
    diffs: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # nonzeros of D_i: rows, columns, values


def _check_budget(dim: int, budget: int):
    if dim > budget:
        raise BudgetError(f"bar oracle chain dimension {dim} exceeds budget {budget}")


def _matches(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position of the sorted keys equal to some wanted[c], laid end
    to end: the index c of each match, and its position."""
    lo = np.searchsorted(keys, wanted)
    counts = np.searchsorted(keys, wanted, side="right") - lo
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, lo[owner] + np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _bar_chains(g: _GradedData, gm: _GradedModule, cutoff: int, budget: int) -> _BarChains:
    """Each D_i (i >= 1) is built as triplets from those of D_{i-1}, never
    as a dense array: per chain (j, t) of W_{i+1}, the merge of j with the
    head of t at the tail of t, minus j tensor the column t of D_{i-1}."""
    p = g.algebra.field.p
    j_tags = np.array(g.j_tags, dtype=np.int64).reshape(-1, 2)
    r = len(j_tags)
    tags, heads, tails = [gm.tags], [None], [None]
    for i in range(cutoff + 1):
        parts = [np.flatnonzero(tags[i] == v) for v in j_tags[:, 1]]
        tail = np.concatenate([np.zeros(0, dtype=np.intp)] + parts)
        _check_budget(tail.size, budget)
        head = np.repeat(np.arange(len(parts)), [x.size for x in parts])
        tags.append(j_tags[head, 0])
        heads.append(head)
        tails.append(tail)
    # the terms (target, coefficient) of each product j*h, ordered by j*r + h
    table = sorted(g.products.items())
    keys = np.array([j * r + h for (j, h), ts in table for _ in ts], dtype=np.int64)
    terms = np.array([t for _, ts in table for t in ts], dtype=np.int64).reshape(-1, 2)
    diffs = []
    for i in range(cutoff + 1):
        head, tail = heads[i + 1], tails[i + 1]
        if i == 0:
            # the radical element acting on the graded module basis
            d = gm.act[head, :, tail].T
            rows, cols = np.nonzero(d)
            diffs.append((rows, cols, d[rows, cols]))
        else:
            pos = np.zeros((r, tags[i - 1].size), dtype=np.intp)
            pos[heads[i], tails[i]] = np.arange(tags[i].size)
            # merge of the first two radical slots
            col, at = _matches(keys, head * r + heads[i][tail])
            merge_rows = pos[terms[at, 0], tails[i][tail[col]]]
            # minus the head tensor the previous differential of the tail
            prev_rows, prev_cols, prev_vals = diffs[-1]
            by_col = np.argsort(prev_cols, kind="stable")
            col2, at2 = _matches(prev_cols[by_col], tail)
            at2 = by_col[at2]
            diffs.append(_summed(
                np.concatenate([merge_rows, pos[head[col2], prev_rows[at2]]]),
                np.concatenate([col, col2]),
                np.concatenate([terms[at, 1], -prev_vals[at2]]),
                head.size, p,
            ))
        rows, cols, _ = diffs[-1]
        if (tags[i][rows] != tags[i + 1][cols]).any():
            raise InternalCheckError("bar differential left its grading cell")
    return _BarChains(tags, heads, tails, diffs)


def _summed(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, ncols: int, p: int):
    """The triplets with duplicates summed mod p and zeros dropped, in
    row-major order, as ``np.nonzero`` lists a dense matrix."""
    key = rows * ncols + cols
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(vals, first) % p if key.size else vals
    key = key[first][sums != 0]
    return key // ncols, key % ncols, sums[sums != 0]


def _sparse_rank(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, p: int) -> int:
    """Rank mod p of the matrix given by (row, column, value) triplets.

    Duplicate triplets are summed mod p and zeros dropped; each row is a
    ``{column: value}`` dict.  Rows are taken sparsest first, and each is
    reduced by the pivot rows found so far at its leading column until it
    vanishes or leads at a new pivot column.  Python ints keep it exact for
    every p.
    """
    table: dict[int, dict[int, int]] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        row = table.setdefault(r, {})
        row[c] = row.get(c, 0) + v
    pivots: dict[int, dict[int, int]] = {}  # leading column -> rest of its row, scaled to lead 1
    cleaned = ({c: v % p for c, v in row.items() if v % p} for row in table.values())
    for row in sorted(cleaned, key=len):
        while row:
            lead = min(row)
            f = row.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(f, -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            for c, v in pivot.items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


def bar_ext_oracle(
    m: ModuleRep, n: ModuleRep, cutoff: int, budget: int = DEFAULT_BUDGET
) -> ExtTable:
    """Ext dims of (m, n) through the bar-type radical chain, as an oracle
    independent of minimal resolutions.

    Each coboundary is (row, column, value) triplets, ranked by the
    oracle's own sparse elimination ``_sparse_rank``, which no engine route
    shares.

    Raises BudgetError when a chain or cochain space would exceed ``budget``;
    the chains come from the memo, and their dimensions are checked on every
    call.
    """
    a = m.algebra
    if a.content_hash() != n.algebra.content_hash():
        raise InputError("oracle needs modules over the same algebra")
    if cutoff < 0:
        raise InputError("cutoff must be nonnegative")
    p = a.field.p
    g = _graded_data(a)
    gm = _graded_module(g, m)
    gn = _graded_module(g, n)
    chains = m.memo.setdefault("bar_chains", {})
    if cutoff not in chains:
        chains[cutoff] = _bar_chains(g, gm, cutoff, budget)
    ch = chains[cutoff]
    for tags in ch.tags[1:]:
        _check_budget(tags.size, budget)

    # cochain spaces C^i = Hom_S(W_i, n): one block of e_u n per chain in e_u W_i
    n_dims = np.bincount(gn.tags, minlength=len(a.idempotents))
    n_starts = np.cumsum(n_dims) - n_dims
    offsets: list[np.ndarray] = []
    cdims: list[int] = []
    for tags in ch.tags:
        sizes = n_dims[tags]
        offsets.append(np.cumsum(sizes) - sizes)
        cdims.append(int(sizes.sum()))
        _check_budget(cdims[-1], budget)

    ranks = []
    for i in range(cutoff + 1):
        # delta_i: C^i -> C^{i+1} as (row, column, value) triplets
        rs, cs, vs = [], [], []
        # term  +(first slot acts on the value): for j in e_u J e_v one block
        # of its action e_v n -> e_u n, at every chain with head j (these
        # chains are consecutive, since chains are ordered by head)
        bounds = np.searchsorted(ch.heads[i + 1], np.arange(len(g.j_tags) + 1))
        for j, (u, v) in enumerate(g.j_tags):
            at = slice(bounds[j], bounds[j + 1])
            out, into = slice(n_starts[u], n_starts[u] + n_dims[u]), slice(n_starts[v], n_starts[v] + n_dims[v])
            block = gn.act[j, out, into]
            br, bc = np.nonzero(block)
            rs.append((offsets[i + 1][at][:, None] + br).ravel())
            cs.append((offsets[i][ch.tails[i + 1][at]][:, None] + bc).ravel())
            vs.append(np.tile(block[br, bc], bounds[j + 1] - bounds[j]))
        # term  -(f o D_i): for each vertex u, a scaled identity on e_u n at
        # every nonzero of D_i between chains in e_u W
        rows, cols, vals = ch.diffs[i]
        for u, s in enumerate(n_dims):
            at = ch.tags[i][rows] == u
            rs.append((offsets[i + 1][cols[at]][:, None] + np.arange(s)).ravel())
            cs.append((offsets[i][rows[at]][:, None] + np.arange(s)).ravel())
            vs.append(-np.repeat(vals[at], s))
        ranks.append(_sparse_rank(np.concatenate(rs), np.concatenate(cs), np.concatenate(vs), p))
    dims = [cdims[0] - ranks[0]]
    for i in range(1, cutoff + 1):
        dims.append(cdims[i] - ranks[i] - ranks[i - 1])
    return ExtTable(dims)


# ---------------------------------------------------------------------------
# Mueller correspondence


def muller_check(lam: Algebra, dm: DirectSum, cutoff: int) -> CheckReport:
    """Dominant dimension of End(m) against the first self-extension degree."""
    if not gen_cogen(dm):
        raise InputError("muller check needs a generator-cogenerator")
    inputs = {"algebra": lam.content_hash()[:16], "module": dm.content_hash()[:16]}
    endo = endomorphism_algebra(dm)
    table = ext_dims(dm, dm, max(cutoff - 2, 1))
    e = None
    for i in range(1, max(cutoff - 2, 0) + 1):
        if table.dims[i]:
            e = i
            break
    d = dominant_dimension(endo.algebra, cutoff)
    witness = {
        "ext_self": table.dims,
        "first_ext_failure": "none" if e is None else e,
        "domdim_endo": str(d),
        "endo_dim": endo.algebra.dim,
    }
    if e is not None:
        ok = d.kind == "exact" and d.value == e + 1
    else:
        ok = d.kind in ("at-least", "infinity")
    return CheckReport("muller", "pass" if ok else "fail", inputs, witness)


# ---------------------------------------------------------------------------
# the endomorphism-algebra Ext comparison (dimension shadow of the
# coresolution identity)


def wg_lemma_check(lam: Algebra, dm: DirectSum, cutoff: int) -> CheckReport:
    """Compare dim Ext^n_B(D(B), B) with dim Ext^n_Lam(nu(m), m) degreewise,
    for B = End(m); also evaluate the orthogonality biconditional at the
    cutoff.

    The degreewise identity is promised only for self-orthogonal m, that
    is, when B has infinite dominant dimension.  On any other
    generator-cogenerator a "fail" verdict is a mathematical outcome, not a
    defect: for m = regular+S over k[x]/(x^2) the left side vanishes above
    the global dimension 2 of B while the right side stays 1 in every
    positive degree.  The biconditional is expected to agree either way."""
    if not gen_cogen(dm):
        raise InputError("check needs a generator-cogenerator")
    inputs = {"algebra": lam.content_hash()[:16], "module": dm.content_hash()[:16]}
    endo = endomorphism_algebra(dm)
    b = endo.algebra
    std_b = standard_modules(b)
    lhs = ext_dims(std_b.coregular, std_b.regular, cutoff).dims
    nu_m = nakayama(dm).module
    rhs = ext_dims(nu_m, dm, cutoff).dims
    mismatch = next((i for i in range(cutoff + 1) if lhs[i] != rhs[i]), None)
    # statement-level biconditional at the cutoff
    dd = dominant_dimension(b, cutoff)
    left_side = dd.at_least(cutoff) and all(x == 0 for x in lhs[1:])
    ext_mm = ext_dims(dm, dm, cutoff).dims
    ext_num = rhs
    right_side = all(x == 0 for x in ext_mm[1:]) and all(x == 0 for x in ext_num[1:])
    witness = {
        "lhs_dims": lhs,
        "rhs_dims": rhs,
        "first_mismatch": "none" if mismatch is None else mismatch,
        "domdim_endo": str(dd),
        "biconditional_left": left_side,
        "biconditional_right": right_side,
        "biconditional_agrees": left_side == right_side,
    }
    verdict = "pass" if mismatch is None else "fail"
    return CheckReport("wg-lemma", verdict, inputs, witness)


# ---------------------------------------------------------------------------
# the three Ext sequences of the minimal generator-cogenerator remark


def remark32_check(b: Algebra, cutoff: int, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Ext_B(B+D(B), B+D(B)), Ext_B(D(B), B) and Ext over the enveloping
    algebra of (B, B(x)B) must agree in degrees 1..cutoff."""
    if b.dim * b.dim > budget:
        raise BudgetError(
            f"enveloping algebra dimension {b.dim * b.dim} exceeds budget {budget}"
        )
    inputs = {"algebra": b.content_hash()[:16]}
    std = standard_modules(b)
    both = DirectSum(b, [std.regular, std.coregular])
    seq1 = ext_dims(both, both, cutoff).dims
    seq2 = ext_dims(std.coregular, std.regular, cutoff).dims
    env = enveloping(b)
    b_as_env = enveloping_module(b, env)
    seq3 = ext_dims(b_as_env, regular_module(env), cutoff).dims
    mismatch = None
    for i in range(1, cutoff + 1):
        if not (seq1[i] == seq2[i] == seq3[i]):
            mismatch = i
            break
    witness = {
        "seq_gen_cogen": seq1,
        "seq_dual_regular": seq2,
        "seq_enveloping": seq3,
        "first_mismatch": "none" if mismatch is None else mismatch,
        "enveloping_module_structure": "outer",
    }
    return CheckReport("remark32", "pass" if mismatch is None else "fail", inputs, witness)


# ---------------------------------------------------------------------------
# tensor products: the convolution identity and min rule


def _evidence_min(x: DomDimEvidence, y: DomDimEvidence, cutoff: int) -> DomDimEvidence:
    exact = [e for e in (x, y) if e.kind == "exact"]
    if exact:
        return DomDimEvidence("exact", min(e.value for e in exact))
    if x.kind == "at-least" or y.kind == "at-least":
        return DomDimEvidence("at-least", cutoff)
    return DomDimEvidence("infinity", None)


def kunneth_check(a: Algebra, b: Algebra, cutoff: int, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """On C = A (x) B: the Ext(D, regular) sequence is the convolution of the
    factor sequences, and dominant-dimension evidence is the minimum."""
    if a.dim * b.dim > budget:
        raise BudgetError(f"tensor dimension {a.dim * b.dim} exceeds budget {budget}")
    inputs = {"algebra_a": a.content_hash()[:16], "algebra_b": b.content_hash()[:16]}
    c = tensor_product(a, b)
    seqs = {}
    for key, alg in (("a", a), ("b", b), ("c", c)):
        std = standard_modules(alg)
        seqs[key] = ext_dims(std.coregular, std.regular, cutoff).dims
    conv = [
        sum(seqs["a"][p0] * seqs["b"][n - p0] for p0 in range(n + 1))
        for n in range(cutoff + 1)
    ]
    conv_ok = conv == seqs["c"]
    da = dominant_dimension(a, cutoff)
    db = dominant_dimension(b, cutoff)
    dc = dominant_dimension(c, cutoff)
    want = _evidence_min(da, db, cutoff)
    dom_ok = dc == want
    witness = {
        "seq_a": seqs["a"],
        "seq_b": seqs["b"],
        "seq_c": seqs["c"],
        "convolution": conv,
        "convolution_ok": conv_ok,
        "domdim_a": str(da),
        "domdim_b": str(db),
        "domdim_c": str(dc),
        "domdim_expected": str(want),
        "domdim_ok": dom_ok,
    }
    verdict = "pass" if (conv_ok and dom_ok) else "fail"
    return CheckReport("kunneth", verdict, inputs, witness)


# ---------------------------------------------------------------------------
# the infinite-dominant-dimension-with-vanishing-Ext property


def diamond(a: Algebra, cutoff: int) -> CheckReport:
    """Evidence for: dominant dimension infinite and Ext^n(D(A), A) = 0 for
    n >= 1.  Grades: holds-certified, holds-at-cutoff, fails."""
    inputs = {"algebra": a.content_hash()[:16]}
    std = standard_modules(a)
    dd = dominant_dimension(a, cutoff)
    table = ext_dims(std.coregular, std.regular, cutoff).dims
    first_nonzero = next((i for i in range(1, cutoff + 1) if table[i]), None)
    witness = {
        "domdim": str(dd),
        "ext_dual_regular": table,
        "first_ext_nonzero": "none" if first_nonzero is None else first_nonzero,
    }
    if dd.kind == "exact" or first_nonzero is not None:
        witness["grade"] = "fails"
        return CheckReport("diamond", "fail", inputs, witness)
    if dd.kind == "infinity":
        witness["grade"] = "holds-certified"
        return CheckReport("diamond", "pass", inputs, witness)
    witness["grade"] = "holds-at-cutoff"
    return CheckReport("diamond", "inconclusive", inputs, witness)


def nc_evidence_scan(a: Algebra, cutoff: int) -> CheckReport:
    """Scan for tension with the self-injectivity conjecture: an algebra with
    diamond evidence that is not self-injective is flagged as a tension
    specimen (never a counterexample; the stronger hypothesis is untested)."""
    inputs = {"algebra": a.content_hash()[:16]}
    dia = diamond(a, cutoff)
    self_inj = dominant_dimension(a, cutoff).kind == "infinity"
    witness = {
        "diamond_grade": dia.witness["grade"],
        "self_injective": self_inj,
    }
    if dia.verdict != "fail" and not self_inj:
        witness["status"] = "tension-specimen"
        return CheckReport("nc-scan", "inconclusive", inputs, witness)
    witness["status"] = "consistent"
    return CheckReport("nc-scan", "pass", inputs, witness)


# ---------------------------------------------------------------------------
# finite shadows of the thick-subcategory description


def thick_shadow_check(
    a: Algebra, modules: list[tuple[str, ModuleRep]], cutoff: int
) -> CheckReport:
    """Under diamond evidence: modules with both dimensions finite must be
    projective-injective, and Ext^1 between the finite-pd and finite-id
    classes vanishes both ways (so degree-1 extensions split blockwise)."""
    inputs = {"algebra": a.content_hash()[:16]}
    dia = diamond(a, cutoff)
    if dia.verdict == "fail":
        return CheckReport(
            "thick-shadow",
            "inconclusive",
            inputs,
            {"status": "hypothesis-not-met", "diamond_grade": dia.witness["grade"]},
        )
    pd_finite, id_finite = [], []
    failures = []
    for name, mod in modules:
        pdb = pd_bounded(mod, cutoff)
        idb = id_bounded(mod, cutoff)
        if pdb.finite:
            pd_finite.append((name, mod))
        if idb.finite:
            id_finite.append((name, mod))
        if pdb.finite and idb.finite:
            if not (is_projective(mod) and is_injective(mod)):
                failures.append(f"{name}:not-projective-injective")
    for uname, u in pd_finite:
        for vname, v in id_finite:
            e_uv = ext_dims(u, v, 1).dims[1]
            e_vu = ext_dims(v, u, 1).dims[1]
            if e_uv or e_vu:
                failures.append(f"ext1({uname},{vname})={e_uv};ext1({vname},{uname})={e_vu}")
                continue
            both = DirectSum(a, [u, v])
            lhs = ext_dims(both, both, 1).dims[1]
            rhs = ext_dims(u, u, 1).dims[1] + ext_dims(v, v, 1).dims[1]
            if lhs != rhs:
                failures.append(f"additivity({uname},{vname}):{lhs}!={rhs}")
    witness = {
        "status": "checked",
        "pd_finite": [x[0] for x in pd_finite],
        "id_finite": [x[0] for x in id_finite],
        "failures": failures if failures else "none",
    }
    verdict = "pass" if not failures else "fail"
    return CheckReport("thick-shadow", verdict, inputs, witness)
