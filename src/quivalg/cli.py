"""Command-line entry points.

Every command prints a machine-readable RESULTS block (one ``key = value``
per line, terminated by END) followed by a human summary, suppressed by
--machine.  Output is byte-identical across runs for fixed inputs, flags and
seed; the modulus and seed always appear in the block so randomized
sub-verdicts are auditable.  Exit codes: 0 computed/pass, 1 check failed,
2 input error, 3 budget or unsupported field.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import catalog, corpus
from .algebra import tensor_product
from .checks import (
    DEFAULT_BUDGET,
    bar_ext_oracle,
    diamond,
    kunneth_check,
    muller_check,
    nc_evidence_scan,
    remark32_check,
    thick_shadow_check,
    wg_lemma_check,
)
from .errors import BudgetError, InputError, UnsupportedFieldError
from .homology import (
    dominant_dimension,
    endomorphism_algebra,
    ext_dims,
    gen_cogen,
    min_add_approximation,
    nakayama,
    self_orthogonal,
)

CHECK_IDS = [
    "muller",
    "wg-lemma",
    "remark32",
    "kunneth",
    "diamond",
    "nc-scan",
    "thick-shadow",
    "bar-oracle",
]


def _load_algebra(arg: str, field_override: Optional[int]) -> catalog.LoadedAlgebra:
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return catalog.load(fh.read(), field_override)
    stem = arg[:-4] if arg.endswith(".alg") else arg
    names = [e.name for e in corpus.ENTRIES]
    if stem in names:
        return corpus.load_entry(stem, field_override)
    raise InputError(f"no such file or corpus entry: {arg!r} (corpus: {', '.join(names)})")


def _emit(results: list[tuple[str, str]], human: list[str], machine: bool) -> None:
    print("RESULTS")
    for k, v in results:
        print(f"{k} = {v}")
    print("END")
    if not machine:
        for line in human:
            print(line)


def _header(args, command: str, loaded: Optional[catalog.LoadedAlgebra]) -> list[tuple[str, str]]:
    items = [
        ("command", command),
        ("engine", catalog.ENGINE_VERSION),
        ("field", str(loaded.algebra.field.p if loaded else args.field or catalog.DEFAULT_FIELD)),
        ("seed", str(args.seed)),
        ("cutoff", str(args.cutoff)),
    ]
    if loaded is not None:
        items.append(("input_hash", loaded.input_hash))
    return items


def _with_cache(args, key_name: str, loaded, extra: dict, compute):
    """Run ``compute`` through the invariant cache when a catalog is set."""
    use = args.catalog and not args.no_cache
    if use:
        key = catalog.record_key(
            key_name,
            loaded.input_hash if loaded else "none",
            args.cutoff,
            loaded.algebra.field.p if loaded else (args.field or catalog.DEFAULT_FIELD),
            args.seed,
            extra,
        )
        hit = catalog.cache_get(args.catalog, key)
        if hit is not None:
            return [(k, v) for k, v in hit["results"]], hit["exit"]
    results, code = compute()
    if use:
        catalog.cache_put(args.catalog, key, {"results": results, "exit": code})
    return results, code


# ---------------------------------------------------------------------------
# commands


def cmd_inspect(args) -> int:
    from .homology import is_injective
    from .modules import standard_modules

    loaded = _load_algebra(args.algebra, args.field)
    a = loaded.algebra
    named = catalog.named_modules(loaded)
    self_inj = all(is_injective(p) for p in standard_modules(a).projectives)
    results = _header(args, "inspect", loaded)
    results += [
        ("dim", str(a.dim)),
        ("idempotents", str(len(a.idempotents))),
        ("radical_dim", str(a.radical().cols)),
        ("self_injective", str(self_inj).lower()),
        ("labels", ",".join(a.labels)),
        ("modules", ",".join(f"{k}:{sum(x.dim for x in v)}" for k, v in sorted(named.items()))),
    ]
    _emit(results, [f"algebra of dimension {a.dim} with {len(a.idempotents)} idempotents"], args.machine)
    return 0


def cmd_domdim(args) -> int:
    loaded = _load_algebra(args.algebra, args.field)

    def compute():
        ev = dominant_dimension(loaded.algebra, args.cutoff)
        res = _header(args, "domdim", loaded) + [("value", str(ev))]
        return res, 0

    results, code = _with_cache(args, "domdim", loaded, {}, compute)
    _emit(results, [f"dominant dimension evidence: {dict(results)['value']}"], args.machine)
    return code


def cmd_ext(args) -> int:
    loaded = _load_algebra(args.algebra, args.field)

    def compute():
        m = catalog.resolve_expression(loaded, args.module).module
        n = catalog.resolve_expression(loaded, args.module2).module
        table = ext_dims(m, n, args.cutoff)
        res = _header(args, "ext", loaded) + [
            ("source", args.module),
            ("target", args.module2),
            ("dims", ",".join(str(x) for x in table.dims)),
        ]
        return res, 0

    results, code = _with_cache(
        args, "ext", loaded, {"m": args.module, "n": args.module2}, compute
    )
    _emit(results, [f"Ext dimensions 0..{args.cutoff}: {dict(results)['dims']}"], args.machine)
    return code


def cmd_selforth(args) -> int:
    loaded = _load_algebra(args.algebra, args.field)

    def compute():
        m = catalog.resolve_expression(loaded, args.module).module
        rep = self_orthogonal(m, args.cutoff)
        res = _header(args, "selforth", loaded) + [
            ("module", args.module),
            ("self_orthogonal", str(rep.self_orthogonal).lower()),
            ("first_nonzero_degree", "none" if rep.first_nonzero_degree is None else str(rep.first_nonzero_degree)),
            ("dims", ",".join(str(x) for x in rep.table.dims)),
        ]
        return res, 0

    results, code = _with_cache(args, "selforth", loaded, {"m": args.module}, compute)
    d = dict(results)
    _emit(results, [f"self-orthogonal: {d['self_orthogonal']} (first nonzero degree {d['first_nonzero_degree']})"], args.machine)
    return code


def cmd_gencogen(args) -> int:
    loaded = _load_algebra(args.algebra, args.field)

    def compute():
        m = catalog.resolve_expression(loaded, args.module).module
        flag = gen_cogen(m)
        res = _header(args, "gencogen", loaded) + [
            ("module", args.module),
            ("generator_cogenerator", str(flag).lower()),
        ]
        return res, 0

    results, code = _with_cache(args, "gencogen", loaded, {"m": args.module}, compute)
    _emit(results, [f"generator-cogenerator: {dict(results)['generator_cogenerator']}"], args.machine)
    return code


def cmd_nakayama(args) -> int:
    loaded = _load_algebra(args.algebra, args.field)

    def compute():
        m = catalog.resolve_expression(loaded, args.module).module
        nk = nakayama(m, seed=args.seed, trials=args.trials)
        res = _header(args, "nakayama", loaded) + [
            ("module", args.module),
            ("module_dim", str(m.dim)),
            ("nakayama_dim", str(nk.module.dim)),
            ("routes_agree", str(nk.consistency.isomorphic).lower()),
            ("iso_trials", str(nk.consistency.trials)),
        ]
        return res, 0

    results, code = _with_cache(args, "nakayama", loaded, {"m": args.module, "trials": str(args.trials)}, compute)
    d = dict(results)
    _emit(results, [f"Nakayama image dimension {d['nakayama_dim']} (routes agree: {d['routes_agree']})"], args.machine)
    return code


def cmd_endo(args) -> int:
    loaded = _load_algebra(args.algebra, args.field)

    def compute():
        dm = catalog.resolve_expression(loaded, args.module)
        endo = endomorphism_algebra(dm)
        res = _header(args, "endo", loaded) + [
            ("module", args.module),
            ("endo_dim", str(endo.algebra.dim)),
            ("endo_idempotents", str(len(endo.algebra.idempotents))),
            ("endo_radical_dim", str(endo.algebra.radical().cols)),
        ]
        return res, 0

    results, code = _with_cache(args, "endo", loaded, {"m": args.module}, compute)
    d = dict(results)
    _emit(results, [f"endomorphism algebra: dim {d['endo_dim']}, {d['endo_idempotents']} idempotents"], args.machine)
    return code


def cmd_approx(args) -> int:
    loaded = _load_algebra(args.algebra, args.field)

    def compute():
        m = catalog.resolve_expression(loaded, args.module).module
        x = catalog.resolve_expression(loaded, args.target).module
        ap = min_add_approximation(m, x)
        res = _header(args, "approx", loaded) + [
            ("module", args.module),
            ("target", args.target),
            ("copies", str(ap.copies)),
            ("source_dim", str(ap.morphism.source.dim)),
        ]
        return res, 0

    results, code = _with_cache(
        args, "approx", loaded, {"m": args.module, "x": args.target}, compute
    )
    _emit(results, [f"minimal right approximation uses {dict(results)['copies']} copies"], args.machine)
    return code


def cmd_tensor(args) -> int:
    la = _load_algebra(args.algebra, args.field)
    lb = _load_algebra(args.algebra2, args.field)
    t = tensor_product(la.algebra, lb.algebra)
    doc = catalog.doc_from_algebra(t)
    text = catalog.serialize(doc)
    results = _header(args, "tensor", la) + [
        ("input_hash_b", lb.input_hash),
        ("dim", str(t.dim)),
        ("idempotents", str(len(t.idempotents))),
        ("tensor_hash", doc.content_hash()),
    ]
    human = [f"tensor product has dimension {t.dim}"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        human.append(f"wrote {args.out}")
    _emit(results, human, args.machine)
    return 0


def _run_verify(args, loaded: catalog.LoadedAlgebra):
    check = args.check
    a = loaded.algebra
    if check == "muller":
        dm = catalog.resolve_expression(loaded, args.module)
        return muller_check(a, dm, args.cutoff)
    if check == "wg-lemma":
        dm = catalog.resolve_expression(loaded, args.module)
        return wg_lemma_check(a, dm, args.cutoff, seed=args.seed)
    if check == "remark32":
        return remark32_check(a, args.cutoff, budget=args.budget_dim)
    if check == "kunneth":
        if not args.algebra2:
            raise InputError("kunneth needs --algebra2")
        lb = _load_algebra(args.algebra2, args.field)
        return kunneth_check(a, lb.algebra, args.cutoff, budget=args.budget_dim)
    if check == "diamond":
        return diamond(a, args.cutoff)
    if check == "nc-scan":
        return nc_evidence_scan(a, args.cutoff)
    if check == "thick-shadow":
        names = [x.strip() for x in (args.modules or "regular").split(",")]
        named = catalog.named_modules(loaded)
        mods = []
        for nm in names:
            if nm not in named:
                raise InputError(f"unknown module name {nm!r}")
            mods.append((nm, catalog.resolve_expression(loaded, nm).module))
        return thick_shadow_check(a, mods, args.cutoff)
    if check == "bar-oracle":
        m = catalog.resolve_expression(loaded, args.module).module
        n = catalog.resolve_expression(loaded, args.module2 or args.module).module
        oracle = bar_ext_oracle(m, n, args.cutoff, budget=args.budget_dim)
        minimal = ext_dims(m, n, args.cutoff)
        from .checks import CheckReport

        agree = oracle.dims == minimal.dims
        return CheckReport(
            "bar-oracle",
            "pass" if agree else "fail",
            {"algebra": loaded.input_hash[:16]},
            args.cutoff,
            {"oracle_dims": oracle.dims, "minimal_dims": minimal.dims},
        )
    raise InputError(f"unknown check id {check!r} (know: {', '.join(CHECK_IDS)})")


def cmd_verify(args) -> int:
    loaded = _load_algebra(args.algebra, args.field)

    def compute():
        report = _run_verify(args, loaded)
        res = _header(args, f"verify {args.check}", loaded)
        res += report.results_items()
        return res, (1 if report.verdict == "fail" else 0)

    extra = {
        "check": args.check,
        "m": args.module or "",
        "n": args.module2 or "",
        "mods": args.modules or "",
        "b": args.algebra2 or "",
        "budget": str(args.budget_dim),
    }
    results, code = _with_cache(args, "verify", loaded, extra, compute)
    d = dict(results)
    _emit(results, [f"check {args.check}: {d['verdict']}"], args.machine)
    return code


def cmd_corpus(args) -> int:
    if args.action == "list":
        results = [
            ("command", "corpus-list"),
            ("engine", catalog.ENGINE_VERSION),
            ("field", str(args.field or catalog.DEFAULT_FIELD)),
            ("seed", str(args.seed)),
            ("entries", ",".join(e.name for e in corpus.ENTRIES)),
        ]
        human = []
        for e in corpus.ENTRIES:
            loaded = corpus.load_entry(e.name)
            results.append((f"{e.name}.dim", str(loaded.algebra.dim)))
            results.append((f"{e.name}.hash", loaded.input_hash))
            human.append(f"{e.name:10s} dim {loaded.algebra.dim:2d}  {e.title}  [{e.note}]")
        _emit(results, human, args.machine)
        return 0
    # corpus run
    results = [
        ("command", "corpus-run"),
        ("engine", catalog.ENGINE_VERSION),
        ("field", str(args.field or catalog.DEFAULT_FIELD)),
        ("seed", str(args.seed)),
        ("cutoff", str(args.cutoff)),
    ]
    human = []
    checks = 0
    mismatches = 0
    for entry in corpus.ENTRIES:
        outcomes = corpus.run_entry_checks(entry, args.cutoff, args.seed, args.field)
        for key, verdict in outcomes:
            checks += 1
            expected = entry.expected.get(key, "<unlisted>")
            results.append((f"{entry.name}.{key}", verdict))
            if verdict != expected:
                mismatches += 1
                results.append((f"{entry.name}.{key}.expected", expected))
                human.append(f"MISMATCH {entry.name}.{key}: got {verdict}, expected {expected}")
    results.append(("checks", str(checks)))
    results.append(("mismatches", str(mismatches)))
    human.append(f"{checks} checks, {mismatches} mismatches")
    _emit(results, human, args.machine)
    return 1 if mismatches else 0


def cmd_cache(args) -> int:
    if not args.catalog:
        print("error: cache command needs --catalog PATH", file=sys.stderr)
        return 3
    header = [
        ("engine", catalog.ENGINE_VERSION),
        ("field", str(args.field or catalog.DEFAULT_FIELD)),
        ("seed", str(args.seed)),
    ]
    if args.action == "clear":
        n = catalog.cache_clear(args.catalog)
        results = [("command", "cache-clear")] + header + [("removed", str(n))]
        _emit(results, [f"removed {n} records"], args.machine)
        return 0
    info = catalog.cache_info(args.catalog)
    results = [("command", "cache-info")] + header + [
        ("records", str(info["records"])),
        ("bytes", str(info["bytes"])),
    ]
    _emit(results, [f"{info['records']} records, {info['bytes']} bytes"], args.machine)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sp):
    sp.add_argument("--cutoff", type=int, default=6, help="degree cutoff (default 6)")
    sp.add_argument("--field", type=int, default=None, help="prime modulus override")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized isomorphism tests")
    sp.add_argument("--trials", type=int, default=24, help="trial count for randomized isomorphism tests")
    sp.add_argument("--budget-dim", type=int, default=DEFAULT_BUDGET, help="largest chain dimension")
    sp.add_argument("--catalog", default=os.environ.get("QUIVALG_CATALOG"), help="cache directory")
    sp.add_argument("--no-cache", action="store_true", help="bypass the cache")
    sp.add_argument("--machine", action="store_true", help="suppress the human summary")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quivalg", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("inspect", help="dimensions and named modules of an algebra")
    sp.add_argument("algebra")
    _add_common(sp)
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("domdim", help="dominant dimension evidence")
    sp.add_argument("algebra")
    _add_common(sp)
    sp.set_defaults(func=cmd_domdim)

    sp = sub.add_parser("ext", help="Ext dimensions between two modules")
    sp.add_argument("algebra")
    sp.add_argument("module")
    sp.add_argument("module2")
    _add_common(sp)
    sp.set_defaults(func=cmd_ext)

    sp = sub.add_parser("selforth", help="self-orthogonality of a module")
    sp.add_argument("algebra")
    sp.add_argument("module")
    _add_common(sp)
    sp.set_defaults(func=cmd_selforth)

    sp = sub.add_parser("gencogen", help="generator-cogenerator test")
    sp.add_argument("algebra")
    sp.add_argument("module")
    _add_common(sp)
    sp.set_defaults(func=cmd_gencogen)

    sp = sub.add_parser("nakayama", help="Nakayama functor with two-route consistency")
    sp.add_argument("algebra")
    sp.add_argument("module")
    _add_common(sp)
    sp.set_defaults(func=cmd_nakayama)

    sp = sub.add_parser("endo", help="endomorphism algebra of a decomposed module")
    sp.add_argument("algebra")
    sp.add_argument("module")
    _add_common(sp)
    sp.set_defaults(func=cmd_endo)

    sp = sub.add_parser("approx", help="minimal right add(M)-approximation")
    sp.add_argument("algebra")
    sp.add_argument("module")
    sp.add_argument("target")
    _add_common(sp)
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("tensor", help="tensor product of two algebras")
    sp.add_argument("algebra")
    sp.add_argument("algebra2")
    sp.add_argument("--out", default=None, help="write the serialized algebra here")
    _add_common(sp)
    sp.set_defaults(func=cmd_tensor)

    sp = sub.add_parser("verify", help="run one named check")
    sp.add_argument("check", choices=CHECK_IDS)
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--algebra2", default=None, help="second algebra (kunneth)")
    sp.add_argument("--module", default=None, help="module expression, e.g. regular+S")
    sp.add_argument("--module2", default=None, help="second module (bar-oracle)")
    sp.add_argument("--modules", default=None, help="comma list for thick-shadow")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("corpus", help="list or run the built-in corpus")
    sp.add_argument("action", choices=["list", "run"], nargs="?", default="list")
    _add_common(sp)
    sp.set_defaults(func=cmd_corpus)

    sp = sub.add_parser("cache", help="inspect or clear the invariant cache")
    sp.add_argument("action", choices=["info", "clear"], nargs="?", default="info")
    _add_common(sp)
    sp.set_defaults(func=cmd_cache)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetError, UnsupportedFieldError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
