"""Command-line entry points.

Every command prints a machine-readable RESULTS block (one ``key = value``
per line, terminated by END) followed by a human summary, suppressed by
--machine.  Output is byte-identical across runs for fixed inputs and flags;
the modulus and seed always appear in the block, and every verdict is exact,
so none depends on the seed.  Exit codes: 0 computed/pass, 1 check failed,
2 input error, 3 budget, unsupported field or out of memory.

Each subcommand is one row of ``COMMANDS``, which declares its arguments.
The nine algebra commands share one run path, ``_run``: parse every algebra
argument, look the command up in the invariant cache (keyed by every
declared argument, algebras by content hash), and only on a miss build the
algebras and compute the command's own rows, which the cache stores with
the exit code; then prefix the common header, built from the current
arguments on every run (so the seed, which no verdict depends on, is not
keyed), and emit, with a human summary filled from the RESULTS block.  ``tensor``,
``corpus`` and ``cache`` print their own output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import catalog, corpus
from .algebra import tensor_product
from .checks import (
    DEFAULT_BUDGET,
    CheckReport,
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
    is_projective,
    nakayama,
    self_orthogonal,
)
from .modules import DirectSum, min_add_approximation, standard_modules

Rows = list[tuple[str, str]]

# arguments that name an algebra: parsed and keyed by content by ``_run``,
# and built only when the cache has no record
ALGEBRA_ARGS = ("algebra", "algebra2")


def _read_doc(arg: str) -> catalog.AlgebraDoc:
    """The parsed document of an .alg file path or a corpus entry name."""
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                return catalog.parse(fh.read())
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {arg!r}: {e}") from None
    stem = arg[:-4] if arg.endswith(".alg") else arg
    names = [e.name for e in corpus.ENTRIES]
    if stem in names:
        return catalog.parse(corpus.fixture_text(stem))
    raise InputError(f"no such file or corpus entry: {arg!r} (corpus: {', '.join(names)})")


def _load_algebra(arg: str, field_override: Optional[int]) -> catalog.LoadedAlgebra:
    return catalog.build_doc(_read_doc(arg), field_override)


def _emit(results: Rows, human: list[str], machine: bool) -> None:
    print("RESULTS")
    for k, v in results:
        print(f"{k} = {v}")
    print("END")
    if not machine:
        for line in human:
            print(line)


def _header(args, command: str, p: int) -> Rows:
    """The rows every RESULTS block opens with; callers append the rest."""
    return [
        ("command", command),
        ("engine", catalog.ENGINE_VERSION),
        ("field", str(p)),
        ("seed", str(args.seed)),
    ]


def _module(args, dest: str = "module") -> DirectSum:
    """The module expression in argument ``dest``, over ``args.algebra``."""
    expr = getattr(args, dest)
    if expr is None:
        raise InputError(f"{args.check} needs --{dest}")
    return catalog.resolve_expression(args.algebra, expr)


# ---------------------------------------------------------------------------
# algebra commands: each returns its own RESULTS rows and exit code;
# ``args.algebra`` (and ``args.algebra2``) are LoadedAlgebra objects here


def _inspect(args) -> tuple[Rows, int]:
    a = args.algebra.algebra
    named = catalog.named_modules(args.algebra)
    # the I(v) are pairwise non-isomorphic: all projective iff A is self-injective
    self_inj = all(is_projective(i) for i in standard_modules(a).injectives)
    return [
        ("dim", str(a.dim)),
        ("idempotents", str(len(a.idempotents))),
        ("radical_dim", str(a.radical().cols)),
        ("self_injective", str(self_inj).lower()),
        ("labels", ",".join(a.labels)),
        ("modules", ",".join(f"{k}:{sum(x.dim for x in v)}" for k, v in sorted(named.items()))),
    ], 0


def _domdim(args) -> tuple[Rows, int]:
    return [("value", str(dominant_dimension(args.algebra.algebra, args.cutoff)))], 0


def _ext(args) -> tuple[Rows, int]:
    table = ext_dims(_module(args), _module(args, "module2"), args.cutoff)
    return [
        ("source", args.module),
        ("target", args.module2),
        ("dims", ",".join(str(x) for x in table.dims)),
    ], 0


def _selforth(args) -> tuple[Rows, int]:
    rep = self_orthogonal(_module(args), args.cutoff)
    first = rep.first_nonzero_degree
    return [
        ("module", args.module),
        ("self_orthogonal", str(rep.self_orthogonal).lower()),
        ("first_nonzero_degree", "none" if first is None else str(first)),
        ("dims", ",".join(str(x) for x in rep.table.dims)),
    ], 0


def _gencogen(args) -> tuple[Rows, int]:
    flag = gen_cogen(_module(args))
    return [("module", args.module), ("generator_cogenerator", str(flag).lower())], 0


def _nakayama(args) -> tuple[Rows, int]:
    m = _module(args)
    nk = nakayama(m)
    # nakayama raises unless its natural map between the routes is an iso
    return [
        ("module", args.module),
        ("module_dim", str(m.dim)),
        ("nakayama_dim", str(nk.module.dim)),
        ("routes_agree", "true"),
    ], 0


def _endo(args) -> tuple[Rows, int]:
    endo = endomorphism_algebra(_module(args)).algebra
    return [
        ("module", args.module),
        ("endo_dim", str(endo.dim)),
        ("endo_idempotents", str(len(endo.idempotents))),
        ("endo_radical_dim", str(endo.radical().cols)),
    ], 0


def _approx(args) -> tuple[Rows, int]:
    ap = min_add_approximation(_module(args), _module(args, "target"))
    return [
        ("module", args.module),
        ("target", args.target),
        ("multiplicities", ",".join(map(str, ap.multiplicities))),
        ("source_dim", str(ap.morphism.source.dim)),
    ], 0


def _kunneth(args) -> CheckReport:
    if args.algebra2 is None:
        raise InputError("kunneth needs --algebra2")
    return kunneth_check(args.algebra.algebra, args.algebra2.algebra, args.cutoff, budget=args.budget_dim)


def _thick_shadow(args) -> CheckReport:
    named = catalog.named_modules(args.algebra)
    mods = []
    for nm in (x.strip() for x in (args.modules or "regular").split(",")):
        if nm not in named:
            raise InputError(f"unknown module name {nm!r}")
        mods.append((nm, catalog.resolve_expression(args.algebra, nm)))
    return thick_shadow_check(args.algebra.algebra, mods, args.cutoff)


def _bar_oracle(args) -> CheckReport:
    m = _module(args)
    n = catalog.resolve_expression(args.algebra, args.module2 or args.module)
    oracle = bar_ext_oracle(m, n, args.cutoff, budget=args.budget_dim)
    minimal = ext_dims(m, n, args.cutoff)
    return CheckReport(
        "bar-oracle",
        "pass" if oracle.dims == minimal.dims else "fail",
        {"algebra": args.algebra.input_hash[:16]},
        args.cutoff,
        {"oracle_dims": oracle.dims, "minimal_dims": minimal.dims},
    )


# verify check id -> runner
CHECKS: dict[str, Callable[[argparse.Namespace], CheckReport]] = {
    "muller": lambda args: muller_check(args.algebra.algebra, _module(args), args.cutoff),
    "wg-lemma": lambda args: wg_lemma_check(args.algebra.algebra, _module(args), args.cutoff),
    "remark32": lambda args: remark32_check(args.algebra.algebra, args.cutoff, budget=args.budget_dim),
    "kunneth": _kunneth,
    "diamond": lambda args: diamond(args.algebra.algebra, args.cutoff),
    "nc-scan": lambda args: nc_evidence_scan(args.algebra.algebra, args.cutoff),
    "thick-shadow": _thick_shadow,
    "bar-oracle": _bar_oracle,
}


def _verify(args) -> tuple[Rows, int]:
    report = CHECKS[args.check](args)
    return report.results_items(), (1 if report.verdict == "fail" else 0)


# ---------------------------------------------------------------------------
# commands with their own bodies


def cmd_tensor(args) -> int:
    la = _load_algebra(args.algebra, args.field)
    lb = _load_algebra(args.algebra2, args.field)
    t = tensor_product(la.algebra, lb.algebra)
    doc = catalog.doc_from_algebra(t)
    results = _header(args, "tensor", la.algebra.field.p) + [
        ("cutoff", str(args.cutoff)),
        ("input_hash", la.input_hash),
        ("input_hash_b", lb.input_hash),
        ("dim", str(t.dim)),
        ("idempotents", str(len(t.idempotents))),
        ("tensor_hash", doc.content_hash()),
    ]
    human = [f"tensor product has dimension {t.dim}"]
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(catalog.serialize(doc))
        except OSError as e:
            raise InputError(f"cannot write {args.out!r}: {e}") from None
        human.append(f"wrote {args.out}")
    _emit(results, human, args.machine)
    return 0


def cmd_corpus(args) -> int:
    p = args.field or catalog.DEFAULT_FIELD
    if args.action == "list":
        results = _header(args, "corpus-list", p) + [("entries", ",".join(e.name for e in corpus.ENTRIES))]
        human = []
        for e in corpus.ENTRIES:
            results.append((f"{e.name}.dim", str(e.dim)))
            results.append((f"{e.name}.hash", catalog.parse(corpus.fixture_text(e.name)).content_hash()))
            human.append(f"{e.name:10s} dim {e.dim:2d}  {e.title}  [{corpus.NOTE}]")
        _emit(results, human, args.machine)
        return 0
    # corpus run
    results = _header(args, "corpus-run", p) + [("cutoff", str(args.cutoff))]
    human = []
    checks = 0
    mismatches = 0
    for entry in corpus.ENTRIES:
        outcomes = corpus.run_entry_checks(entry, args.cutoff, field_override=args.field)
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
    p = args.field or catalog.DEFAULT_FIELD
    if args.action == "clear":
        n = catalog.cache_clear(args.catalog)
        results = _header(args, "cache-clear", p) + [("removed", str(n))]
        _emit(results, [f"removed {n} records"], args.machine)
        return 0
    info = catalog.cache_info(args.catalog)
    results = _header(args, "cache-info", p) + [
        ("records", str(info["records"])),
        ("bytes", str(info["bytes"])),
    ]
    _emit(results, [f"{info['records']} records, {info['bytes']} bytes"], args.machine)
    return 0


# ---------------------------------------------------------------------------
# the command table


@dataclass(frozen=True)
class Command:
    """One subcommand.

    ``arguments`` maps each flag the command reads, besides ``COMMON_OPTIONS``,
    to its ``add_argument`` keywords.  With a ``summary`` template the command
    is an algebra command: ``run`` returns its own rows and exit code and
    ``_run`` does the rest.  Without one, ``run`` is the whole command.
    """

    help: str
    arguments: dict[str, dict]
    run: Callable[[argparse.Namespace], object]
    summary: Optional[str] = None
    cached: bool = True
    title: str = "{cmd}"  # the header's command value, filled from the arguments


COMMON_OPTIONS = {
    "--cutoff": {"type": int, "default": 6, "help": "degree cutoff (default 6)"},
    "--field": {"type": int, "help": "prime modulus override"},
    "--seed": {"type": int, "default": 0, "help": "recorded in the header; no verdict depends on it"},
    "--catalog": {"help": "cache directory (default $QUIVALG_CATALOG)"},
    "--no-cache": {"action": "store_true", "help": "bypass the cache"},
    "--machine": {"action": "store_true", "help": "suppress the human summary"},
}

ALGEBRA = {"algebra": {}}
MODULE = {"algebra": {}, "module": {}}

COMMANDS: dict[str, Command] = {
    "inspect": Command(
        "dimensions and named modules of an algebra", ALGEBRA, _inspect,
        "algebra of dimension {dim} with {idempotents} idempotents", cached=False,
    ),
    "domdim": Command(
        "dominant dimension evidence", ALGEBRA, _domdim, "dominant dimension evidence: {value}"
    ),
    "ext": Command(
        "Ext dimensions between two modules", {**MODULE, "module2": {}}, _ext,
        "Ext dimensions 0..{cutoff}: {dims}",
    ),
    "selforth": Command(
        "self-orthogonality of a module", MODULE, _selforth,
        "self-orthogonal: {self_orthogonal} (first nonzero degree {first_nonzero_degree})",
    ),
    "gencogen": Command(
        "generator-cogenerator test", MODULE, _gencogen,
        "generator-cogenerator: {generator_cogenerator}",
    ),
    "nakayama": Command(
        "Nakayama functor with two-route consistency", MODULE, _nakayama,
        "Nakayama image dimension {nakayama_dim} (routes agree: {routes_agree})",
    ),
    "endo": Command(
        "endomorphism algebra of a decomposed module", MODULE, _endo,
        "endomorphism algebra: dim {endo_dim}, {endo_idempotents} idempotents",
    ),
    "approx": Command(
        "minimal right add(M)-approximation", {**MODULE, "target": {}}, _approx,
        "minimal right approximation: source dimension {source_dim}",
    ),
    "tensor": Command(
        "tensor product of two algebras",
        {"algebra": {}, "algebra2": {}, "--out": {"help": "write the serialized algebra here"}},
        cmd_tensor,
    ),
    "verify": Command(
        "run one named check",
        {
            "check": {"choices": list(CHECKS)},
            "--algebra": {"required": True},
            "--algebra2": {"help": "second algebra (kunneth)"},
            "--module": {"help": "module expression, e.g. regular+S"},
            "--module2": {"help": "second module (bar-oracle)"},
            "--modules": {"help": "comma list for thick-shadow"},
            "--budget-dim": {"type": int, "default": DEFAULT_BUDGET, "help": "largest chain dimension"},
        },
        _verify,
        "check {check}: {verdict}",
        title="verify {check}",
    ),
    "corpus": Command(
        "list or run the built-in corpus",
        {"action": {"choices": ["list", "run"], "nargs": "?", "default": "list"}},
        cmd_corpus,
    ),
    "cache": Command(
        "inspect or clear the invariant cache",
        {"action": {"choices": ["info", "clear"], "nargs": "?", "default": "info"}},
        cmd_cache,
    ),
}


def _key_text(value) -> str:
    return "" if value is None else str(value)


def _run(spec: Command, args) -> int:
    dests = [flag.lstrip("-").replace("-", "_") for flag in spec.arguments]
    docs = {
        dest: _read_doc(getattr(args, dest))
        for dest in dests
        if dest in ALGEBRA_ARGS and getattr(args, dest) is not None
    }
    input_hash = docs["algebra"].content_hash()
    p = docs["algebra"].p if args.field is None else args.field
    key = hit = None
    if spec.cached and args.catalog and not args.no_cache:
        # every other argument is keyed too, an algebra by its content
        extra = {
            dest: docs[dest].content_hash() if dest in docs else _key_text(getattr(args, dest))
            for dest in dests
            if dest != "algebra"
        }
        key = catalog.record_key(args.cmd, input_hash, args.cutoff, p, extra)
        hit = catalog.cache_get(args.catalog, key)
    if hit is not None:
        rows, code = [(k, v) for k, v in hit["rows"]], hit["exit"]
    else:
        for dest, doc in docs.items():
            setattr(args, dest, catalog.build_doc(doc, args.field))
        rows, code = spec.run(args)
        if key is not None:
            catalog.cache_put(args.catalog, key, {"rows": rows, "exit": code})
    results = _header(args, spec.title.format_map(vars(args)), p) + [
        ("cutoff", str(args.cutoff)),
        ("input_hash", input_hash),
    ] + rows
    _emit(results, [spec.summary.format_map(dict(results))], args.machine)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every row of ``COMMANDS``; built once, on first use."""
    ap = argparse.ArgumentParser(prog="quivalg", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        for flag, keywords in {**spec.arguments, **COMMON_OPTIONS}.items():
            sp.add_argument(flag, **keywords)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.catalog is None:
        args.catalog = os.environ.get("QUIVALG_CATALOG")
    spec = COMMANDS[args.cmd]
    try:
        return _run(spec, args) if spec.summary else spec.run(args)
    except (BudgetError, UnsupportedFieldError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
