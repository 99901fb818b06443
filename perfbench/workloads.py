"""The benchmark's four workloads.

A workload builds fresh inputs (the set-up), runs one timed pass as a closed
loop of calls in this process, and checks the pass's output.  Every
reference is written here by hand, read from the hand-written ``expected``
column of ``quivalg.corpus.ENTRIES`` or given by a closed formula; none is
computed by the code under test.  Each pass builds new algebra and module
objects, so the memos quivalg keeps on them start empty, as they do for a
CLI user.

Smoke mode shrinks each workload (ladder A3, ext cutoff 3, one corpus
entry, one CLI command) for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
import time
from math import comb

FIELD_P = 32003
CORPUS_CHECKS = 80  # checks in one `corpus run` at cutoff 6 (ROADMAP baseline)
LADDER = (3, 4, 5, 6)
EXT_CUTOFF = 9
WARM_SWEEPS = 9


def parse_results(text: str) -> dict[str, str]:
    """``key = value`` lines of every RESULTS block in ``text``."""
    out: dict[str, str] = {}
    inside = False
    for line in text.splitlines():
        if line == "RESULTS":
            inside = True
        elif line == "END":
            inside = False
        elif inside and " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one ``quivalg`` command, in process."""
    from quivalg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def corpus_expected(entry: str, key: str) -> str:
    from quivalg import corpus

    return next(e for e in corpus.ENTRIES if e.name == entry).expected[key]


class Workload:
    name = ""
    why = ""
    mem_cap_mb = 1536

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def build(self):
        """Construct and validate the pass's inputs; timed only as set-up."""
        return None

    def run(self, state) -> dict:
        """One timed pass.  Returns ``{"text": output, ...}``; the text must
        be identical on every pass of one seed, traced or not."""
        raise NotImplementedError

    def check(self, result: dict) -> tuple[int, list[str]]:
        """(operations attempted, problems), one problem per failed operation."""
        raise NotImplementedError

    def cleanup(self, state):
        pass


class Corpus(Workload):
    name = "corpus"
    why = "the paper's verification harness end to end: 80 checks on tiny matrices, overhead-bound elimination, bar oracle"

    def build(self):
        from quivalg import corpus

        return corpus.ENTRIES[:1] if self.smoke else None

    def run(self, state) -> dict:
        if state is None:
            code, text = run_cli(["corpus", "run", "--seed", str(self.seed), "--machine"])
            return {"text": text + f"exit = {code}\n"}
        from quivalg import corpus

        lines = ["RESULTS"]
        for entry in state:
            for key, verdict in corpus.run_entry_checks(entry, 6, self.seed):
                lines.append(f"{entry.name}.{key} = {verdict}")
        return {"text": "\n".join(lines + ["END", ""])}

    def check(self, result: dict) -> tuple[int, list[str]]:
        from quivalg import corpus

        got = parse_results(result["text"])
        entries = corpus.ENTRIES[:1] if self.smoke else corpus.ENTRIES
        expected = {f"{e.name}.{k}": v for e in entries for k, v in e.expected.items()}
        problems = [f"{k}: got {got.get(k)}, expected {v}" for k, v in expected.items() if got.get(k) != v]
        ops = len(expected)
        if not self.smoke:
            if ops != CORPUS_CHECKS:
                problems.append(f"corpus lists {ops} checks, expected {CORPUS_CHECKS}")
            summary = (got.get("checks"), got.get("mismatches"), result["text"].rstrip().rsplit("\n", 1)[-1])
            if summary != (str(CORPUS_CHECKS), "0", "exit = 0") and not problems:
                problems.append(f"summary {summary}, expected checks {CORPUS_CHECKS}, 0 mismatches, exit 0")
        return ops, problems


class Ladder(Workload):
    name = "gencogen-ladder"
    why = "End of the minimal generator-cogenerator of A3..A6: compute- and memory-bound elimination on large dense matrices"
    mem_cap_mb = 3072

    def rungs(self):
        return LADDER[:1] if self.smoke else LADDER

    def build(self):
        from quivalg.algebra import QuiverPresentation, build_from_quiver
        from quivalg.linalg import PrimeField

        field = PrimeField(FIELD_P)
        out = []
        for n in self.rungs():
            vertices = tuple(str(i) for i in range(1, n + 1))
            arrows = tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, n))
            out.append((n, build_from_quiver(QuiverPresentation(vertices, arrows, (), n - 1), field)))
        return out

    def run(self, state) -> dict:
        from quivalg.homology import endomorphism_algebra, minimal_gen_cogen

        lines = []
        for n, a in state:
            dm = minimal_gen_cogen(a, seed=self.seed)
            end = endomorphism_algebra(dm, seed=self.seed).algebra
            lines.append(f"A{n} end_dim = {end.dim} idempotents = {len(end.idempotents)}")
        return {"text": "\n".join(lines) + "\n"}

    def check(self, result: dict) -> tuple[int, list[str]]:
        # Hom([a,b],[c,d]) != 0 iff c <= a <= d <= b between interval modules
        # gives dim End = n(3n-1)/2; the summands are n projectives plus n-1
        # non-projective injectives.
        want = [f"A{n} end_dim = {n * (3 * n - 1) // 2} idempotents = {2 * n - 1}" for n in self.rungs()]
        got = result["text"].splitlines()
        problems = [f"got {g!r}, expected {w!r}" for w, g in zip(want, got + [""] * len(want)) if g != w]
        return len(want), problems


class ExtTensor(Workload):
    name = "ext-tensor"
    why = "Ext(S,S) to degree 9 over k[x]/(x^2)^(x)3: a deep minimal resolution, time in module constructions, no Hom spaces"

    def cutoff(self) -> int:
        return 3 if self.smoke else EXT_CUTOFF

    def build(self):
        import numpy as np

        from quivalg.algebra import QuiverPresentation, build_from_quiver, tensor_product
        from quivalg.linalg import PrimeField
        from quivalg.modules import ModuleRep

        k2 = build_from_quiver(
            QuiverPresentation(("1",), (("x", "1", "1"),), (((1, ("x", "x")),),), 1), PrimeField(FIELD_P)
        )
        a = tensor_product(tensor_product(k2, k2), k2)
        # the simple module: each basis element acts by its coefficient on the
        # length-0 part, which is the unit of this local algebra
        action = np.zeros((a.dim, 1, 1), dtype=np.int64)
        for b, length in enumerate(a.basis_path_lengths):
            action[b, 0, 0] = 1 if length == 0 else 0
        simple = ModuleRep(a, action)
        simple.check()
        return simple

    def run(self, state) -> dict:
        from quivalg.homology import ext_dims

        dims = ext_dims(state, state, self.cutoff()).dims
        return {"text": "dims = " + ",".join(str(d) for d in dims) + "\n"}

    def check(self, result: dict) -> tuple[int, list[str]]:
        # Kunneth: the Poincare series of Ext(S,S) is 1/(1-t)^3
        want = [comb(i + 2, 2) for i in range(self.cutoff() + 1)]
        got = result["text"].strip().removeprefix("dims = ").split(",")
        problems = [
            f"Ext^{i}: got {g}, expected {w}" for i, (w, g) in enumerate(zip(want, got + [""] * len(want))) if g != str(w)
        ]
        return len(want), problems


def _cli_commands(out_path: str):
    """(argv, answered through the cache?, expected exit code, expected
    RESULTS values).  Values come from the README's command list and corpus
    table, from the corpus ``expected`` column, or are derived by hand as noted."""
    corpus_dims = {"k": 1, "k2": 2, "k3": 3, "k4": 4, "ka2": 3, "ka3": 6, "aus": 5, "k2xk2": 4, "ka2xk2": 6}
    return [
        (
            ["corpus", "list"],
            False,
            0,
            {"entries": ",".join(corpus_dims)} | {f"{k}.dim": str(v) for k, v in corpus_dims.items()},
        ),
        # aus = End(k2 + S): two summands, so two idempotents and radical 5 - 2;
        # finite dominant dimension, so not self-injective
        (["inspect", "aus"], False, 0, {"dim": "5", "idempotents": "2", "radical_dim": "3", "self_injective": "false"}),
        (["domdim", "k2.alg", "--cutoff", "6"], True, 0, {"value": "infinity-certified"}),
        (["ext", "ka2.alg", "S1", "S2", "--cutoff", "4"], True, 0, {"dims": "0,1,0,0,0"}),
        # README, known deviation: Ext(M, M) over k[x]/x^2 is 5,1,1,1,1,1,1
        (
            ["selforth", "k2", "regular+S", "--cutoff", "6"],
            True,
            0,
            {"self_orthogonal": "false", "first_nonzero_degree": "1", "dims": "5,1,1,1,1,1,1"},
        ),
        # k[x]/x^2 is self-injective: the regular summand generates and cogenerates
        (["gencogen", "k2", "regular+S"], True, 0, {"generator_cogenerator": "true"}),
        # over a symmetric algebra the Nakayama functor fixes the simple
        (["nakayama", "k2", "S"], True, 0, {"module_dim": "1", "nakayama_dim": "1", "routes_agree": "true"}),
        (["endo", "k2", "regular+S"], True, 0, {"endo_dim": "5", "endo_idempotents": "2", "endo_radical_dim": "3"}),
        (["approx", "k2", "regular+S", "S"], True, 0, {"module": "regular+S", "target": "S"}),
        (["tensor", "ka2", "k2", "--out", out_path], False, 0, {"dim": "6", "idempotents": "2"}),
        (
            ["verify", "muller", "--algebra", "k2", "--module", "M=regular+S", "--cutoff", "6"],
            True,
            0,
            {"verdict": corpus_expected("k2", "muller:regular+S")},
        ),
        (["verify", "diamond", "--algebra", "k2"], True, 0, {"verdict": corpus_expected("k2", "diamond")}),
        # the simple over k[x]/x^2 is periodic: Ext^i(S, S) = 1 in every degree
        (
            ["verify", "bar-oracle", "--algebra", "k2", "--module", "S", "--module2", "S", "--cutoff", "3"],
            True,
            0,
            {"verdict": "pass", "oracle_dims": "1,1,1,1", "minimal_dims": "1,1,1,1"},
        ),
        (
            ["verify", "wg-lemma", "--algebra", "aus", "--module", "gencogen"],
            True,
            1,
            {"verdict": corpus_expected("aus", "wg-lemma:gencogen")},
        ),
        (
            ["verify", "remark32", "--algebra", "ka2xk2"],
            True,
            0,
            {"verdict": corpus_expected("ka2xk2", "remark32")},
        ),
        (["domdim", "ka2xk2"], True, 0, {"value": corpus_expected("ka2xk2", "domdim")}),
    ]


class CliCache(Workload):
    name = "cli-cache"
    why = "README commands through cli.main against a fresh catalog: one cold sweep writes records, warm sweeps are cache hits"

    def commands(self):
        cmds = _cli_commands(os.path.join(self.workdir, "ka2xk2.alg"))
        return cmds[2:3] if self.smoke else cmds

    def warm_sweeps(self) -> int:
        return 1 if self.smoke else WARM_SWEEPS

    def build(self):
        return tempfile.mkdtemp(prefix="catalog-", dir=self.workdir)

    def run(self, state) -> dict:
        common = ["--catalog", state, "--seed", str(self.seed)]
        cold = []
        for argv, _, _, _ in self.commands():
            cold.append(run_cli(argv + common))
        hits_ms: list[float] = []
        changed: list[str] = []
        for _ in range(self.warm_sweeps()):
            for (argv, cached, _, _), first in zip(self.commands(), cold):
                t = time.perf_counter()
                again = run_cli(argv + common)
                if cached:
                    hits_ms.append((time.perf_counter() - t) * 1000.0)
                if again != first:
                    changed.append(" ".join(argv))
        text = "".join(f"$ quivalg {' '.join(argv)}\nexit = {code}\n{out}" for (argv, *_), (code, out) in zip(self.commands(), cold))
        return {"text": text, "hits_ms": hits_ms, "changed": changed}

    def check(self, result: dict) -> tuple[int, list[str]]:
        cmds = self.commands()
        blocks = result["text"].split("$ quivalg ")[1:]
        problems = [f"warm output differs from cold: {c}" for c in result["changed"]]
        for (argv, _, want_code, want), block in zip(cmds, blocks + [""] * len(cmds)):
            got = parse_results(block)
            code_line = block.split("\n", 2)[1] if block.count("\n") >= 2 else ""
            bad = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
            if code_line != f"exit = {want_code}" or bad:
                problems.append(f"{' '.join(argv)}: {code_line}, wrong values {bad}")
        return len(cmds) * (1 + self.warm_sweeps()), problems

    def cleanup(self, state):
        shutil.rmtree(state, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Corpus, Ladder, ExtTensor, CliCache)}
