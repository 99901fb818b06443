import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from quivalg import catalog, cli, corpus
from quivalg.cli import main

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def results_dict(out):
    lines = out.splitlines()
    assert lines[0] == "RESULTS"
    end = lines.index("END")
    d = {}
    for line in lines[1:end]:
        k, _, v = line.partition(" = ")
        d[k] = v
    return d


def test_domdim_k2(capsys):
    code, out, _ = run_cli(capsys, "domdim", "k2.alg", "--cutoff", "6")
    assert code == 0
    d = results_dict(out)
    assert d["value"] == "infinity-certified"
    assert d["field"] == "32003"
    assert d["seed"] == "0"


def test_ext_command(capsys):
    code, out, _ = run_cli(capsys, "ext", "ka2.alg", "S1", "S2", "--cutoff", "4")
    assert code == 0
    assert results_dict(out)["dims"] == "0,1,0,0,0"


def test_verify_muller(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "muller", "--algebra", "k2.alg",
        "--module", "M=regular+S", "--cutoff", "6",
    )
    assert code == 0
    d = results_dict(out)
    assert d["verdict"] == "pass"
    assert d["domdim_endo"] == "2"


def test_verify_wg_documented_failure(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "wg-lemma", "--algebra", "k2",
        "--module", "regular+S", "--cutoff", "6",
    )
    assert code == 1
    d = results_dict(out)
    assert d["verdict"] == "fail"
    assert d["first_mismatch"] == "3"


def test_verify_diamond_exitcodes(capsys):
    code, out, _ = run_cli(capsys, "verify", "diamond", "--algebra", "ka2")
    assert code == 1
    code, out, _ = run_cli(capsys, "verify", "diamond", "--algebra", "k2")
    assert code == 0


def test_verify_thick_inconclusive_is_not_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "thick-shadow", "--algebra", "ka2")
    assert code == 0
    assert results_dict(out)["verdict"] == "inconclusive"


def test_verify_bar_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bar-oracle", "--algebra", "k2",
        "--module", "S", "--module2", "S", "--cutoff", "3",
    )
    assert code == 0
    d = results_dict(out)
    assert d["oracle_dims"] == d["minimal_dims"] == "1,1,1,1"


def test_input_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "domdim", "no-such-algebra")
    assert code == 2
    assert "error" in err


def test_budget_error_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "verify", "bar-oracle", "--algebra", "k4",
        "--module", "regular", "--module2", "regular",
        "--cutoff", "6", "--budget-dim", "50",
    )
    assert code == 3
    assert "budget" in err


def test_field_of_2_61_minus_1_exits_3_at_once(capsys):
    t = time.perf_counter()
    code, out, err = run_cli(capsys, "domdim", "ka2", "--field", str(2**61 - 1))
    assert time.perf_counter() - t < 1.0
    assert code == 3
    assert out == ""
    assert "not below 2^31" in err


@pytest.mark.parametrize("argv", [("domdim", "ka2"), ("domdim", "k2"), ("nakayama", "k2", "S")])
def test_field_of_2_31_minus_1_exits_3_or_agrees_with_32003(capsys, argv):
    """At p = 2^31 - 1 products of inner dimension 3 or more run in int64
    blocks instead of exiting 3, so each command gives the verdict of
    p = 32003."""
    code, out, err = run_cli(capsys, *argv, "--field", str(2**31 - 1))
    want_code, want_out, _ = run_cli(capsys, *argv)
    got, want = results_dict(out), results_dict(want_out)
    assert (code, got.pop("field")) == (want_code, str(2**31 - 1))
    want.pop("field")
    assert got == want


def test_machine_flag_suppresses_summary(capsys):
    _, out_full, _ = run_cli(capsys, "domdim", "k2")
    _, out_machine, _ = run_cli(capsys, "domdim", "k2", "--machine")
    assert out_machine.strip().endswith("END")
    assert out_full.startswith(out_machine)
    assert len(out_full) > len(out_machine)


def test_inspect(capsys):
    code, out, _ = run_cli(capsys, "inspect", "aus")
    assert code == 0
    d = results_dict(out)
    assert d["dim"] == "5"
    assert d["idempotents"] == "2"
    assert d["self_injective"] == "false"
    _, out, _ = run_cli(capsys, "inspect", "k2")
    assert results_dict(out)["self_injective"] == "true"


def test_tensor_writes_doc(capsys, tmp_path):
    out_file = tmp_path / "t.alg"
    code, out, _ = run_cli(capsys, "tensor", "k2", "k2", "--out", str(out_file))
    assert code == 0
    assert results_dict(out)["dim"] == "4"
    loaded = catalog.load(out_file.read_text())
    assert loaded.algebra.dim == 4


def test_gencogen_answers_at_field_2(capsys):
    # the trace criterion needs no trace form, so p = 2 <= dim End(P) is fine
    code, out, _ = run_cli(capsys, "gencogen", "k2", "regular+S", "--field", "2")
    assert code == 0
    assert results_dict(out)["generator_cogenerator"] == "true"


def test_selforth_gencogen_nakayama_endo_approx(capsys):
    code, out, _ = run_cli(capsys, "selforth", "k2", "regular+S", "--cutoff", "4")
    assert code == 0
    d = results_dict(out)
    assert d["self_orthogonal"] == "false"
    assert d["first_nonzero_degree"] == "1"

    code, out, _ = run_cli(capsys, "gencogen", "k2", "regular+S")
    assert results_dict(out)["generator_cogenerator"] == "true"

    code, out, _ = run_cli(capsys, "nakayama", "k2", "S")
    d = results_dict(out)
    assert d["nakayama_dim"] == "1"
    assert d["routes_agree"] == "true"

    code, out, _ = run_cli(capsys, "endo", "k2", "regular+S")
    assert results_dict(out)["endo_dim"] == "5"

    code, out, _ = run_cli(capsys, "approx", "k2", "regular+S", "S")
    assert results_dict(out)["multiplicities"] == "0,1"


def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    d = results_dict(out)
    assert "k2" in d["entries"].split(",")
    assert d["k2.dim"] == "2"


def test_corpus_list_builds_no_algebra(capsys, monkeypatch):
    # each dimension comes from the registry, which must agree with the
    # built algebra; the hashes come from the parsed fixture text
    for e in corpus.ENTRIES:
        assert e.dim == corpus.load_entry(e.name).algebra.dim, e.name

    def refuse(*args, **kwargs):
        raise AssertionError("corpus list built an algebra")

    monkeypatch.setattr(catalog, "build_doc", refuse)
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    d = results_dict(out)
    for e in corpus.ENTRIES:
        assert d[f"{e.name}.dim"] == str(e.dim)
        assert d[f"{e.name}.hash"] == catalog.parse(corpus.fixture_text(e.name)).content_hash()


@pytest.mark.parametrize("p", [2, 3])
def test_corpus_run_at_small_primes(capsys, p):
    # p = 2 and 3 are below the dimension of most corpus algebras and of
    # their End algebras; the radical is exact at every prime, so the
    # verdicts still equal the expected column, written for the default prime
    code, out, _ = run_cli(capsys, "corpus", "run", "--machine", "--field", str(p))
    d = results_dict(out)
    assert (code, d["checks"], d["mismatches"]) == (0, "80", "0")


def test_cache_roundtrip_and_byte_identity(capsys, tmp_path):
    cat = str(tmp_path / "cat")
    code, plain, _ = run_cli(capsys, "domdim", "k4", "--machine")
    code, first, _ = run_cli(capsys, "domdim", "k4", "--machine", "--catalog", cat)
    code, second, _ = run_cli(capsys, "domdim", "k4", "--machine", "--catalog", cat)
    assert plain == first == second
    code, out, _ = run_cli(capsys, "cache", "info", "--catalog", cat)
    assert results_dict(out)["records"] == "1"
    code, out, _ = run_cli(capsys, "cache", "clear", "--catalog", cat)
    assert results_dict(out)["removed"] == "1"


@pytest.mark.parametrize("record", ["[]", "7", '"x"'])
def test_a_cache_record_that_is_not_an_object_is_a_miss(capsys, tmp_path, record):
    # valid JSON that is not an object is as corrupt as broken JSON: a
    # warning, then the command runs as if uncached
    cat = tmp_path / "cat"
    _, plain, _ = run_cli(capsys, "domdim", "k2", "--no-cache")
    run_cli(capsys, "domdim", "k2", "--catalog", str(cat))
    (path,) = cat.glob("*.json")
    path.write_text(record)
    code, out, err = run_cli(capsys, "domdim", "k2", "--catalog", str(cat))
    assert (code, out) == (0, plain)
    assert "warning: ignoring corrupt cache record" in err


def test_cache_is_shared_across_seeds(capsys, tmp_path, monkeypatch):
    # no verdict depends on the seed: one record answers every seed, and
    # the header of a hit still prints the seed of the current run
    cat = str(tmp_path / "cat")
    seeds = ("0", "1", "2")
    fresh = [run_cli(capsys, "domdim", "k2", "--seed", s, "--no-cache") for s in seeds]
    for i, seed in enumerate(seeds):
        cached = run_cli(capsys, "domdim", "k2", "--seed", seed, "--catalog", cat)
        assert cached == fresh[i]
        assert results_dict(cached[1])["seed"] == seed
        monkeypatch.setattr(catalog, "build_doc", build_on_hit)
    assert catalog.cache_info(cat)["records"] == 1


def test_cache_requires_catalog(capsys):
    code, _, err = run_cli(capsys, "cache", "info")
    assert code == 3


# ---------------------------------------------------------------------------
# byte-for-byte RESULTS oracle

GOLDEN = Path(__file__).parent / "data" / "cli_results.txt"

# Every subcommand, every verify check id, answers below the algebra's
# dimension at --field 2, and the exit-2 and exit-3 cases.
# "{tmp}" stands for a per-test temporary directory.  `corpus run --machine`
# is not listed: its stdout is tests/data/corpus_run_machine.txt, which
# acceptance criterion 10 compares.
GOLDEN_COMMANDS = [
    "corpus list",
    "corpus run",
    "inspect aus",
    "inspect k2",
    "inspect k2xk2 --field 2",
    "domdim k2.alg --cutoff 6",
    "domdim ka2xk2",
    "domdim k2xk2 --field 2",
    "ext ka2.alg S1 S2 --cutoff 4",
    "selforth k2 regular+S --cutoff 6",
    "gencogen k2 regular+S",
    "gencogen ka2 regular",
    "nakayama k2 S",
    "nakayama ka2 S1",
    "endo k2 regular+S",
    "endo k2 regular+S --field 2",
    "approx k2 regular+S S",
    "approx k2 regular+S S --field 2",
    "approx k2 regular+regular S",
    "approx k2 S+S S",
    "tensor ka2 k2 --out {tmp}/ka2xk2.alg",
    "tensor k2 k2",
    "verify muller --algebra k2 --module M=regular+S --cutoff 6",
    "verify wg-lemma --algebra aus --module gencogen",
    "verify wg-lemma --algebra k2 --module regular+S",
    "verify remark32 --algebra ka2xk2",
    "verify kunneth --algebra k2 --algebra2 ka2",
    "verify diamond --algebra k2",
    "verify diamond --algebra ka2",
    "verify nc-scan --algebra k2",
    "verify thick-shadow --algebra ka2",
    "verify thick-shadow --algebra k2 --modules regular,S",
    "verify bar-oracle --algebra k2 --module S --module2 S --cutoff 3",
    "cache info --catalog {tmp}/cat",
    "cache clear --catalog {tmp}/cat",
    # exit 2
    "domdim no-such-algebra",
    "ext k2 S NOPE",
    "verify kunneth --algebra k2",
    "verify thick-shadow --algebra k2 --modules regular,NOPE",
    # exit 3
    "verify bar-oracle --algebra k4 --module regular --module2 regular --cutoff 6 --budget-dim 50",
    "inspect k2 --field 2147483659",
    "cache info",
]


def golden_variants():
    for cmd in GOLDEN_COMMANDS:
        yield cmd
        if cmd != "corpus run":
            yield cmd + " --machine"


def golden_block(capsys, tmp_path, command: str) -> str:
    """``$ quivalg`` line, exit code and stdout of one command, with the
    temporary directory written as {tmp} and the engine line dropped."""
    code, out, _ = run_cli(capsys, *command.replace("{tmp}", str(tmp_path)).split())
    out = "".join(
        line for line in out.replace(str(tmp_path), "{tmp}").splitlines(keepends=True)
        if not line.startswith("engine = ")
    )
    return f"$ quivalg {command}\nexit = {code}\n{out}"


def golden_blocks() -> dict[str, str]:
    blocks = {}
    for chunk in GOLDEN.read_text().split("$ quivalg ")[1:]:
        blocks[chunk.split("\n", 1)[0]] = "$ quivalg " + chunk
    return blocks


def build_on_hit(*args, **kwargs):
    raise AssertionError("algebra built for a cache hit")


@pytest.mark.parametrize("command", list(golden_variants()))
def test_results_match_golden(capsys, tmp_path, monkeypatch, command):
    monkeypatch.delenv("QUIVALG_CATALOG", raising=False)
    assert golden_block(capsys, tmp_path, command) == golden_blocks()[command]
    if command.split()[0] in ("cache", "corpus"):
        return
    # a cold and a warm cache run print the same bytes, and a hit is read
    # before any algebra is built
    cached = f"{command} --catalog {{tmp}}/cat"
    for _ in range(2):
        block = golden_block(capsys, tmp_path, cached)
        assert block.replace(cached, command, 1) == golden_blocks()[command]
        if catalog.cache_info(str(tmp_path / "cat"))["records"]:
            monkeypatch.setattr(catalog, "build_doc", build_on_hit)


def test_verify_second_algebra_is_keyed_by_content(capsys, tmp_path):
    a, b, cat = tmp_path / "a.alg", tmp_path / "b.alg", str(tmp_path / "cat")
    a.write_text(catalog.serialize(corpus.load_entry("k2").doc))
    b.write_text(catalog.serialize(corpus.load_entry("k2").doc))
    argv = ["verify", "kunneth", "--algebra", str(a), "--algebra2", str(b)]
    run_cli(capsys, *argv, "--catalog", cat)
    b.write_text(catalog.serialize(corpus.load_entry("ka2").doc))
    _, cached, _ = run_cli(capsys, *argv, "--catalog", cat)
    _, fresh, _ = run_cli(capsys, *argv, "--catalog", cat, "--no-cache")
    assert results_dict(fresh)["seq_b"] == "1,1,0,0,0,0,0"
    assert cached == fresh


@pytest.mark.parametrize(
    "first, second",
    [
        ("ext k2 S S", "ext k2 S regular"),
        ("verify diamond --algebra k2", "verify nc-scan --algebra k2"),
        ("verify thick-shadow --algebra k2", "verify thick-shadow --algebra k2 --modules S"),
    ],
)
def test_cache_key_names_every_argument(capsys, tmp_path, first, second):
    cat = ["--catalog", str(tmp_path / "cat")]
    run_cli(capsys, *first.split(), *cat)
    _, cached, _ = run_cli(capsys, *second.split(), *cat)
    _, fresh, _ = run_cli(capsys, *second.split(), "--no-cache")
    assert cached == fresh


# malformed lines, each appended to a document of the named mode
MALFORMED = {
    "dim-word": ("table", "[table]\ndim two\n"),
    "dim-negative": ("table", "[table]\ndim -2\n"),
    "vertex-dim-word": ("quiver", "[module M]\nvertex 1 dim two\n"),
    "vertex-dim-negative": ("quiver", "[module M]\nvertex 1 dim -1\n"),
    "action-index-word": ("table", "[module M]\naction z [1]\n"),
    "arrow-without-matrix": ("quiver", "[module M]\nvertex 1 dim 1\narrow x\n"),
    "ragged-quiver-matrix": ("quiver", "[module M]\nvertex 1 dim 2\narrow x [0,1;0]\n"),
    "ragged-table-matrix": ("table", "[module M]\naction 0 [1,0;1]\n"),
    "action-unknown": ("table", "[module M]\naction 0 [1]\naction 7 [5]\n"),
    "vertex-unknown": ("quiver", "[module M]\nvertex 9 dim 2\n"),
    "arrow-unknown": ("quiver", "[module M]\narrow zz [1]\n"),
    "action-repeated": ("table", "[module M]\naction 0 [1]\naction 0 [1]\n"),
    "vertex-repeated": ("quiver", "[module M]\nvertex 1 dim 1\nvertex 1 dim 1\n"),
    "arrow-repeated": ("quiver", "[module M]\nvertex 1 dim 1\narrow x [0]\narrow x [0]\n"),
}


@pytest.mark.parametrize(
    "case",
    ["directory", "not-utf8", "field-option", "field-line", "out-missing-dir", "module-missing", *MALFORMED],
)
def test_bad_outside_input_exits_2(capsys, tmp_path, case):
    bad = tmp_path / "bad.alg"
    k2 = catalog.serialize(corpus.load_entry("k2").doc)
    argv = ["domdim", str(bad)]
    if case in MALFORMED:
        mode, lines = MALFORMED[case]
        bad.write_text(catalog.serialize(corpus.load_entry("k2" if mode == "quiver" else "k").doc) + "\n" + lines)
        argv = ["inspect", str(bad)]
    elif case == "directory":
        argv = ["domdim", str(tmp_path)]
    elif case == "not-utf8":
        bad.write_bytes(k2.encode().replace(b"32003", b"\xff"))
    elif case == "field-option":
        # the cache is looked up before the modulus is checked
        argv = ["domdim", "k2", "--field", "4", "--catalog", str(tmp_path / "cat")]
    elif case == "field-line":
        bad.write_text(k2.replace("field 32003", "field 4"))
    elif case == "out-missing-dir":
        argv = ["tensor", "ka2", "k2", "--out", str(tmp_path / "missing" / "x.alg")]
    else:
        argv = ["verify", "muller", "--algebra", "k2"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    if case in MALFORMED:
        assert err.startswith("error: line ")


def test_catalog_from_environment_set_after_import(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QUIVALG_CATALOG", str(tmp_path / "cat"))
    assert run_cli(capsys, "domdim", "k2")[0] == 0
    code, out, _ = run_cli(capsys, "cache", "info")
    assert code == 0
    assert results_dict(out)["records"] == "1"


@pytest.mark.parametrize("error", [MemoryError(), _ArrayMemoryError((67228, 2401), np.dtype(np.int64))])
def test_out_of_memory_exits_3_and_caches_nothing(capsys, tmp_path, monkeypatch, error):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "endomorphism_algebra", exhausted)
    cat = str(tmp_path / "cat")
    code, out, err = run_cli(capsys, "endo", "k2", "regular+S", "--catalog", cat)
    assert (code, out) == (3, "")
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert catalog.cache_info(cat)["records"] == 0


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "quivalg", "corpus", "list"], capture_output=True, text=True, env=env, timeout=120
    )
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert proc.returncode == code == 0
    assert proc.stdout == out
