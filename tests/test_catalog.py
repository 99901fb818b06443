import re

import pytest

from quivalg import catalog, corpus
from quivalg.catalog import (
    AlgebraDoc,
    ParseError,
    cache_get,
    cache_info,
    cache_put,
    doc_from_algebra,
    load,
    named_modules,
    parse,
    record_key,
    resolve_expression,
    serialize,
)
from quivalg.errors import InputError


def test_fixture_round_trips():
    for e in corpus.ENTRIES:
        text = corpus.fixture_text(e.name)
        doc = parse(text)
        again = parse(serialize(doc))
        assert again.content_hash() == doc.content_hash(), e.name


def test_fixtures_validate_on_load():
    for e in corpus.ENTRIES:
        loaded = corpus.load_entry(e.name)
        loaded.algebra.radical()  # smoke: structure is usable


def test_parse_bad_format_line():
    with pytest.raises(ParseError, match="line 1"):
        parse("not-a-format 1\n")


def test_parse_unknown_section():
    text = "quivalg-algebra 1\nmode quiver\n\n[nonsense]\n"
    with pytest.raises(ParseError, match="unknown section"):
        parse(text)


def test_parse_bad_version():
    with pytest.raises(ParseError, match="unsupported format version"):
        parse("quivalg-algebra 99\nmode quiver\n")


def test_nonassociative_table_rejected_naming_triple():
    text = """quivalg-algebra 1
field 32003
mode table

[table]
dim 3
labels e x y
unit 1 0 0
mult 0 0 0 1
mult 0 1 1 1
mult 1 0 1 1
mult 0 2 2 1
mult 2 0 2 1
mult 1 2 2 1

[idempotent]
1 0 0
"""
    with pytest.raises(InputError, match=r"associativity fails on basis triple \(x, x, y\)"):
        load(text)


def test_table_mode_requires_idempotents():
    text = """quivalg-algebra 1
field 32003
mode table

[table]
dim 1
labels one
unit 1
mult 0 0 0 1
"""
    with pytest.raises(InputError, match="idempotent"):
        load(text)


# k[x]/(x^2) as a table-mode algebra, basis e, x
DUAL_NUMBERS_TABLE = """quivalg-algebra 1
field 32003
mode table

[table]
dim 2
labels e x
unit 1 0
mult 0 0 0 1
mult 0 1 1 1
mult 1 0 1 1

[idempotent]
1 0
"""


@pytest.mark.parametrize("lines", ["", "action 0 []\naction 1 []\n"])
def test_table_mode_zero_module_loads_with_or_without_empty_actions(lines):
    # "[]" is the 0 x 0 matrix, as "arrow a []" is in quiver mode
    loaded = load(DUAL_NUMBERS_TABLE + "\n[module Z]\n" + lines)
    assert loaded.modules["Z"].dim == 0
    assert loaded.modules["Z"].action.shape == (2, 0, 0)


def test_table_mode_empty_action_of_a_nonzero_module_is_refused():
    text = DUAL_NUMBERS_TABLE + "\n[module M]\naction 0 [1,0;0,1]\naction 1 []\n"
    with pytest.raises(InputError, match=r"module 'M': action 1 has shape \(0, 0\)"):
        load(text)


def test_table_mode_module_refusal_names_the_generator_and_basis_element():
    # x acts by an idempotent matrix X: x.x = 0 must act by 0, but X X = X
    text = DUAL_NUMBERS_TABLE + "\n[module BAD]\naction 0 [1,0;0,1]\naction 1 [0,0;1,1]\n"
    with pytest.raises(InputError, match="module 'BAD' rejected: action violates structure constants "
                       "on arrow 0 and basis element x"):
        load(text)


def test_quiver_module_builds():
    text = corpus.fixture_text("ka2") + """
[module N]
vertex 1 dim 1
vertex 2 dim 1
arrow a [1]
"""
    loaded = load(text)
    assert loaded.modules["N"].dim == 2
    from quivalg.modules import is_isomorphic, standard_modules

    p1 = standard_modules(loaded.algebra).projectives[0]
    assert is_isomorphic([p1], loaded.modules["N"])


def test_quiver_module_violating_relations_rejected():
    text = corpus.fixture_text("aus") + """
[module BAD]
vertex 1 dim 1
vertex 2 dim 1
arrow a [1]
arrow b [1]
"""
    with pytest.raises(InputError, match="BAD"):
        load(text)


def test_named_modules_and_aliases():
    loaded = corpus.load_entry("k2")
    names = named_modules(loaded)
    assert {"S", "S1", "P", "P1", "I", "I1", "regular", "D", "gencogen"} <= set(names)
    dm = resolve_expression(loaded, "M=regular+S")
    assert dm.dim == 3
    assert len(dm.summands) == 2


def test_expression_regular_expands_to_projectives():
    loaded = corpus.load_entry("ka2")
    dm = resolve_expression(loaded, "regular")
    assert [s.dim for s in dm.summands] == [2, 1]


def test_unknown_module_name():
    loaded = corpus.load_entry("k2")
    with pytest.raises(InputError, match="unknown module name"):
        resolve_expression(loaded, "nonsense")


def test_doc_from_algebra_round_trip(K2xK2):
    doc = doc_from_algebra(K2xK2)
    loaded = load(serialize(doc))
    assert loaded.algebra.dim == 4
    assert loaded.algebra.content_hash() == K2xK2.content_hash()


def test_field_override():
    loaded = corpus.load_entry("k2", field_override=101)
    assert loaded.algebra.field.p == 101


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip(tmp_path):
    cat = str(tmp_path / "cat")
    key = record_key("domdim", "abc", 6, 32003)
    assert cache_get(cat, key) is None
    cache_put(cat, key, {"results": [["value", "2"]]})
    assert cache_get(cat, key) == {"results": [["value", "2"]]}


def test_cache_version_miss(tmp_path):
    cat = str(tmp_path / "cat")
    key = record_key("domdim", "abc", 6, 32003)
    cache_put(cat, key, {"x": 1})
    other = dict(key, engine="quivalg-9.9.9")
    assert cache_get(cat, other) is None


def test_cache_misses_under_another_source_digest(tmp_path, monkeypatch):
    cat = str(tmp_path / "cat")
    monkeypatch.setattr(catalog, "_source_digest", lambda: "0" * 12)
    cache_put(cat, record_key("domdim", "abc", 6, 32003), {"x": 1})
    assert cache_get(cat, record_key("domdim", "abc", 6, 32003)) == {"x": 1}
    monkeypatch.setattr(catalog, "_source_digest", lambda: "1" * 12)
    assert cache_get(cat, record_key("domdim", "abc", 6, 32003)) is None


def test_engine_version_is_derived_from_the_sources(capsys):
    from quivalg.cli import main

    digest = catalog._source_digest()
    assert re.fullmatch("[0-9a-f]{12}", digest)
    assert catalog.ENGINE_VERSION == f"quivalg-0.1.0+{digest}"
    assert record_key("domdim", "abc", 6, 32003)["engine"] == catalog.ENGINE_VERSION
    assert main(["domdim", "k2"]) == 0
    assert f"\nengine = quivalg-0.1.0+{digest}\n" in capsys.readouterr().out


def test_cache_corruption_ignored(tmp_path, capsys):
    cat = tmp_path / "cat"
    cat.mkdir()
    key = record_key("domdim", "abc", 6, 32003)
    cache_put(str(cat), key, {"x": 1})
    for f in cat.glob("*.json"):
        f.write_text("{broken json")
    assert cache_get(str(cat), key) is None
    assert "corrupt" in capsys.readouterr().err


def test_cache_overwrite_single_record(tmp_path):
    cat = str(tmp_path / "cat")
    key = record_key("domdim", "abc", 6, 32003)
    cache_put(cat, key, {"x": 1})
    cache_put(cat, key, {"x": 1})
    assert cache_info(cat)["records"] == 1


def test_cache_clear(tmp_path):
    cat = str(tmp_path / "cat")
    key = record_key("domdim", "abc", 6, 32003)
    cache_put(cat, key, {"x": 1})
    from quivalg.catalog import cache_clear

    assert cache_clear(cat) == 1
    assert cache_info(cat)["records"] == 0


def test_field_override_preserves_verdicts():
    # the corpus notes claim characteristic independence for p > dim
    from quivalg.homology import dominant_dimension

    want = {"k2": "infinity-certified", "ka2": "1", "aus": "2", "ka2xk2": "1"}
    for p in (101, 32003):
        for name, expected in want.items():
            loaded = corpus.load_entry(name, field_override=p)
            assert str(dominant_dimension(loaded.algebra, 6)) == expected, (name, p)


def test_input_hash_is_computed_once(monkeypatch):
    loaded = corpus.load_entry("ka2xk2")
    first = loaded.input_hash
    assert first == loaded.doc.content_hash()

    def no_rehash(self):
        raise AssertionError("document serialized again")

    monkeypatch.setattr(AlgebraDoc, "content_hash", no_rehash)
    assert loaded.input_hash == first
