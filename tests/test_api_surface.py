"""Every public name of the engine has a reader in the engine or the benchmark.

A name in the ``__all__`` of a ``src/quivalg/*.py`` module counts as read
when some file under ``src/quivalg/`` or ``perfbench/``
- imports it (``from .modules import kernel``),
- reads it as an attribute of its module (``modules.kernel``, also through
  an alias of the module), or
- names it in perfbench's tracer table (``TARGETS`` in ``perfbench/spans.py``),
or when its own module loads it outside its own definition.  Tests do not
count: a name that only tests read is a test helper.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE = ROOT / "src" / "quivalg"
BENCH = ROOT / "perfbench"

# The Frobenius, separable and split predicates of the paper's extension
# statement: public API that the acceptance tests check (criterion 8) and no
# command reads yet.
ALLOWED = {"extension_predicates"}


def _public(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _module_aliases(tree: ast.Module, modules: set[str]) -> dict[str, str]:
    """Local names bound to an engine module: ``from . import catalog``,
    ``import quivalg.modules as m`` and the like, and the module names
    themselves (``quivalg.modules.kernel`` ends in ``modules.kernel``)."""
    aliases = {m: m for m in modules}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                last = alias.name.split(".")[-1]
                if alias.asname and last in modules:
                    aliases[alias.asname] = last
    return aliases


def _targets(path: Path) -> set[tuple[str, str]]:
    """(module, name) of every entry of the ``TARGETS`` table in path: the
    function, or the class whose method is wrapped."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {(mod, cls or attr) for mod, attr, cls in ast.literal_eval(node.value).values()}
    return set()


def _own_loads(tree: ast.Module) -> set[str]:
    """Names the module loads outside the top-level definition of the same
    name, so that recursion is not a reader."""
    loads = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        loads |= {n.id for n in ast.walk(top) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own}
    return loads


def unread_names(engine: Path, readers: list[Path], targets: set[tuple[str, str]]) -> list[str]:
    """``module.name`` for each public name of the modules in engine with no
    reader among the files ``readers`` and ``targets``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(engine.glob("*.py"))}
    read = set(targets)
    for path in readers:
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree, set(trees))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                read |= {(node.module.split(".")[-1], alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute):
                owner = node.value
                key = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if key in aliases:
                    read.add((aliases[key], node.attr))
    unread = []
    for mod, tree in trees.items():
        loads = _own_loads(tree)
        unread.extend(f"{mod}.{n}" for n in _public(tree) if (mod, n) not in read and n not in loads)
    return unread


def test_every_public_engine_name_has_an_engine_or_benchmark_reader():
    readers = sorted(ENGINE.glob("*.py")) + sorted(BENCH.rglob("*.py"))
    unread = unread_names(ENGINE, readers, _targets(BENCH / "spans.py"))
    assert [n for n in unread if n.split(".")[1] not in ALLOWED] == []
    # the allowance is still needed: no engine or benchmark code reads it
    assert sorted(n.split(".")[1] for n in unread) == sorted(ALLOWED)


def test_the_scan_sees_each_kind_of_reader(tmp_path):
    engine = tmp_path / "pkg"
    engine.mkdir()
    (engine / "alpha.py").write_text(
        '__all__ = ["imported", "attribute", "aliased", "loaded", "traced", "recursive", "unread"]\n'
        "def loaded(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "VALUE = loaded()\n"
    )
    (engine / "beta.py").write_text(
        "from .alpha import imported\n"
        "from . import alpha\n"
        "import pkg.alpha as a\n"
        "x = alpha.attribute, a.aliased\n"
    )
    unread = unread_names(engine, sorted(engine.glob("*.py")), {("alpha", "traced")})
    assert unread == ["alpha.recursive", "alpha.unread"]
