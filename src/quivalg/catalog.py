"""Textual algebra documents, named modules, and the invariant cache.

The .alg format is a sectioned plain-text syntax, versioned and canonical:
parse -> serialize -> parse returns byte-identical text, so the content hash
of a document is stable.  Paths in relations read like function composition:
``b*a`` applies a first.  Cache records are content-addressed JSON files
written atomically; a record is keyed by everything that can change the
answer (input hash, operation, cutoff, modulus, engine version).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import Algebra, QuiverPresentation, build_from_quiver
from .errors import InputError
from .homology import DecomposedModule, minimal_gen_cogen
from .linalg import PrimeField
from .modules import ModuleRep, standard_modules

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ENGINE_VERSION",
    "AlgebraDoc",
    "parse",
    "serialize",
    "LoadedAlgebra",
    "load",
    "named_modules",
    "resolve_expression",
    "record_key",
    "cache_get",
    "cache_put",
    "cache_clear",
    "cache_info",
]

FORMAT_NAME = "quivalg-algebra"
FORMAT_VERSION = 1
ENGINE_VERSION = "quivalg-0.1.0"
DEFAULT_FIELD = 32003


# ---------------------------------------------------------------------------
# document model


@dataclass
class ModuleDoc:
    name: str
    # quiver mode
    vertex_dims: dict[str, int] = dc_field(default_factory=dict)
    arrow_mats: dict[str, list[list[int]]] = dc_field(default_factory=dict)
    # table mode
    actions: dict[int, list[list[int]]] = dc_field(default_factory=dict)


@dataclass
class AlgebraDoc:
    version: int
    p: int
    mode: str  # "quiver" | "table"
    # quiver mode
    vertices: list[str] = dc_field(default_factory=list)
    arrows: list[tuple[str, str, str]] = dc_field(default_factory=list)
    relations: list[list[tuple[int, tuple[str, ...]]]] = dc_field(default_factory=list)
    nilpotency: int = 1
    # table mode
    dim: int = 0
    labels: list[str] = dc_field(default_factory=list)
    unit: list[int] = dc_field(default_factory=list)
    idempotents: list[list[int]] = dc_field(default_factory=list)
    mult_triples: list[tuple[int, int, int, int]] = dc_field(default_factory=list)
    modules: list[ModuleDoc] = dc_field(default_factory=list)

    def content_hash(self) -> str:
        return hashlib.sha256(serialize(self).encode()).hexdigest()


class ParseError(InputError):
    def __init__(self, line_no: int, col: int, message: str):
        super().__init__(f"line {line_no}, column {col}: {message}")
        self.line_no = line_no
        self.col = col


# ---------------------------------------------------------------------------
# parsing


def _parse_matrix(text: str, line_no: int) -> list[list[int]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(line_no, 1, f"matrix must be bracketed: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return []
    rows = []
    for part in body.split(";"):
        part = part.strip()
        if not part:
            rows.append([])
            continue
        try:
            rows.append([int(x) for x in part.split(",")])
        except ValueError:
            raise ParseError(line_no, 1, f"bad matrix entry in {part!r}")
    return rows


def _parse_relation(text: str, line_no: int) -> list[tuple[int, tuple[str, ...]]]:
    terms = []
    for chunk in text.split(" + "):
        parts = chunk.split()
        if len(parts) != 2:
            raise ParseError(line_no, 1, f"relation term must be 'coeff path': {chunk!r}")
        try:
            coeff = int(parts[0])
        except ValueError:
            raise ParseError(line_no, 1, f"bad coefficient {parts[0]!r}")
        path = tuple(parts[1].split("*"))
        terms.append((coeff, path))
    return terms


def parse(text: str) -> AlgebraDoc:
    lines = text.splitlines()
    doc: Optional[AlgebraDoc] = None
    section: Optional[str] = None
    current_module: Optional[ModuleDoc] = None
    header: dict[str, str] = {}

    def err(i, msg):
        raise ParseError(i + 1, 1, msg)

    body_started = False
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if doc is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != FORMAT_NAME:
                err(i, f"expected format line '{FORMAT_NAME} {FORMAT_VERSION}'")
            try:
                version = int(parts[1])
            except ValueError:
                err(i, "bad format version")
            if version != FORMAT_VERSION:
                err(i, f"unsupported format version {version}")
            doc = AlgebraDoc(version=version, p=DEFAULT_FIELD, mode="")
            continue
        if line.startswith("[") and line.endswith("]"):
            body_started = True
            name = line[1:-1].strip()
            if name.startswith("module "):
                current_module = ModuleDoc(name=name[len("module ") :].strip())
                if not current_module.name:
                    err(i, "module section needs a name")
                if any(m.name == current_module.name for m in doc.modules):
                    err(i, f"duplicate module name {current_module.name!r}")
                doc.modules.append(current_module)
                section = "module"
            elif name in ("quiver", "relations", "table", "idempotent"):
                section = name
                current_module = None
                if name == "idempotent":
                    doc.idempotents.append([])
            else:
                err(i, f"unknown section [{name}]")
            continue
        if not body_started:
            parts = line.split()
            key = parts[0]
            if key == "field":
                try:
                    doc.p = int(parts[1])
                except (IndexError, ValueError):
                    err(i, "bad field line")
            elif key == "mode":
                if len(parts) != 2 or parts[1] not in ("quiver", "table"):
                    err(i, "mode must be quiver or table")
                doc.mode = parts[1]
            else:
                err(i, f"unknown header key {key!r}")
            continue
        parts = line.split()
        if section == "quiver":
            if parts[0] == "vertices":
                doc.vertices = parts[1:]
            elif parts[0] == "arrow":
                if len(parts) != 4:
                    err(i, "arrow line must be 'arrow name src tgt'")
                doc.arrows.append((parts[1], parts[2], parts[3]))
            elif parts[0] == "nilpotency":
                try:
                    doc.nilpotency = int(parts[1])
                except (IndexError, ValueError):
                    err(i, "bad nilpotency line")
            else:
                err(i, f"unknown quiver key {parts[0]!r}")
        elif section == "relations":
            doc.relations.append(_parse_relation(line, i + 1))
        elif section == "table":
            if parts[0] == "dim":
                doc.dim = int(parts[1])
            elif parts[0] == "labels":
                doc.labels = parts[1:]
            elif parts[0] == "unit":
                try:
                    doc.unit = [int(x) for x in parts[1:]]
                except ValueError:
                    err(i, "bad unit line")
            elif parts[0] == "mult":
                if len(parts) != 5:
                    err(i, "mult line must be 'mult a b c value'")
                try:
                    doc.mult_triples.append(tuple(int(x) for x in parts[1:]))
                except ValueError:
                    err(i, "bad mult line")
            else:
                err(i, f"unknown table key {parts[0]!r}")
        elif section == "idempotent":
            try:
                doc.idempotents[-1].extend(int(x) for x in parts)
            except ValueError:
                err(i, "bad idempotent line")
        elif section == "module":
            if doc.mode == "quiver" and parts[0] == "vertex":
                if len(parts) != 4 or parts[2] != "dim":
                    err(i, "module vertex line must be 'vertex v dim n'")
                current_module.vertex_dims[parts[1]] = int(parts[3])
            elif doc.mode == "quiver" and parts[0] == "arrow":
                current_module.arrow_mats[parts[1]] = _parse_matrix(
                    line.split(None, 2)[2], i + 1
                )
            elif doc.mode == "table" and parts[0] == "action":
                current_module.actions[int(parts[1])] = _parse_matrix(
                    line.split(None, 2)[2], i + 1
                )
            else:
                err(i, f"unknown module key {parts[0]!r} for mode {doc.mode}")
        else:
            err(i, "content outside any section")
    if doc is None:
        raise ParseError(1, 1, "empty document")
    if doc.mode not in ("quiver", "table"):
        raise ParseError(1, 1, "missing or bad mode header")
    return doc


# ---------------------------------------------------------------------------
# serialization (canonical)


def _fmt_matrix(rows: list[list[int]]) -> str:
    return "[" + ";".join(",".join(str(x) for x in r) for r in rows) + "]"


def serialize(doc: AlgebraDoc) -> str:
    out = [f"{FORMAT_NAME} {FORMAT_VERSION}", f"field {doc.p}", f"mode {doc.mode}", ""]
    if doc.mode == "quiver":
        out.append("[quiver]")
        out.append("vertices " + " ".join(doc.vertices))
        for name, src, tgt in doc.arrows:
            out.append(f"arrow {name} {src} {tgt}")
        out.append(f"nilpotency {doc.nilpotency}")
        out.append("")
        if doc.relations:
            out.append("[relations]")
            for rel in doc.relations:
                out.append(" + ".join(f"{c} {'*'.join(path)}" for c, path in rel))
            out.append("")
    else:
        out.append("[table]")
        out.append(f"dim {doc.dim}")
        out.append("labels " + " ".join(doc.labels))
        out.append("unit " + " ".join(str(x) for x in doc.unit))
        for t in sorted(doc.mult_triples):
            out.append(f"mult {t[0]} {t[1]} {t[2]} {t[3]}")
        out.append("")
        for e in doc.idempotents:
            out.append("[idempotent]")
            out.append(" ".join(str(x) for x in e))
            out.append("")
    for mod in doc.modules:
        out.append(f"[module {mod.name}]")
        if doc.mode == "quiver":
            for v in doc.vertices:
                out.append(f"vertex {v} dim {mod.vertex_dims.get(v, 0)}")
            for name, _, _ in doc.arrows:
                out.append(f"arrow {name} " + _fmt_matrix(mod.arrow_mats.get(name, [])))
        else:
            for b in sorted(mod.actions):
                out.append(f"action {b} " + _fmt_matrix(mod.actions[b]))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def doc_from_algebra(a: Algebra, modules: Optional[dict[str, ModuleRep]] = None) -> AlgebraDoc:
    """Table-mode document for an algebra built in memory."""
    doc = AlgebraDoc(version=FORMAT_VERSION, p=a.field.p, mode="table")
    doc.dim = a.dim
    doc.labels = list(a.labels)
    doc.unit = [int(x) for x in a.unit]
    doc.idempotents = [[int(x) for x in e] for e in a.idempotents]
    nz = np.argwhere(a.mult != 0)
    doc.mult_triples = [
        (int(i), int(j), int(c), int(a.mult[i, j, c])) for i, j, c in nz
    ]
    for name, m in (modules or {}).items():
        md = ModuleDoc(name=name)
        for b in range(a.dim):
            md.actions[b] = [[int(x) for x in row] for row in m.action[b]]
        doc.modules.append(md)
    return doc


# ---------------------------------------------------------------------------
# building algebras and modules from documents


@dataclass
class LoadedAlgebra:
    doc: AlgebraDoc
    algebra: Algebra
    modules: dict[str, ModuleRep]

    @cached_property
    def input_hash(self) -> str:
        """Content hash of ``doc``, serialized once; the document is not
        changed after loading."""
        return self.doc.content_hash()


def _build_quiver_module(alg: Algebra, doc: AlgebraDoc, mod: ModuleDoc) -> ModuleRep:
    if alg.basis_paths is None:
        raise InputError("quiver module on a non-quiver algebra")
    p = alg.field.p
    dims = {v: int(mod.vertex_dims.get(v, 0)) for v in doc.vertices}
    offsets = {}
    total = 0
    for v in doc.vertices:
        offsets[v] = total
        total += dims[v]
    arrow_info = {name: (src, tgt) for name, src, tgt in doc.arrows}
    mats = {}
    for name, (src, tgt) in arrow_info.items():
        rows = mod.arrow_mats.get(name, [])
        m = np.array(rows, dtype=np.int64) if rows else np.zeros((0, 0), dtype=np.int64)
        if m.size == 0:
            m = np.zeros((dims[tgt], dims[src]), dtype=np.int64)
        if m.shape != (dims[tgt], dims[src]):
            raise InputError(
                f"module {mod.name!r}: arrow {name} matrix is {m.shape}, "
                f"needs ({dims[tgt]}, {dims[src]})"
            )
        mats[name] = m % p
    vertex_set = {(v,) for v in doc.vertices}
    action = np.zeros((alg.dim, total, total), dtype=np.int64)
    for b, path in enumerate(alg.basis_paths):
        if path in vertex_set:
            v = path[0]
            action[b, offsets[v] : offsets[v] + dims[v], offsets[v] : offsets[v] + dims[v]] = np.eye(
                dims[v], dtype=np.int64
            )
            continue
        src = arrow_info[path[-1]][0]
        tgt = arrow_info[path[0]][1]
        mat = np.eye(dims[src], dtype=np.int64)
        for name in reversed(path):
            mat = (mats[name] @ mat) % p
        action[b, offsets[tgt] : offsets[tgt] + dims[tgt], offsets[src] : offsets[src] + dims[src]] = mat
    rep = ModuleRep(alg, action)
    try:
        rep.check()
    except InputError as e:
        raise InputError(f"module {mod.name!r} rejected: {e}") from None
    return rep


def build_doc(doc: AlgebraDoc, field_override: Optional[int] = None) -> LoadedAlgebra:
    p = field_override if field_override is not None else doc.p
    try:
        field = PrimeField(p)
    except ValueError as e:
        raise InputError(str(e)) from None
    if doc.mode == "quiver":
        pres = QuiverPresentation(
            tuple(doc.vertices),
            tuple(doc.arrows),
            tuple(tuple(rel) for rel in doc.relations),
            doc.nilpotency,
        )
        alg = build_from_quiver(pres, field)
    else:
        d = doc.dim
        mult = np.zeros((d, d, d), dtype=np.int64)
        for i, j, c, v in doc.mult_triples:
            if not (0 <= i < d and 0 <= j < d and 0 <= c < d):
                raise InputError(f"mult triple ({i},{j},{c}) out of range")
            mult[i, j, c] = v
        labels = doc.labels if doc.labels else [f"b{i}" for i in range(d)]
        if len(labels) != d:
            raise InputError("label count does not match dim")
        if len(doc.unit) != d:
            raise InputError("unit vector length does not match dim")
        if not doc.idempotents:
            raise InputError("table mode requires an explicit idempotent list")
        for e in doc.idempotents:
            if len(e) != d:
                raise InputError("idempotent vector length does not match dim")
        alg = Algebra(field, labels, mult, np.array(doc.unit), [np.array(e) for e in doc.idempotents])
    mods: dict[str, ModuleRep] = {}
    for m in doc.modules:
        if doc.mode == "quiver":
            mods[m.name] = _build_quiver_module(alg, doc, m)
        else:
            action = np.zeros((alg.dim, 0, 0), dtype=np.int64)
            if m.actions:
                dims = {np.array(rows).shape for rows in m.actions.values() if rows}
                mdim = next(iter(dims))[0] if dims else 0
                action = np.zeros((alg.dim, mdim, mdim), dtype=np.int64)
                for b in range(alg.dim):
                    rows = m.actions.get(b)
                    if rows is None:
                        raise InputError(f"module {m.name!r} missing action {b}")
                    arr = np.array(rows, dtype=np.int64)
                    if arr.shape != (mdim, mdim):
                        raise InputError(f"module {m.name!r}: action {b} has shape {arr.shape}")
                    action[b] = arr % field.p
            rep = ModuleRep(alg, action)
            try:
                rep.check()
            except InputError as e:
                raise InputError(f"module {m.name!r} rejected: {e}") from None
            mods[m.name] = rep
    return LoadedAlgebra(doc, alg, mods)


def load(text: str, field_override: Optional[int] = None) -> LoadedAlgebra:
    return build_doc(parse(text), field_override)


# ---------------------------------------------------------------------------
# named modules and module expressions


def named_modules(loaded: LoadedAlgebra) -> dict[str, list[ModuleRep]]:
    """Summand lists for every addressable module name.

    Derived names: S1.., P1.., I1.., regular (all projectives), D (all
    injectives), gencogen (deduplicated projectives and injectives); with a
    single idempotent the unindexed aliases S, P, I also work.  Documents may
    add their own named modules.
    """
    alg = loaded.algebra
    std = standard_modules(alg)
    names: dict[str, list[ModuleRep]] = {}
    n = len(alg.idempotents)
    for i in range(n):
        names[f"S{i + 1}"] = [std.simples[i]]
        names[f"P{i + 1}"] = [std.projectives[i]]
        names[f"I{i + 1}"] = [std.injectives[i]]
    if n == 1:
        names["S"] = names["S1"]
        names["P"] = names["P1"]
        names["I"] = names["I1"]
    names["regular"] = list(std.projectives)
    names["D"] = list(std.injectives)
    names["gencogen"] = minimal_gen_cogen(alg).summands
    for name, m in loaded.modules.items():
        names[name] = [m]
    return names


def resolve_expression(loaded: LoadedAlgebra, expr: str) -> DecomposedModule:
    """A '+'-separated sum of named modules, for example 'regular+S'."""
    expr = expr.strip()
    if "=" in expr:
        expr = expr.split("=", 1)[1].strip()
    table = named_modules(loaded)
    summands: list[ModuleRep] = []
    for token in expr.split("+"):
        token = token.strip()
        if not token:
            raise InputError("empty term in module expression")
        if token not in table:
            known = ", ".join(sorted(table))
            raise InputError(f"unknown module name {token!r} (known: {known})")
        summands.extend(table[token])
    if not summands:
        raise InputError("module expression resolves to nothing")
    return DecomposedModule.from_summands(summands)


# ---------------------------------------------------------------------------
# invariant cache


def record_key(
    name: str,
    input_hash: str,
    cutoff: int,
    p: int,
    extra: Optional[dict[str, str]] = None,
) -> dict:
    key = {
        "engine": ENGINE_VERSION,
        "name": name,
        "input": input_hash,
        "cutoff": cutoff,
        "field": p,
    }
    if extra:
        key["extra"] = dict(sorted(extra.items()))
    return key


def _key_path(catalog: str, key: dict) -> str:
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    return os.path.join(catalog, f"{digest}.json")


def cache_get(catalog: str, key: dict) -> Optional[dict]:
    path = _key_path(catalog, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError):
        import sys

        print(f"warning: ignoring corrupt cache record {path}", file=sys.stderr)
        return None
    if record.get("key") != key:
        return None
    return record.get("payload")


def cache_put(catalog: str, key: dict, payload: dict):
    os.makedirs(catalog, exist_ok=True)
    path = _key_path(catalog, key)
    data = json.dumps({"key": key, "payload": payload}, sort_keys=True, indent=1)
    fd, tmp = tempfile.mkstemp(dir=catalog, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_clear(catalog: str) -> int:
    if not os.path.isdir(catalog):
        return 0
    n = 0
    for name in sorted(os.listdir(catalog)):
        if name.endswith(".json"):
            os.unlink(os.path.join(catalog, name))
            n += 1
    return n


def cache_info(catalog: str) -> dict:
    if not os.path.isdir(catalog):
        return {"records": 0, "bytes": 0}
    files = [f for f in os.listdir(catalog) if f.endswith(".json")]
    total = sum(os.path.getsize(os.path.join(catalog, f)) for f in files)
    return {"records": len(files), "bytes": total}
