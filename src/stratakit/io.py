"""JSON schemas and (de)serialization for every exchange format.

Categories and stratified spaces constructed in memory carry structured
ids (tuples); on export these are replaced by the category's dense
numbering (``AcyclicCategory._index``) with the original ids kept as
string labels, so round-trips are stable and diffable.
Schema violations are reported with JSON pointer paths.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .arrangement import Arrangement
from .category import AcyclicCategory
from .css import CombinatorialCSS
from .delta import DeltaComplex
from .graphconf import Graph
from .homology import HomologyResult
from .poset import Poset

__all__ = [
    "SCHEMAS",
    "detect_kind",
    "validate_payload",
    "load_poset",
    "dump_poset",
    "load_category",
    "dump_category",
    "load_css",
    "dump_css",
    "load_delta",
    "dump_delta",
    "load_arrangement",
    "dump_arrangement",
    "load_graph",
    "dump_graph",
    "dump_homology",
    "canonical_json",
]

_ID = {"type": ["integer", "string"]}

SCHEMAS = {
    "poset": {
        "type": "object",
        "required": ["elements", "covers"],
        "properties": {
            "elements": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["id"],
                    "properties": {
                        "id": {"type": "integer"},
                        "grade": {"type": "integer"},
                        "label": {"type": "string"},
                    },
                },
            },
            "covers": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
    },
    "category": {
        "type": "object",
        "required": ["objects", "morphisms", "compose"],
        "properties": {
            "objects": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["id"],
                    "properties": {"id": _ID, "grade": {"type": "integer"}},
                },
            },
            "morphisms": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["id", "src", "dst"],
                    "properties": {"id": _ID, "src": _ID, "dst": _ID},
                },
            },
            "compose": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": _ID,
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
    },
    "delta": {
        "type": "object",
        "required": ["cells", "faces"],
        "properties": {
            "cells": {"type": "array", "items": {"type": "array"}},
            "faces": {
                "type": "object",
                "additionalProperties": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
    },
    "arrangement": {
        "type": "object",
        "required": ["n", "hyperplanes"],
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "hyperplanes": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["a", "b"],
                    "properties": {
                        "a": {
                            "type": "array",
                            "items": {"type": ["string", "integer"]},
                        },
                        "b": {"type": ["string", "integer"]},
                    },
                },
            },
        },
    },
    "graph": {
        "type": "object",
        "required": ["vertices", "edges"],
        "properties": {
            "vertices": {"type": "array", "items": _ID},
            "edges": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["id", "ends"],
                    "properties": {
                        "id": _ID,
                        "ends": {
                            "type": "array",
                            "items": _ID,
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                },
            },
        },
    },
}
SCHEMAS["css"] = {
    "type": "object",
    "required": ["objects", "morphisms", "compose", "dims", "closed"],
    "properties": {
        **SCHEMAS["category"]["properties"],
        "dims": {"type": "object", "additionalProperties": {"type": "integer"}},
        "closed": {
            "type": "object",
            "additionalProperties": {"type": "boolean"},
        },
    },
}


def detect_kind(payload: object) -> str:
    if not isinstance(payload, dict):
        raise ValueError("unrecognized input format")
    if "hyperplanes" in payload:
        return "arrangement"
    if "vertices" in payload and "edges" in payload:
        return "graph"
    if "covers" in payload:
        return "poset"
    if "dims" in payload and "objects" in payload:
        return "css"
    if "objects" in payload and "morphisms" in payload:
        return "category"
    if "cells" in payload and "faces" in payload:
        return "delta"
    raise ValueError("unrecognized input format")


def validate_payload(payload: dict, kind: str) -> list[str]:
    """Schema violations of ``payload`` as ``kind``, each with its JSON
    pointer path; empty iff valid.

    jsonschema is imported here, not at module top, because it is most of
    the import time of ``stratakit.cli`` and only this function uses it:
    commands that validate no JSON input never load it."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(SCHEMAS[kind])
    return [
        f"{'/' + '/'.join(str(p) for p in err.absolute_path)}: {err.message}"
        for err in sorted(validator.iter_errors(payload), key=str)
    ]


def _hashable(v):
    return tuple(_hashable(x) for x in v) if isinstance(v, list) else v


def _ints(entries, pointer: str, what: str) -> None:
    """Raise at the first (position, value) of ``entries`` whose value is
    not an int, naming it by ``pointer`` formatted with the position: 2.0
    passes the schema's integer type, but is no id, index or grade."""
    for pos, v in entries:
        if type(v) is not int:
            raise ValueError(f"{pointer.format(*pos)}: {what} is not an int: {v!r}")


def _ids(entries, pointer: str) -> None:
    """``_ints`` for ids, which are ints or strings: an id 2.0 would pass
    the schema's integer type and be merged with the id 2."""
    for pos, v in entries:
        if isinstance(v, float):
            raise ValueError(
                f"{pointer.format(*pos)}: id is not an int or a string: {v!r}"
            )


def load_poset(payload: dict) -> Poset:
    items = payload["elements"]
    _ints((((i,), e["id"]) for i, e in enumerate(items)), "/elements/{}/id", "id")
    _ints(
        (((i,), e["grade"]) for i, e in enumerate(items) if "grade" in e),
        "/elements/{}/grade",
        "grade",
    )
    _ints(
        (((i, j), v) for i, c in enumerate(payload["covers"]) for j, v in enumerate(c)),
        "/covers/{}/{}",
        "id",
    )
    elements = tuple(e["id"] for e in items)
    grades = {e["id"]: e["grade"] for e in items if "grade" in e}
    labels = {e["id"]: e["label"] for e in items if "label" in e}
    covers = tuple((lo, hi) for lo, hi in payload["covers"])
    return Poset(elements, covers, grades, labels)


def dump_poset(p: Poset) -> dict:
    elements = []
    for e in p.elements:
        entry: dict = {"id": e}
        if e in p.grades:
            entry["grade"] = p.grades[e]
        if e in p.labels:
            entry["label"] = str(p.labels[e])
        elements.append(entry)
    return {"elements": elements, "covers": [list(c) for c in p.covers]}


def load_category(payload: dict) -> AcyclicCategory:
    items = payload["objects"]
    _ids((((i,), o["id"]) for i, o in enumerate(items)), "/objects/{}/id")
    _ints(
        (((i,), o["grade"]) for i, o in enumerate(items) if "grade" in o),
        "/objects/{}/grade",
        "grade",
    )
    _ids(
        (
            ((i, key), m[key])
            for i, m in enumerate(payload["morphisms"])
            for key in ("id", "src", "dst")
        ),
        "/morphisms/{}/{}",
    )
    _ids(
        (((i, j), v) for i, e in enumerate(payload["compose"]) for j, v in enumerate(e)),
        "/compose/{}/{}",
    )
    objects = tuple(o["id"] for o in items)
    grades = {o["id"]: o["grade"] for o in items if "grade" in o}
    mids = tuple(m["id"] for m in payload["morphisms"])
    src = {m["id"]: m["src"] for m in payload["morphisms"]}
    dst = {m["id"]: m["dst"] for m in payload["morphisms"]}
    compose = {
        (_hashable(g), _hashable(f)): _hashable(gf)
        for g, f, gf in payload["compose"]
    }
    return AcyclicCategory(objects, mids, src, dst, compose, grades)


def dump_category(c: AcyclicCategory) -> dict:
    """Objects and morphisms numbered by the category's dense numbering
    (``AcyclicCategory._index``), and the composition entries in (g, f)
    order of those numbers. An entry naming an unknown morphism raises the
    KeyError of that id."""
    ix = c._index
    objects = []
    for x in c.objects:
        entry: dict = {"id": ix.obj[x], "label": str(x)}
        if x in c.grades:
            entry["grade"] = c.grades[x]
        objects.append(entry)
    morphisms = [
        {"id": ix.mor[m], "src": s, "dst": d, "label": str(m)}
        for m, s, d in zip(c.morphisms, ix.src, ix.dst)
    ]
    compose = [
        [ix.mor[g], ix.mor[f], ix.mor[gf]]
        for (g, f), gf in sorted(
            c.compose.items(), key=lambda kv: (ix.mor[kv[0][0]], ix.mor[kv[0][1]])
        )
    ]
    return {"objects": objects, "morphisms": morphisms, "compose": compose}


def load_css(payload: dict) -> CombinatorialCSS:
    """A stratified space; ``dims`` and ``closed`` name each object by its
    ``str``, so a key that two objects share (1 and "1") is rejected."""
    c = load_category(payload)
    dims = {}
    closed = {}
    by_key: dict = {}
    shared = {}
    for x in c.objects:
        if by_key.setdefault(str(x), x) != x:
            shared[str(x)] = f"key names both objects {by_key[str(x)]!r} and {x!r}"

    def cell(section: str, key: str):
        if key not in by_key or key in shared:
            raise ValueError(f"/{section}/{key}: {shared.get(key, 'unknown object')}")
        return by_key[key]

    for key, v in payload["dims"].items():
        x = cell("dims", key)
        # 2.0 (and true) pass the schema's integer type, but no dimension
        if type(v) is not int:
            raise ValueError(f"/dims/{key}: dimension is not an int: {v!r}")
        dims[x] = v
    for key, v in payload["closed"].items():
        closed[cell("closed", key)] = v
    cat = AcyclicCategory(
        c.objects, c.morphisms, c.src, c.dst, c.compose, dims
    )
    return CombinatorialCSS(cat, closed)


def dump_css(x: CombinatorialCSS) -> dict:
    out = dump_category(x.cat)
    oid = x.cat._index.obj
    out["dims"] = {str(oid[v]): x.cat.grades[v] for v in x.cells()}
    out["closed"] = {str(oid[v]): x.closed[v] for v in x.cells()}
    return out


def load_delta(payload: dict) -> DeltaComplex:
    cells = tuple(tuple(_hashable(c) for c in layer) for layer in payload["cells"])
    faces = []
    for n in range(1, len(cells)):
        rows = payload["faces"].get(str(n))
        if rows is None:
            raise ValueError(f"/faces/{n}: missing face table")
        faces.append(tuple(tuple(r) for r in rows))
    names = set(map(str, range(1, len(cells))))
    for key in payload["faces"]:
        if key not in names:
            top = len(cells) - 1
            raise ValueError(f"/faces/{key}: stray face table, top dimension {top}")
    return DeltaComplex(cells, tuple(faces))


def dump_delta(k: DeltaComplex) -> dict:
    return {
        "cells": [[str(c) for c in layer] for layer in k.cells],
        "faces": {
            str(n): [list(r) for r in k.faces[n - 1]]
            for n in range(1, k.dim() + 1)
        },
    }


def _rational(v, pointer: str) -> Fraction:
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{pointer}: not a rational number: {v!r}") from exc


def load_arrangement(payload: dict) -> Arrangement:
    n = payload["n"]
    if type(n) is not int:  # 2.0 passes the schema's integer type
        raise ValueError(f"/n: ambient dimension is not an int: {n!r}")
    rows = [
        (
            [_rational(v, f"/hyperplanes/{k}/a/{i}") for i, v in enumerate(h["a"])],
            _rational(h["b"], f"/hyperplanes/{k}/b"),
        )
        for k, h in enumerate(payload["hyperplanes"])
    ]
    return Arrangement.from_lists(n, rows)


def dump_arrangement(arr: Arrangement) -> dict:
    return {
        "n": arr.n,
        "hyperplanes": [
            {"a": [str(v) for v in a], "b": str(b)} for a, b in arr.forms
        ],
    }


def load_graph(payload: dict) -> Graph:
    edges = payload["edges"]
    _ids((((i,), v) for i, v in enumerate(payload["vertices"])), "/vertices/{}")
    _ids((((i,), e["id"]) for i, e in enumerate(edges)), "/edges/{}/id")
    _ids(
        (((i, j), v) for i, e in enumerate(edges) for j, v in enumerate(e["ends"])),
        "/edges/{}/ends/{}",
    )
    return Graph(
        tuple(_hashable(v) for v in payload["vertices"]),
        tuple(
            (_hashable(e["id"]), (_hashable(e["ends"][0]), _hashable(e["ends"][1])))
            for e in payload["edges"]
        ),
    )


def dump_graph(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e, "ends": list(ends)} for e, ends in g.edges],
    }


def dump_homology(h: HomologyResult) -> dict:
    return {
        "betti": list(h.betti),
        "torsion": [list(t) for t in h.torsion],
    }


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
