"""JSON schemas and (de)serialization for every exchange format.

Categories and stratified spaces constructed in memory carry structured
ids (tuples); on export these are replaced by the category's dense
numbering (``AcyclicCategory._index``) with the original ids kept as
string labels, so round-trips are stable and diffable.

``SCHEMAS`` is the one type check of a JSON input (``validate_payload``),
and each loader takes a payload that satisfies it. Every object schema
is closed: it names exactly the keys its dumper writes, plus the
documented optional ones, and any other key is a violation. An integer
is an int, so ``2.0`` and ``true`` are violations too. Each violation
is reported with its JSON pointer path, in document order.

The check is a small walker over ``SCHEMAS`` in this module, not a JSON
Schema library: it implements exactly the keywords the schemas use
(``type``, ``required``, ``properties``, ``additionalProperties``,
``items``, ``minItems``, ``maxItems``, ``minimum``), with the message
text and pointers of the ``jsonschema`` package's Draft 2020-12
validator, and raises on any other keyword.
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
_INT = {"type": "integer"}
_STR = {"type": "string"}


def _obj(properties: dict, *required: str) -> dict:
    """A closed object schema: its keys are ``properties``, of which
    ``required`` are mandatory, and any other key is a violation."""
    return {
        "type": "object",
        "required": list(required),
        "properties": properties,
        "additionalProperties": False,
    }


def _array(items: dict, size: int | None = None) -> dict:
    """An array schema whose entries match ``items``; ``size`` entries
    exactly when given."""
    if size is None:
        return {"type": "array", "items": items}
    return {"type": "array", "items": items, "minItems": size, "maxItems": size}


_CATEGORY = {
    "objects": _array(_obj({"id": _ID, "grade": _INT, "label": _STR}, "id")),
    "morphisms": _array(
        _obj({"id": _ID, "src": _ID, "dst": _ID, "label": _STR}, "id", "src", "dst")
    ),
    "compose": _array(_array(_ID, 3)),
}
_RATIONAL = {"type": ["string", "integer"]}

SCHEMAS = {
    "poset": _obj(
        {
            "elements": _array(_obj({"id": _INT, "grade": _INT, "label": _STR}, "id")),
            "covers": _array(_array(_INT, 2)),
        },
        "elements",
        "covers",
    ),
    "category": _obj(_CATEGORY, *_CATEGORY),
    "css": _obj(
        {
            **_CATEGORY,
            "dims": {"type": "object", "additionalProperties": _INT},
            "closed": {"type": "object", "additionalProperties": {"type": "boolean"}},
        },
        *_CATEGORY,
        "dims",
        "closed",
    ),
    "delta": _obj(
        {
            "cells": _array({"type": "array"}),
            "faces": {
                "type": "object",
                "additionalProperties": _array(_array(_INT)),
            },
        },
        "cells",
        "faces",
    ),
    "arrangement": _obj(
        {
            "n": {"type": "integer", "minimum": 1},
            "hyperplanes": _array(
                _obj({"a": _array(_RATIONAL), "b": _RATIONAL}, "a", "b")
            ),
        },
        "n",
        "hyperplanes",
    ),
    "graph": _obj(
        {
            "vertices": _array(_ID),
            "edges": _array(_obj({"id": _ID, "ends": _array(_ID, 2)}, "id", "ends")),
        },
        "vertices",
        "edges",
    ),
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
    pointer path; empty iff valid. This is the one type check of a JSON
    input: the schemas are closed, so a key they do not name is a
    violation, and an integer is an int, so ``2.0`` and ``true`` are not.

    The violations come in document order: a value's own (its type, then
    each missing required key in schema order, then its unknown keys),
    then those of its entries in the order the payload lists them. The
    messages are those of the ``jsonschema`` package's Draft 2020-12
    validator."""
    found: list[str] = []
    _check(payload, SCHEMAS[kind], "", found)
    return found


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}
_KEYWORDS = frozenset(
    "type required properties additionalProperties items minItems maxItems minimum".split()
)


def _check(value, schema: dict, at: str, found: list[str]) -> None:
    """Append to ``found`` each violation of ``schema`` by ``value``, whose
    JSON pointer is ``at``, in document order. A keyword this walker does
    not implement raises, so a schema edit cannot be silently ignored."""
    if not schema.keys() <= _KEYWORDS:
        raise NotImplementedError(f"schema keywords {sorted(schema.keys() - _KEYWORDS)}")
    pointer = at or "/"
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    for t in types:
        if type(value) is int if t == "integer" else isinstance(value, _TYPES[t]):
            break
    else:
        if types:
            found.append(f"{pointer}: {value!r} is not of type {', '.join(map(repr, types))}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                found.append(f"{pointer}: {key!r} is a required property")
        named = schema.get("properties", {})
        rest = schema.get("additionalProperties", True)
        if rest is False and not value.keys() <= named.keys():
            extras = sorted(value.keys() - named.keys(), key=str)
            listed = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
            found.append(
                f"{pointer}: Additional properties are not allowed ({listed} unexpected)"
            )
        for key, entry in value.items():
            if isinstance(sub := named.get(key, rest), dict):
                _check(entry, sub, f"{at}/{key}", found)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            found.append(f"{pointer}: {value!r} {short}")
        if len(value) > schema.get("maxItems", len(value)):
            long = "is expected to be empty" if schema["maxItems"] == 0 else "is too long"
            found.append(f"{pointer}: {value!r} {long}")
        for i, entry in enumerate(value if "items" in schema else ()):
            _check(entry, schema["items"], f"{at}/{i}", found)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        low = schema.get("minimum", value)
        if value < low:
            found.append(f"{pointer}: {value!r} is less than the minimum of {low!r}")


def _hashable(v):
    return tuple(_hashable(x) for x in v) if isinstance(v, list) else v


def load_poset(payload: dict) -> Poset:
    """A poset from a payload that satisfies ``SCHEMAS["poset"]``."""
    items = payload["elements"]
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
    """A category from a payload that satisfies ``SCHEMAS["category"]``
    (or ``SCHEMAS["css"]``); labels are not read."""
    items = payload["objects"]
    objects = tuple(o["id"] for o in items)
    grades = {o["id"]: o["grade"] for o in items if "grade" in o}
    mids = tuple(m["id"] for m in payload["morphisms"])
    src = {m["id"]: m["src"] for m in payload["morphisms"]}
    dst = {m["id"]: m["dst"] for m in payload["morphisms"]}
    compose = {(g, f): gf for g, f, gf in payload["compose"]}
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
    """A stratified space from a payload that satisfies ``SCHEMAS["css"]``;
    ``dims`` and ``closed`` name each object by its ``str``, so a key that
    two objects share (1 and "1") is rejected."""
    c = load_category(payload)
    by_key: dict = {}
    shared = {}
    for x in c.objects:
        if by_key.setdefault(str(x), x) != x:
            shared[str(x)] = f"key names both objects {by_key[str(x)]!r} and {x!r}"

    def cell(section: str, key: str):
        if key not in by_key or key in shared:
            raise ValueError(f"/{section}/{key}: {shared.get(key, 'unknown object')}")
        return by_key[key]

    dims = {cell("dims", key): v for key, v in payload["dims"].items()}
    closed = {cell("closed", key): v for key, v in payload["closed"].items()}
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
    """A Delta complex from a payload that satisfies ``SCHEMAS["delta"]``,
    with one face table for each dimension from 1 to the top."""
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
    """An arrangement from a payload that satisfies
    ``SCHEMAS["arrangement"]``, each coefficient a rational."""
    rows = [
        (
            [_rational(v, f"/hyperplanes/{k}/a/{i}") for i, v in enumerate(h["a"])],
            _rational(h["b"], f"/hyperplanes/{k}/b"),
        )
        for k, h in enumerate(payload["hyperplanes"])
    ]
    return Arrangement.from_lists(payload["n"], rows)


def dump_arrangement(arr: Arrangement) -> dict:
    return {
        "n": arr.n,
        "hyperplanes": [
            {"a": [str(v) for v in a], "b": str(b)} for a, b in arr.forms
        ],
    }


def load_graph(payload: dict) -> Graph:
    """A graph from a payload that satisfies ``SCHEMAS["graph"]``."""
    return Graph(
        tuple(payload["vertices"]),
        tuple((e["id"], tuple(e["ends"])) for e in payload["edges"]),
    )


def dump_graph(g: Graph) -> dict:
    """Ids as they are if ints or strings, else as their ``str`` (the
    edges of ``k5_graph`` are named by vertex pairs)."""

    def name(v):
        return v if type(v) in (int, str) else str(v)

    return {
        "vertices": [name(v) for v in g.vertices],
        "edges": [{"id": name(e), "ends": [name(v) for v in ends]} for e, ends in g.edges],
    }


def dump_homology(h: HomologyResult) -> dict:
    return {
        "betti": list(h.betti),
        "torsion": [list(t) for t in h.torsion],
    }


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
