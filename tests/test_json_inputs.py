"""The JSON input boundary: the schemas are closed to exactly the keys
the dumpers write, a report of ``export json`` reads back through
``--file``, no mutation of an exported payload makes a command raise, and
the schema walker of ``stratakit.io`` reports what a Draft 2020-12
validator reports."""

import contextlib
import copy
import io
import json
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import io as sio
from stratakit.arrangement import braid_arrangement, faces_level1
from stratakit.cli import main
from stratakit.css import sd
from stratakit.fixtures import CSS_FIXTURES
from stratakit.graphconf import GRAPH_FIXTURES, graph_fixture


def call(*argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def exports():
    """(kind, payload) of every fixture kind, as the dumpers write it: the
    CSS fixtures, their categories and ``sd`` complexes, the graph
    fixtures, braid(3) and its face poset."""
    spaces = [CSS_FIXTURES[name]() for name in sorted(CSS_FIXTURES)]
    braid = braid_arrangement(3)
    return (
        [("css", sio.dump_css(x)) for x in spaces]
        + [("category", sio.dump_category(x.cat)) for x in spaces]
        + [("delta", sio.dump_delta(sd(x))) for x in spaces]
        + [("graph", sio.dump_graph(graph_fixture(g))) for g in sorted(GRAPH_FIXTURES)]
        + [("arrangement", sio.dump_arrangement(braid))]
        + [("poset", sio.dump_poset(faces_level1(braid)))]
    )


EXPORTS = exports()


# --- closed schemas -------------------------------------------------------


def closed_objects(schema, at=()):
    """(location, schema) of each object schema with named keys; a
    location is a path of keys, with "*" for any entry of an array. No
    map (``dims``, ``closed``, ``faces``) holds an object."""
    if "properties" in schema:
        yield at, schema
        for key, sub in schema["properties"].items():
            yield from closed_objects(sub, at + (key,))
    if isinstance(schema.get("items"), dict):
        yield from closed_objects(schema["items"], at + ("*",))


def written_keys(value, at, found):
    """Add the key set of each object in ``value`` to ``found[location]``."""
    if isinstance(value, dict):
        found.setdefault(at, []).append(set(value))
        for key, sub in value.items():
            written_keys(sub, at + (key,), found)
    elif isinstance(value, list):
        for sub in value:
            written_keys(sub, at + ("*",), found)


@pytest.mark.parametrize("kind", sorted(sio.SCHEMAS))
def test_each_closed_schema_names_exactly_the_keys_its_dumper_writes(kind):
    found: dict = {}
    payloads = [p for k, p in EXPORTS if k == kind]
    for payload in payloads:
        assert sio.validate_payload(payload, kind) == []
        written_keys(payload, (), found)
    objects = list(closed_objects(sio.SCHEMAS[kind]))
    assert objects and payloads
    for at, schema in objects:
        assert schema["additionalProperties"] is False, at
        # a key is named iff some dump writes it, and a required key is
        # written by every dump
        assert set(schema["properties"]) == set().union(*found[at]), at
        assert all(set(schema["required"]) <= keys for keys in found[at]), at


ARRANGEMENT = {"n": 2, "hyperplanes": [{"a": ["1", "0"], "b": "0"}]}


@pytest.mark.parametrize(
    "payload, line",
    [
        (
            {**ARRANGEMENT, "hyperplanse": [{"a": ["0", "1"], "b": "0"}]},
            "error: schema violations: "
            "/: Additional properties are not allowed ('hyperplanse' was unexpected)",
        ),
        (
            {"n": 2, "hyperplanes": [*ARRANGEMENT["hyperplanes"], {"a": ["0", "1"], "b": "0", "c": "1"}]},
            "error: schema violations: "
            "/hyperplanes/1: Additional properties are not allowed ('c' was unexpected)",
        ),
    ],
)
@pytest.mark.parametrize("command", [["validate"], ["arrangement", "faces"]])
def test_an_unknown_key_exits_2_with_its_pointer(tmp_path, payload, line, command):
    # an ignored key would drop the misspelled list, and report the
    # one-hyperplane arrangement with exit 0
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(payload))
    code, out, err = call(*command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == line
    assert "Traceback" not in err


# --- export json reads back ------------------------------------------------


@pytest.mark.parametrize("fixture", sorted(CSS_FIXTURES))
def test_an_exported_report_reads_back_as_its_body(tmp_path, fixture):
    wrapper = tmp_path / "export.json"
    assert call("export", "json", "--fixture", fixture, "--out", str(wrapper))[0] == 0
    body = tmp_path / "body.json"
    body.write_text(json.dumps(json.loads(wrapper.read_text())["body"]))
    for command in (
        ["validate"], ["facecat"], ["sd"], ["homology"], ["dual"], ["salvetti"],
        ["export", "json"], ["export", "dot"], ["export", "off"],
    ):
        got = call(*command, "--file", str(wrapper))
        want = call(*command, "--file", str(body))
        assert got[0] == want[0] and got[1] == want[1], command


def test_a_wrapper_with_another_key_is_not_read_as_its_body(tmp_path):
    _, text, _ = call("export", "json", "--fixture", "circle-minimal")
    path = tmp_path / "export.json"
    path.write_text(json.dumps({**json.loads(text), "note": ""}))
    code, out, err = call("validate", "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == "error: unrecognized input format"


# --- mutated exports ---------------------------------------------------------

JUNK = [1.0, True, None, "x", -1, 0, 2**40, [], {}, [0], {"id": 0}]
COMMANDS = [
    ["validate"], ["facecat"], ["sd"], ["homology"], ["dual"], ["salvetti"],
    *(["arrangement", s] for s in ("faces", "complement", "salvetti", "symmetric")),
    ["conf", "--k", "2"], ["abrams", "--k", "2"],
    *(["export", f] for f in ("dot", "off", "json")),
]


def paths(value, at=()):
    """The key path of ``value`` and of every entry inside it."""
    yield at
    if isinstance(value, (dict, list)):
        for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
            yield from paths(sub, at + (key,))


@st.composite
def mutated_exports(draw):
    """An exported payload with one to three mutations: a wrong type, a
    deleted or duplicated entry, an int shifted by one, a shuffled list,
    or an unknown key."""
    payload = copy.deepcopy(draw(st.sampled_from(EXPORTS))[1])
    for _ in range(draw(st.integers(1, 3))):
        entries = list(paths(payload))[1:]
        if not entries:
            break
        *parents, last = draw(st.sampled_from(entries))
        owner = payload
        for key in parents:
            owner = owner[key]
        value = owner[last]
        op = draw(st.sampled_from(["junk", "delete", "duplicate", "shift", "shuffle", "key"]))
        if op == "junk":
            owner[last] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif op == "delete":
            del owner[last]
        elif op == "duplicate" and isinstance(owner, list):
            owner.insert(last, copy.deepcopy(value))
        elif op == "shift" and type(value) is int:
            owner[last] = value + draw(st.sampled_from([-1, 1]))
        elif op == "shuffle" and isinstance(value, list):
            owner[last] = draw(st.permutations(value))
        elif op == "key" and isinstance(value, dict):
            value["extra"] = 0
    return payload


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def round_trips(kind: str, payload: dict) -> None:
    """An accepted payload reads back from its dump: exactly for graphs
    and posets, up to stringified cells for Delta complexes and up to the
    written form of each number for arrangements."""
    load, dump = {
        "delta": (sio.load_delta, sio.dump_delta),
        "graph": (sio.load_graph, sio.dump_graph),
        "poset": (sio.load_poset, sio.dump_poset),
        "arrangement": (sio.load_arrangement, sio.dump_arrangement),
    }[kind]
    again = dump(load(payload))
    assert dump(load(again)) == again
    if kind == "delta":
        assert again["faces"] == payload["faces"]
        assert [len(layer) for layer in again["cells"]] == [
            len(layer) for layer in payload["cells"]
        ]
    elif kind == "arrangement":
        assert again["n"] == payload["n"]
        assert [
            ([Fraction(v) for v in h["a"]], Fraction(h["b"])) for h in again["hyperplanes"]
        ] == [
            ([Fraction(v) for v in h["a"]], Fraction(h["b"])) for h in payload["hyperplanes"]
        ]
    else:
        assert again == payload


@settings(max_examples=100, deadline=None)
@given(mutated_exports())
def test_every_command_exits_0_or_2_on_a_mutated_export(workdir, payload):
    path = workdir / "input.json"
    path.write_text(json.dumps(payload))
    codes = {" ".join(c): call(*c, "--file", str(path))[0] for c in COMMANDS}
    assert set(codes.values()) <= {0, 2}, codes
    kind = sio.detect_kind(payload) if codes["validate"] == 0 else None
    if kind in ("delta", "graph", "poset", "arrangement"):
        round_trips(kind, payload)


# --- the schema walker against a Draft 2020-12 validator ----------------------


def draft_2020_12(schema):
    """A Draft 2020-12 validator of ``schema`` whose integer is
    ``type(v) is int``."""
    base = jsonschema.Draft202012Validator
    strict = base.TYPE_CHECKER.redefine("integer", lambda _, v: type(v) is int)
    return jsonschema.validators.extend(base, type_checker=strict)(schema)


REFERENCE = {kind: draft_2020_12(schema) for kind, schema in sio.SCHEMAS.items()}


def reference_lines(payload, validator) -> list[str]:
    """The sorted violation lines of ``validator``, in the form of
    ``validate_payload``."""
    return sorted(
        f"/{'/'.join(str(p) for p in err.absolute_path)}: {err.message}"
        for err in validator.iter_errors(payload)
    )


@settings(max_examples=200, deadline=None)
@given(mutated_exports())
def test_the_walker_reports_what_a_draft_2020_12_validator_reports(payload):
    for kind, validator in REFERENCE.items():
        lines = sio.validate_payload(payload, kind)
        assert sorted(lines) == reference_lines(payload, validator), kind


@pytest.mark.parametrize(
    "kind, payload, lines",
    [
        (
            "category",
            {"objects": [], "morphisms": [], "compose": [[0, 1]]},
            ["/compose/0: [0, 1] is too short"],
        ),
        (
            "category",
            {"objects": [], "morphisms": [], "compose": [[0, 1, 2, 3]]},
            ["/compose/0: [0, 1, 2, 3] is too long"],
        ),
        (
            "graph",
            {"vertices": [2.0]},
            [
                "/: 'edges' is a required property",
                "/vertices/0: 2.0 is not of type 'integer', 'string'",
            ],
        ),
        (
            "arrangement",
            {"n": 0, "hyperplanes": []},
            ["/n: 0 is less than the minimum of 1"],
        ),
        (
            "arrangement",
            {"n": 0.5, "hyperplanes": []},
            ["/n: 0.5 is not of type 'integer'", "/n: 0.5 is less than the minimum of 1"],
        ),
        (
            "arrangement",
            {"n": False, "hyperplanes": []},
            ["/n: False is not of type 'integer'"],
        ),
        (
            "poset",
            {"elements": [{"id": 0, "b": 1, "a": 2}], "covers": []},
            ["/elements/0: Additional properties are not allowed ('a', 'b' were unexpected)"],
        ),
        (
            "css",
            {"objects": [], "morphisms": [], "compose": [], "dims": {}, "closed": {"0": 1}},
            ["/closed/0: 1 is not of type 'boolean'"],
        ),
    ],
)
def test_each_message_form_is_the_validators(kind, payload, lines):
    assert sio.validate_payload(payload, kind) == lines
    assert sorted(lines) == reference_lines(payload, REFERENCE[kind])


@pytest.mark.parametrize(
    "schema, payload, line",
    [
        ({"type": "array", "minItems": 1}, [], "/: [] should be non-empty"),
        ({"type": "array", "maxItems": 0}, [0], "/: [0] is expected to be empty"),
    ],
)
def test_the_size_bounds_of_one_and_zero_have_their_own_words(schema, payload, line):
    found: list[str] = []
    sio._check(payload, schema, "", found)
    assert found == [line]
    assert reference_lines(payload, draft_2020_12(schema)) == [line]


def test_violations_come_in_document_order(tmp_path):
    # a value's own violations come before those of its entries, so the
    # first line names the first fault in the file
    payload = {
        "n": 2,
        "hyperplanes": [{"a": ["1", "0"], "b": "0", "c": "1"}],
        "hyperplanse": [],
    }
    lines = [
        "/: Additional properties are not allowed ('hyperplanse' was unexpected)",
        "/hyperplanes/0: Additional properties are not allowed ('c' was unexpected)",
    ]
    assert sio.validate_payload(payload, "arrangement") == lines
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(payload))
    code, out, err = call("validate", "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == "error: schema violations: " + "; ".join(lines)


IMPLEMENTED = {
    "type", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "minimum",
}


def schema_nodes(schema):
    """``schema`` and every schema inside it."""
    yield schema
    for sub in [
        *schema.get("properties", {}).values(),
        schema.get("items"),
        schema.get("additionalProperties"),
    ]:
        if isinstance(sub, dict):
            yield from schema_nodes(sub)


@pytest.mark.parametrize("kind", sorted(sio.SCHEMAS))
def test_every_schema_keyword_is_one_the_walker_implements(kind):
    for node in schema_nodes(sio.SCHEMAS[kind]):
        assert set(node) <= IMPLEMENTED, node


def test_a_keyword_the_walker_does_not_implement_raises(monkeypatch):
    vertices = {"type": "array", "items": {"type": "string", "pattern": "^v"}}
    monkeypatch.setitem(sio.SCHEMAS["graph"]["properties"], "vertices", vertices)
    with pytest.raises(NotImplementedError, match="pattern"):
        sio.validate_payload({"vertices": ["x"], "edges": []}, "graph")
