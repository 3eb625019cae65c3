import hashlib
import json
import os
import subprocess
import sys

import pytest

import stratakit
from stratakit.cli import main
from stratakit.io import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_sd_fixture(capsys):
    r = report(capsys, "sd", "--fixture", "punctured-torus")
    assert r["fvector"] == [3, 4]
    assert r["homology"] == {"betti": [1, 2], "torsion": [[], []]}
    assert r["euler"] == -1


def test_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "sd", "--fixture", "torus")
    _, out2, _ = run(capsys, "sd", "--fixture", "torus")
    assert out1 == out2


def test_timing_on_stderr_only(capsys):
    code, out, err = run(capsys, "sd", "--fixture", "circle-minimal")
    assert code == 0
    assert "timing_ms" in err and "timing_ms" not in out


def test_consecutive_calls_match_separate_processes(capsys):
    unordered = ["conf", "--fixture", "loop", "--k", "2", "--unordered"]
    ordered = ["conf", "--fixture", "loop", "--k", "2"]
    in_process = [run(capsys, *argv)[1] for argv in (unordered, ordered, unordered)]
    src = os.path.dirname(os.path.dirname(stratakit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    separate = [
        subprocess.run(
            [sys.executable, "-m", "stratakit.cli", *argv],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for argv in (unordered, ordered)
    ]
    assert in_process == [separate[0], separate[1], separate[0]]
    assert separate[0] != separate[1]


def test_arrangement_commands(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 1, "hyperplanes": [{"a": ["1"], "b": "0"}]}))
    r = report(capsys, "arrangement", "complement", "--file", str(path), "--order", "2")
    assert r["strata"] == 4
    assert r["fvector"] == [4, 4]
    assert r["homology"]["betti"] == [1, 1]
    r = report(capsys, "arrangement", "salvetti", "--file", str(path), "--order", "2")
    assert r["cells_by_dim"] == {"0": 2, "1": 2}
    r = report(capsys, "arrangement", "symmetric", "--file", str(path), "--order", "2")
    assert r["strata"] == 9


def test_conf_command(capsys):
    r = report(capsys, "conf", "--fixture", "loop", "--k", "2")
    assert r["homology"]["betti"] == [1, 1]
    r = report(capsys, "conf", "--fixture", "loop", "--k", "2", "--unordered")
    assert r["fvector"] == [2, 2]
    r = report(
        capsys, "conf", "--fixture", "loop", "--k", "2", "--oracle", "--subdivide", "3"
    )
    assert r["homology"]["betti"] == [1, 1]
    assert r["oracle_conditions"] == []


def test_abrams_command(capsys):
    r = report(capsys, "abrams", "--fixture", "edge", "--k", "2", "--subdivide", "3")
    assert r["homology"]["betti"][0] == 2


def test_abrams_report_does_not_depend_on_the_hash_seed(tmp_path):
    # a theta graph with string vertex ids: two essential vertices joined
    # by three paths, each too short for k = 2
    payload = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"id": "e1", "ends": ["a", "b"]},
            {"id": "e2", "ends": ["a", "c"]},
            {"id": "e3", "ends": ["c", "b"]},
            {"id": "e4", "ends": ["a", "d"]},
            {"id": "e5", "ends": ["d", "b"]},
        ],
    }
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(payload))
    src = os.path.dirname(os.path.dirname(stratakit.__file__))
    outs = [
        subprocess.run(
            [sys.executable, "-m", "stratakit.cli", "abrams", "--file", str(path), "--k", "2"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
        ).stdout
        for seed in (0, 1, 2)
    ]
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["oracle_conditions"] == [
        "path of length 1 between essential vertices 'a' and 'b' (need >= 3)",
        "path of length 2 between essential vertices 'a' and 'b' (need >= 3)",
        "path of length 2 between essential vertices 'a' and 'b' (need >= 3)",
    ]


def test_dual_command(capsys):
    r = report(capsys, "dual", "--fixture", "simplex-2")
    assert r["cells_by_dim"] == {"0": 1, "1": 3, "2": 3}
    assert r["homology"]["betti"] == [1, 0, 0]


def test_salvetti_command(capsys):
    r = report(capsys, "salvetti", "--fixture", "y-space")
    assert r["cells_by_dim"] == {"0": 1, "1": 1}
    assert r["homology"]["betti"] == [1, 1]


def test_rank_only_flag(capsys):
    r = report(capsys, "sd", "--fixture", "rp2", "--rank-only")
    assert r["homology"]["betti"] == [1, 0, 0]
    assert r["homology"]["torsion"] == [[], [], []]
    full = report(capsys, "sd", "--fixture", "rp2")
    assert full["homology"]["torsion"] == [[], [2], []]


def test_validate_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"elements": [{"id": 0}, {"id": 1}], "covers": [[0, 1], [1, 0]]})
    )
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert not json.loads(out)["valid"]


def test_validate_reads_a_json_decimal_exactly(tmp_path, capsys):
    # 0.1x + 0.03 is 10x + 3 scaled by 1/100 only if "0.1" reads as 1/10
    # and "0.03" as 3/100, not as their binary values
    path = tmp_path / "decimals.json"
    one = {"a": ["0.1"], "b": "0.03"}
    path.write_text(json.dumps({"n": 1, "hyperplanes": [one]}))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 0, err
    assert json.loads(out)["valid"]
    path.write_text(json.dumps({"n": 1, "hyperplanes": [one, {"a": [10], "b": 3}]}))
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert "form 1 duplicates form 0 up to scaling" in err


def test_schema_error_has_pointer_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": [{"grade": 3}], "covers": []}))
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert "/elements/0" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 1


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "sd", "--file", "/nonexistent/x.json")
    assert code == 1


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_fails_before_the_command_runs(
    where, tmp_path, capsys, monkeypatch
):
    import stratakit.cli as cli

    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "sd", never)
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run(capsys, "sd", "--fixture", "torus", "--out", str(target))
    assert code == 1
    assert out == ""
    assert f"error: cannot write {target}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_out_writes_the_stdout_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("previous contents")
    code, out, _ = run(capsys, "sd", "--fixture", "torus", "--out", str(target))
    assert code == 0 and out == ""
    _, stdout_report, _ = run(capsys, "sd", "--fixture", "torus")
    assert target.read_text() == stdout_report


def test_unwritable_out_keeps_an_existing_file(tmp_path, capsys):
    # a failing command leaves --out as it was: nothing is truncated first
    target = tmp_path / "report.json"
    target.write_text("previous contents")
    code, _, _ = run(capsys, "sd", "--file", "/nonexistent/x.json", "--out", str(target))
    assert code == 1
    assert target.read_text() == "previous contents"


def test_sd_of_invalid_space(tmp_path, capsys):
    payload = {
        "objects": [{"id": 0}, {"id": 1}],
        "morphisms": [{"id": 10, "src": 0, "dst": 1}],
        "compose": [],
        "dims": {"0": 0, "1": 2},
        "closed": {"0": True, "1": True},
    }
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "sd", "--file", str(path))
    assert code == 2
    assert json.loads(out)["diagnostics"]


NEGATIVE_DIMENSIONS = {
    "objects": [{"id": 0}, {"id": 1}],
    "morphisms": [{"id": 10, "src": 0, "dst": 1}],
    "compose": [],
    "dims": {"0": -3, "1": -1},
    "closed": {"0": False, "1": False},
}


@pytest.mark.parametrize("command", ["validate", "sd"])
def test_negative_dimensions_are_invalid(tmp_path, capsys, command):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(NEGATIVE_DIMENSIONS))
    code, out, _ = run(capsys, command, "--file", str(path))
    assert code == 2
    r = json.loads(out)
    assert r["diagnostics"] == [
        "cell 0: negative dimension -3",
        "cell 1: negative dimension -1",
    ]
    assert "homology" not in r and r.get("valid") is not True


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"cells": [["a", "b"]], "faces": {"1": [[0, 1]]}}, "1"),
        ({"cells": [["a"]], "faces": {"x": [], "2": [[0, 0, 0]]}}, "x"),
        ({"cells": [["a", "b"], ["e"]], "faces": {"1": [[0, 1]], "3": []}}, "3"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "homology"])
def test_a_stray_face_table_is_rejected(tmp_path, capsys, command, payload, key):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith(f"error: /faces/{key}: stray face table")


def test_export_dot_multiedges(capsys):
    code, out, _ = run(capsys, "export", "dot", "--fixture", "circle-minimal")
    assert code == 0
    assert out.count("n0 -> n1") == 2


def test_export_off(capsys):
    code, out, _ = run(capsys, "export", "off", "--fixture", "simplex-2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "7 6 12"


def test_export_json_roundtrip(capsys, tmp_path):
    r = report(capsys, "export", "json", "--fixture", "circle-minimal")
    body = r["body"]
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(body))
    r2 = report(capsys, "sd", "--file", str(path))
    assert r2["fvector"] == [2, 2]


def test_facecat_on_graph_file(tmp_path, capsys):
    payload = {"vertices": ["v"], "edges": [{"id": "e", "ends": ["v", "v"]}]}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(payload))
    r = report(capsys, "facecat", "--file", str(path))
    assert len(r["category"]["morphisms"]) == 2


def test_homology_of_poset_file(tmp_path, capsys):
    payload = {
        "elements": [
            {"id": 0, "grade": 0},
            {"id": 1, "grade": 0},
            {"id": 2, "grade": 1},
            {"id": 3, "grade": 1},
        ],
        "covers": [[0, 2], [0, 3], [1, 2], [1, 3]],
    }
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps(payload))
    r = report(capsys, "homology", "--file", str(path))
    assert r["homology"]["betti"] == [1, 1]


def test_homology_of_cyclic_poset_file(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(
        json.dumps({"elements": [{"id": 0}, {"id": 1}], "covers": [[0, 1], [1, 0]]})
    )
    code, out, err = run(capsys, "homology", "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        "error: invalid poset: antisymmetry violation: "
        "cover relation contains a cycle"
    )


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "sd", "--fixture", "circle-minimal", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["fvector"] == [2, 2]


# A triangle whose d_2 names an edge that does not exist, one whose faces
# break d_0 d_2 = d_1 d_0 and d_1 d_2 = d_1 d_1 while d(d(t)) = 0, and one
# whose d_0 is 2.0, which the schema's integer type rejects.
BAD_DELTAS = [
    (
        {"cells": [[0, 1], [0], [0]], "faces": {"1": [[1, 0]], "2": [[0, 0, 5]]}},
        "error: invalid complex: 2-cell 0: face d_2 out of range",
    ),
    (
        {
            "cells": [["p", "q"], ["a", "b"], ["t"]],
            "faces": {"1": [[1, 0], [1, 1]], "2": [[0, 0, 1]]},
        },
        "error: invalid complex: 2-cell 0: d_0 d_2 != d_1 d_0; "
        "2-cell 0: d_1 d_2 != d_1 d_1",
    ),
    (
        {
            "cells": [[0, 1, 2], ["a", "b", "c"], ["t"]],
            "faces": {"1": [[1, 0], [2, 0], [2, 1]], "2": [[2.0, 1, 0]]},
        },
        "error: schema violations: /faces/2/0/0: 2.0 is not of type 'integer'",
    ),
]


@pytest.mark.parametrize("command", [["homology"], ["export", "off"]])
@pytest.mark.parametrize("payload, message", BAD_DELTAS)
def test_delta_file_is_checked_at_entry(
    tmp_path, capsys, command, payload, message
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == message
    assert "Traceback" not in err


def test_built_complexes_are_not_validated_again(tmp_path, capsys, monkeypatch):
    import stratakit.cli as cli

    checked = []
    monkeypatch.setattr(cli, "validate_delta", lambda k: checked.append(k) or [])
    report(capsys, "sd", "--fixture", "torus")
    report(capsys, "conf", "--fixture", "loop", "--k", "2")
    report(capsys, "dual", "--fixture", "rp2")
    assert checked == []
    body = report(capsys, "export", "json", "--fixture", "circle-minimal")["body"]
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(body))
    report(capsys, "homology", "--file", str(path))
    assert checked == []  # a CSS file is validated by sd, not as a complex
    path.write_text(json.dumps({"cells": [[0, 1], [0]], "faces": {"1": [[1, 0]]}}))
    report(capsys, "homology", "--file", str(path))
    assert len(checked) == 1


ARRANGEMENT_COMMANDS = ["faces", "complement", "salvetti", "symmetric"]


@pytest.mark.parametrize(
    "command", [["validate"]] + [["arrangement", s] for s in ARRANGEMENT_COMMANDS]
)
def test_zero_denominator_in_an_arrangement(tmp_path, capsys, command):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"n": 1, "hyperplanes": [{"a": ["1/0"], "b": "0"}]}))
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        "error: /hyperplanes/0/a/0: not a rational number: '1/0'"
    )


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize("extra", [[], ["--oracle"], ["--unordered"]])
def test_conf_rejects_a_subdivision_count_below_one(capsys, count, extra):
    argv = ["conf", "--fixture", "loop", "--k", "2", "--subdivide", count, *extra]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[0] == "error: subdivision count must be >= 1"


def test_facecat_reports_an_ungraded_cell(tmp_path, capsys, monkeypatch):
    import stratakit.cli as cli

    calls = []
    validate = cli.validate_total_normality
    monkeypatch.setattr(
        cli, "validate_total_normality", lambda x: calls.append(x) or validate(x)
    )
    payload = {
        "objects": [{"id": 0}, {"id": 1}],
        "morphisms": [{"id": 0, "src": 0, "dst": 1}],
        "compose": [],
        "dims": {"0": 0},
        "closed": {"0": True, "1": True},
    }
    path = tmp_path / "ungraded.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "facecat", "--file", str(path))
    assert code == 2
    r = json.loads(out)
    assert r["diagnostics"] == ["cell 1: no dimension assigned"]
    assert r["dims"] == {"0": 0} and r["closed"] == {"0": True, "1": True}
    assert "error" not in err
    assert len(calls) == 1


# one object and a morphism into an object that does not exist
UNDEFINED_ENDPOINT = {
    "objects": [{"id": 0}],
    "morphisms": [{"id": 0, "src": 0, "dst": 7}],
    "compose": [],
}
ENDPOINT_PROBLEM = "morphism 0 has undefined endpoints"


def test_facecat_reports_an_invalid_face_category(tmp_path, capsys, monkeypatch):
    import stratakit.category as category

    validations = []
    validate = category.validate_category
    monkeypatch.setattr(
        category, "validate_category", lambda c: validations.append(c) or validate(c)
    )
    path = tmp_path / "space.json"
    path.write_text(
        json.dumps({**UNDEFINED_ENDPOINT, "dims": {"0": 0}, "closed": {"0": True}})
    )
    code, out, err = run(capsys, "facecat", "--file", str(path))
    assert code == 2
    r = json.loads(out)
    assert r["diagnostics"] == [f"face category: {ENDPOINT_PROBLEM}"]
    assert "category" not in r and "dims" not in r
    assert "error" not in err
    # the face category is checked once, by validate_total_normality
    assert len(validations) == 1


@pytest.mark.parametrize("fmt", ["json", "dot", "off"])
@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {**UNDEFINED_ENDPOINT, "dims": {"0": 0}, "closed": {"0": True}},
            f"error: invalid stratified space: face category: {ENDPOINT_PROBLEM}",
        ),
        (UNDEFINED_ENDPOINT, f"error: invalid category: {ENDPOINT_PROBLEM}"),
    ],
)
def test_export_reports_an_invalid_category(tmp_path, capsys, fmt, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "export", fmt, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == message
    assert "Traceback" not in err


UNGRADED = {
    "objects": [{"id": 0}, {"id": 1}],
    "morphisms": [{"id": 0, "src": 0, "dst": 1}],
    "compose": [],
}


@pytest.mark.parametrize(
    "tables, message",
    [
        (
            {"dims": {"0": 0}, "closed": {"0": True, "1": True}},
            "cell 1: no dimension assigned",
        ),
        (
            {"dims": {"0": 0, "1": 1}, "closed": {"0": True}},
            "cell 1: no closedness flag",
        ),
        (
            {"dims": {"0": 0}, "closed": {"0": True}},
            "cell 1: no dimension assigned; cell 1: no closedness flag",
        ),
    ],
)
def test_export_json_reports_an_ungraded_cell(
    tmp_path, capsys, monkeypatch, tables, message
):
    # the dump writes every cell's dimension and flag; a missing one used
    # to escape as a bare KeyError ("error: 1"). The diagnostic is the one
    # export off gives, found without a validation call
    import stratakit.category as category
    import stratakit.cli as cli
    import stratakit.css as css

    path = tmp_path / "ungraded.json"
    path.write_text(json.dumps({**UNGRADED, **tables}))
    code, _, err = run(capsys, "export", "off", "--file", str(path))
    assert code == 2
    assert err.splitlines()[0] == f"error: invalid stratified space: {message}"

    calls = []
    for module, name in (
        (cli, "validate_total_normality"),
        (css, "validate_total_normality"),
        (category, "validate_category"),
    ):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=f: calls.append(f) or f(*a))
    code, out, err = run(capsys, "export", "json", "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == f"error: invalid stratified space: {message}"
    assert calls == []


def test_export_dot_of_an_ungraded_space_draws_its_face_category(tmp_path, capsys):
    # the diagram reads no dimension or flag
    path = tmp_path / "ungraded.json"
    path.write_text(json.dumps({**UNGRADED, "dims": {"0": 0}, "closed": {"0": True}}))
    code, out, _ = run(capsys, "export", "dot", "--file", str(path))
    assert code == 0
    assert out.splitlines()[-2] == '  n0 -> n1 [label="0"];'


@pytest.mark.parametrize("fixture", ["y", "loop"])
def test_conf_oracle_has_no_unordered_model(capsys, fixture):
    # the Abrams complex models ordered configurations: it used to be
    # reported as the model asked for, with the ordered homology
    argv = ["conf", "--fixture", fixture, "--k", "2", "--oracle", "--unordered"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        "error: --oracle has no unordered model: the Abrams complex is a "
        "model of ordered configurations"
    )
    argv = ["conf", "--fixture", fixture, "--k", "2", "--unordered"]
    assert report(capsys, *argv)["model"] == "unordered"


@pytest.mark.parametrize(
    "source, code, message",
    [
        (["--file", "/no/such/graph.json"], 1, "error: cannot read /no/such/graph.json"),
        (["--fixture", "y", "--subdivide", "0"], 2, "error: subdivision count must be >= 1"),
    ],
)
def test_conf_oracle_unordered_reports_input_errors_first(capsys, source, code, message):
    # an unreadable file or a bad subdivision count keeps its own exit code
    for models in ([], ["--oracle", "--unordered"]):
        got, out, err = run(capsys, "conf", "--k", "2", *source, *models)
        assert got == code and out == ""
        assert err.splitlines()[0].startswith(message)


def css_payload_with_dim(capsys, value):
    """The JSON export of circle-minimal with one dimension replaced."""
    body = report(capsys, "export", "json", "--fixture", "circle-minimal")["body"]
    key = sorted(body["dims"])[-1]
    body["dims"][key] = value
    return body, key


@pytest.mark.parametrize(
    "command", [["validate"], ["sd"], ["homology"], ["dual"], ["facecat"]]
)
def test_a_float_dimension_is_rejected(tmp_path, capsys, command):
    # a dimension 1.0 taken for an int would reach the sphere tests and
    # die there with a TypeError
    body, key = css_payload_with_dim(capsys, 1.0)
    path = tmp_path / "css.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        f"error: schema violations: /dims/{key}: 1.0 is not of type 'integer'"
    )
    assert "Traceback" not in err


def test_a_bool_dimension_is_rejected(capsys):
    import stratakit.io as sio

    body, key = css_payload_with_dim(capsys, True)
    assert sio.validate_payload(body, "css") == [
        f"/dims/{key}: True is not of type 'integer'"
    ]


@pytest.mark.parametrize("section", ["dims", "closed"])
def test_a_key_two_objects_share_is_rejected(tmp_path, capsys, section):
    # dims and closed name an object by its str, which 1 and "1" share;
    # the key used to bind to the last of them, leaving the other without
    body = {
        "objects": [{"id": 1}, {"id": "1"}],
        "morphisms": [],
        "compose": [],
        "dims": {"1": 0},
        "closed": {"1": True},
    }
    if section == "closed":
        body["dims"] = {}
    path = tmp_path / "css.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        f"error: /{section}/1: key names both objects 1 and '1'"
    )


@pytest.mark.parametrize(
    "command", [["validate"]] + [["arrangement", s] for s in ARRANGEMENT_COMMANDS]
)
def test_a_float_ambient_dimension_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"n": 2.0, "hyperplanes": [{"a": ["1", "0"], "b": "0"}]}))
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        "error: schema violations: /n: 2.0 is not of type 'integer'"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["validate"], ["homology"], ["sd"]])
@pytest.mark.parametrize("text", ["5", "null", "true", "[1, 2]", '"covers"'])
def test_a_file_that_is_not_a_json_object(tmp_path, capsys, command, text):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == "error: unrecognized input format"
    assert "Traceback" not in err


GRAPH_WITH_AN_OBJECT_END = {
    "vertices": [1],
    "edges": [{"id": "e", "ends": [{"x": 1}, 1]}],
}
CATEGORY_WITH_AN_OBJECT_IN_COMPOSE = {
    "objects": [{"id": 0}],
    "morphisms": [{"id": 0, "src": 0, "dst": 0}],
    "compose": [[0, {"a": 1}, 0]],
}
SPACE_WITH_AN_OBJECT_IN_COMPOSE = {
    **CATEGORY_WITH_AN_OBJECT_IN_COMPOSE,
    "dims": {"0": 0},
    "closed": {"0": True},
}


@pytest.mark.parametrize(
    "command, payload, pointer",
    [
        (["validate"], GRAPH_WITH_AN_OBJECT_END, "/edges/0/ends/0"),
        (["conf", "--k", "2"], GRAPH_WITH_AN_OBJECT_END, "/edges/0/ends/0"),
        (["facecat"], GRAPH_WITH_AN_OBJECT_END, "/edges/0/ends/0"),
        (["validate"], CATEGORY_WITH_AN_OBJECT_IN_COMPOSE, "/compose/0/1"),
        (["homology"], CATEGORY_WITH_AN_OBJECT_IN_COMPOSE, "/compose/0/1"),
        (["validate"], SPACE_WITH_AN_OBJECT_IN_COMPOSE, "/compose/0/1"),
        (["facecat"], SPACE_WITH_AN_OBJECT_IN_COMPOSE, "/compose/0/1"),
    ],
)
def test_an_object_as_an_id_is_a_schema_violation(
    tmp_path, capsys, command, payload, pointer
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith(f"error: schema violations: {pointer}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["validate"], ["sd"], ["arrangement", "faces"]])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": "\xe9"}')
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 1 and out == ""
    assert err.splitlines()[0].startswith(f"error: cannot parse {path}: 'utf-8' codec")


def test_export_dot_of_a_poset(tmp_path, capsys):
    payload = {
        "elements": [{"id": 0, "label": 'a"b'}, {"id": 1}, {"id": 2}],
        "covers": [[0, 2], [1, 2]],
    }
    path = tmp_path / "vee.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "export", "dot", "--file", str(path))
    assert code == 0
    assert out == (
        "digraph hasse {\n"
        "  n0 [label=\"a'b\"];\n"
        '  n1 [label="1"];\n'
        '  n2 [label="2"];\n'
        "  n0 -> n2;\n"
        "  n1 -> n2;\n"
        "}\n"
    )


def test_export_dot_of_a_graph_to_out(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(
        json.dumps({"vertices": ["v"], "edges": [{"id": "e", "ends": ["v", "v"]}]})
    )
    target = tmp_path / "loop.dot"
    argv = ["export", "dot", "--file", str(path), "--out", str(target)]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == ""
    assert target.read_text() == (
        "digraph facecat {\n"
        "  n0 [label=\"('v', 'v')\"];\n"
        "  n1 [label=\"('e', 'e')\"];\n"
        "  n0 -> n1 [label=\"('end', 'e', 0)\"];\n"
        "  n0 -> n1 [label=\"('end', 'e', 1)\"];\n"
        "}\n"
    )


def test_operation_and_digest_are_added_to_each_report(tmp_path, capsys):
    path = tmp_path / "point.json"
    payload = {"n": 1, "hyperplanes": [{"a": ["1"], "b": "0"}]}
    path.write_text(json.dumps(payload))
    r = report(capsys, "arrangement", "symmetric", "--file", str(path))
    assert r["operation"] == "arrangement symmetric"
    r = report(capsys, "export", "json", "--fixture", "torus")
    assert r["operation"] == "export json"
    r = report(capsys, "conf", "--fixture", "loop", "--k", "2")
    assert r["operation"] == "conf"
    digest = hashlib.sha256(canonical_json({"fixture": "loop"}).encode()).hexdigest()
    assert r["digest"] == digest


POSET = {"elements": [{"id": 0, "grade": 0}, {"id": 1, "grade": 1}], "covers": [[0, 1]]}
CATEGORY = {
    "objects": [{"id": 0, "grade": 0}, {"id": 1, "grade": 1}, {"id": 2, "grade": 2}],
    "morphisms": [
        {"id": "f", "src": 0, "dst": 1},
        {"id": "g", "src": 1, "dst": 2},
        {"id": "h", "src": 0, "dst": 2},
    ],
    "compose": [["g", "f", "h"]],
}
GRAPH = {"vertices": [0, 1], "edges": [{"id": "e", "ends": [0, 1]}]}


def with_value(payload, path, value):
    """A deep copy of payload with the entry at the key path replaced."""
    out = json.loads(json.dumps(payload))
    *parents, last = path
    entry = out
    for key in parents:
        entry = entry[key]
    entry[last] = value
    return out


@pytest.mark.parametrize(
    "payload, path, fault",
    [
        (POSET, ("elements", 1, "id"), "/elements/1/id: id is not an int: 1.0"),
        (POSET, ("elements", 1, "grade"), "/elements/1/grade: grade is not an int: 1.0"),
        (POSET, ("covers", 0, 1), "/covers/0/1: id is not an int: 1.0"),
        (CATEGORY, ("objects", 1, "id"), "/objects/1/id: id is not an int or a string: 1.0"),
        (CATEGORY, ("objects", 1, "grade"), "/objects/1/grade: grade is not an int: 1.0"),
        (CATEGORY, ("morphisms", 0, "id"), "/morphisms/0/id: id is not an int or a string: 1.0"),
        (CATEGORY, ("morphisms", 0, "src"), "/morphisms/0/src: id is not an int or a string: 1.0"),
        (CATEGORY, ("morphisms", 0, "dst"), "/morphisms/0/dst: id is not an int or a string: 1.0"),
        (CATEGORY, ("compose", 0, 2), "/compose/0/2: id is not an int or a string: 1.0"),
        (GRAPH, ("vertices", 1), "/vertices/1: id is not an int or a string: 1.0"),
        (GRAPH, ("edges", 0, "id"), "/edges/0/id: id is not an int or a string: 1.0"),
        (GRAPH, ("edges", 0, "ends", 1), "/edges/0/ends/1: id is not an int or a string: 1.0"),
    ],
)
@pytest.mark.parametrize("command", [["validate"], ["export", "json"]])
def test_a_float_id_or_grade_is_rejected(tmp_path, capsys, payload, path, fault, command):
    # an id 1.0 taken for an int would be merged with 1, and `export json`
    # would print it back as 1.0. Each case is named by its fault; ids of
    # categories and graphs may also be strings
    types = "'integer', 'string'" if fault.endswith("or a string: 1.0") else "'integer'"
    pointer = "/" + "/".join(map(str, path))
    if command == ["export", "json"] and payload is GRAPH:
        command = ["conf", "--k", "2"]
    file = tmp_path / "input.json"
    file.write_text(json.dumps(with_value(payload, path, 1.0)))
    code, out, err = run(capsys, *command, "--file", str(file))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        f"error: schema violations: {pointer}: 1.0 is not of type {types}"
    )
    assert "Traceback" not in err


def test_the_int_ids_and_grades_of_those_inputs_load(tmp_path, capsys):
    for payload, command in ((POSET, "homology"), (CATEGORY, "homology"), (GRAPH, "validate")):
        file = tmp_path / "input.json"
        file.write_text(json.dumps(payload))
        assert run(capsys, command, "--file", str(file))[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["conf", "--fixture", "y", "--k", "2", "--oracle"],  # larger than a pipe
        ["sd", "--fixture", "simplex-1"],  # written only at the flush
    ],
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    src = os.path.dirname(os.path.dirname(stratakit.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stratakit.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    proc.stdout.close()  # the reader is gone before the report is written
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    lines = err.splitlines()
    assert lines[0].startswith("error: cannot write stdout: [Errno 32]")
    assert lines[1].startswith("timing_ms: ") and len(lines) == 2
