"""Command-line front end.

Every command reads JSON (or a named fixture) and performs one
operation. It returns the payload it read (a fixture's payload is its
name) and its report, or, for ``export dot`` and ``export off``, the
text to write. ``main`` is the one path out: it adds the operation and
the payload's digest to a report, writes it as sorted JSON to stdout or
``--out``, and exits 2 when the report has diagnostics. Reports are
byte-identical for identical inputs. Timing goes to stderr so it never
perturbs the report or its digest. Exit codes: 0 success, 2 validation
failure, 1 I/O or parse error (a file that cannot be read, or is not
UTF-8 JSON, or an ``--out`` path that cannot be written, found before
the command runs, or a stdout that its reader closed early).
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import sys
import time

from . import io as sio
from .arrangement import (
    complement_poset,
    euler_sum,
    faces_higher,
    faces_level1,
    higher_salvetti,
    salvetti_cellular,
    symmetric_subdivision,
)
from .category import nondegenerate_nerve, validate_category
from .css import (
    _missing_grading,
    dual,
    salvetti_complex,
    sd,
    validate_total_normality,
)
from .delta import components, euler_characteristic, f_vector, validate_delta
from .fixtures import CSS_FIXTURES, css_fixture
from .graphconf import (
    GRAPH_FIXTURES,
    abrams_complex,
    abrams_conditions,
    conf_category,
    graph_fixture,
    graph_to_css,
    subdivide_graph,
    unordered_conf,
    validate_graph,
)
from .homology import chain_complex, homology
from .poset import order_complex, validate_poset

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot parse {path}: {exc}", EXIT_IO) from exc


def _check_writable(path: str) -> None:
    """Fail with exit 1 unless ``path`` can be opened for writing, before
    any work is done. Creates and truncates nothing: an existing file is
    opened for writing without truncation (non-blocking, for a FIFO) and
    closed, and for a new file its directory must exist and be writable."""
    try:
        if os.path.exists(path):
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            return
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
        if not os.access(parent, os.W_OK | os.X_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def _digest(payload) -> str:
    return hashlib.sha256(sio.canonical_json(payload).encode()).hexdigest()


def _kinds() -> dict:
    """Each input kind's JSON loader, dumper and diagnostics. Built on
    each call, so a module global replaced at run time is the one used."""
    return {
        "poset": (sio.load_poset, sio.dump_poset, validate_poset),
        "category": (sio.load_category, sio.dump_category, validate_category),
        "css": (sio.load_css, sio.dump_css, validate_total_normality),
        "delta": (sio.load_delta, sio.dump_delta, validate_delta),
        "arrangement": (sio.load_arrangement, sio.dump_arrangement, lambda a: []),
        "graph": (sio.load_graph, sio.dump_graph, validate_graph),
    }


def _load_checked(path: str, kind: str | None = None):
    """Kind, value and payload of the JSON file at ``path``, read as
    ``kind`` or as the kind its keys name, and checked by the schema
    before its loader runs. The report of ``export json`` (keys exactly
    ``body``, ``digest`` and ``operation``) is read as its ``body``."""
    payload = _read_payload(path)
    if isinstance(payload, dict) and payload.keys() == {"body", "digest", "operation"}:
        payload = payload["body"]
    actual = kind or sio.detect_kind(payload)
    problems = sio.validate_payload(payload, actual)
    if problems:
        raise CliError(
            "schema violations: " + "; ".join(problems), EXIT_INVALID
        )
    loader = _kinds()[actual][0]
    try:
        return actual, loader(payload), payload
    except (ValueError, KeyError) as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc


def _source(args, graphs: bool = False):
    """Kind, value and payload of the input named by ``--file`` or
    ``--fixture``: a graph fixture for the graph commands, else a space.
    A file of a graph command is read as a graph; any other file is read
    as the kind its keys name. The payload of a fixture is its name."""
    if getattr(args, "fixture", None):
        if graphs:
            return "graph", graph_fixture(args.fixture), {"fixture": args.fixture}
        return "css", css_fixture(args.fixture), {"fixture": args.fixture}
    return _load_checked(args.file, "graph" if graphs else None)


def _css_input(args):
    kind, value, payload = _source(args)
    if kind == "graph":
        return graph_to_css(value), payload
    if kind != "css":
        raise CliError(f"expected a stratified space, got {kind}", EXIT_INVALID)
    return value, payload


def _checked_delta(dc):
    """A Delta complex from a file, validated once where it comes in."""
    bad = validate_delta(dc)
    if bad:
        raise CliError("invalid complex: " + "; ".join(bad), EXIT_INVALID)
    return dc


def _homology_report(dc, rank_only: bool = False) -> dict:
    h = homology(chain_complex(dc), rank_only=rank_only)
    return {
        "fvector": list(f_vector(dc)),
        "euler": euler_characteristic(dc),
        "components": components(dc),
        "homology": sio.dump_homology(h),
    }


def cmd_validate(args) -> tuple[dict, dict]:
    kind, value, payload = _source(args)
    diagnostics = _kinds()[kind][2](value)
    report = {"kind": kind, "diagnostics": diagnostics, "valid": not diagnostics}
    return payload, report


def _check_dumpable(kind: str, value, fmt: str) -> None:
    """Exit 2 with the diagnostics of an invalid category or face
    category, which has no export, or, for the JSON dump of a space, of
    its cells without a dimension or closed flag, which the dump writes.
    They are read from the check each category caches and from the
    tables, so this validates nothing twice."""
    if kind == "css":
        problems = [f"face category: {p}" for p in value.cat._problems]
        if not problems and fmt == "json":
            problems = _missing_grading(value.cat, value.closed)
        if problems:
            raise CliError(
                "invalid stratified space: " + "; ".join(problems), EXIT_INVALID
            )
    if kind == "category" and value._problems:
        raise CliError("invalid category: " + "; ".join(value._problems), EXIT_INVALID)


def cmd_facecat(args) -> tuple[dict, dict]:
    x, payload = _css_input(args)
    report = {"diagnostics": validate_total_normality(x)}
    # an invalid face category has no dump: its diagnostics are the report
    if not x.cat._problems:
        ids = list(enumerate(x.cells()))
        # a cell without a dimension or flag is left out; the diagnostics
        # say so
        report["category"] = sio.dump_category(x.cat)
        report["dims"] = {
            str(i): x.cat.grades[v] for i, v in ids if v in x.cat.grades
        }
        report["closed"] = {str(i): x.closed[v] for i, v in ids if v in x.closed}
    return payload, report


def cmd_sd(args) -> tuple[dict, dict]:
    x, payload = _css_input(args)
    diagnostics = validate_total_normality(x)
    if diagnostics:
        return payload, {"diagnostics": diagnostics}
    return payload, {"diagnostics": [], **_homology_report(sd(x), args.rank_only)}


def cmd_homology(args) -> tuple[dict, dict]:
    kind, value, payload = _source(args)
    complex_of = {
        "delta": _checked_delta,
        "poset": order_complex,
        "css": sd,
        "category": nondegenerate_nerve,
    }.get(kind)
    if complex_of is None:
        raise CliError(f"no homology for inputs of kind {kind}", EXIT_INVALID)
    return payload, _homology_report(complex_of(value), args.rank_only)


def _cells_by_dim(x) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in x.cells():
        key = str(x.cat.grades[v])
        counts[key] = counts.get(key, 0) + 1
    return counts


def _dual_command(args, op) -> tuple[dict, dict]:
    x, payload = _css_input(args)
    y = op(x)
    return payload, {
        "cells_by_dim": _cells_by_dim(y),
        "css": sio.dump_css(y),
        **_homology_report(sd(y)),
    }


def cmd_dual(args) -> tuple[dict, dict]:
    return _dual_command(args, dual)


def cmd_salvetti(args) -> tuple[dict, dict]:
    return _dual_command(args, salvetti_complex)


def cmd_arrangement(args) -> tuple[dict, dict]:
    _, arr, payload = _load_checked(args.file, "arrangement")
    report: dict = {"order": args.order}
    if args.subcommand == "salvetti":
        report["cells_by_dim"] = _cells_by_dim(salvetti_cellular(arr, args.order))
        report.update(_homology_report(higher_salvetti(arr, args.order)))
        return payload, report
    if args.subcommand == "complement":
        p = complement_poset(arr, args.order)
    elif args.subcommand == "symmetric":
        p = symmetric_subdivision(arr, args.order)
    else:
        p = faces_level1(arr) if args.order == 1 else faces_higher(arr, args.order)
    report["strata"] = len(p.elements)
    report["poset"] = sio.dump_poset(p)
    if args.subcommand == "complement":
        report.update(_homology_report(order_complex(p)))
    else:
        report["euler_sum"] = euler_sum(p)
    return payload, report


def _conf_report(args, x, conditions: list, **keys) -> dict:
    """The report of a configuration space ``x`` of a graph: its cells,
    the Abrams conditions and the homology of its subdivision."""
    return {
        **keys,
        "k": args.k,
        "cells": len(x.cells()),
        "oracle_conditions": conditions,
        **_homology_report(sd(x), args.rank_only),
    }


def cmd_conf(args) -> tuple[dict, dict]:
    _, g, payload = _source(args, graphs=True)
    if args.subdivide != 1:  # subdivide_graph rejects counts below 1
        g = subdivide_graph(g, args.subdivide)
    if args.oracle and args.unordered:  # after the input's own errors
        raise CliError(
            "--oracle has no unordered model: the Abrams complex is a model "
            "of ordered configurations",
            EXIT_INVALID,
        )
    if args.oracle:
        x = abrams_complex(g, args.k)
        model = "abrams"
        conditions = abrams_conditions(g, args.k)
    elif args.unordered:
        x = unordered_conf(g, args.k)
        model = "unordered"
        conditions = []
    else:
        x = conf_category(g, args.k)
        model = "ordered"
        conditions = []
    return payload, _conf_report(args, x, conditions, model=model)


def cmd_abrams(args) -> tuple[dict, dict]:
    _, g, payload = _source(args, graphs=True)
    x = abrams_complex(g, args.k, args.subdivide)
    conditions = abrams_conditions(subdivide_graph(g, args.subdivide), args.k)
    return payload, _conf_report(args, x, conditions, subdivide=args.subdivide)


def _dot(kind: str, value) -> str:
    """The Hasse diagram of a poset, or the diagram of the category of a
    category, stratified space or graph, in DOT. A node is named by its
    element or its object's index, and a morphism edge is labelled."""
    if kind == "graph":
        kind, value = "css", graph_to_css(value)
    if kind == "css":
        kind, value = "category", value.cat
    if kind == "poset":
        name = "hasse"
        nodes = [(e, value.labels.get(e, e)) for e in value.elements]
        edges = [(lo, hi, None) for lo, hi in value.covers]
    elif kind == "category":
        ix = value._index
        name = "facecat"
        nodes = [(ix.obj[x], x) for x in value.objects]
        edges = list(zip(ix.src, ix.dst, value.morphisms))
    else:
        raise CliError(f"no DOT export for {kind}", EXIT_INVALID)
    lines = [f"digraph {name} {{"]
    for i, label in nodes:
        lines.append(f'  n{i} [label="{_dot_label(label)}"];')
    for lo, hi, label in edges:
        attrs = "" if label is None else f' [label="{_dot_label(label)}"]'
        lines.append(f"  n{lo} -> n{hi}{attrs};")
    lines.append("}")
    return "\n".join(lines)


def _dot_label(value) -> str:
    return str(value).replace('"', "'")


def _off_sd(dc) -> str:
    import math

    if dc.dim() > 2:
        raise CliError("OFF export supports complexes of dimension <= 2", EXIT_INVALID)
    n0 = dc.size(0)
    lines = ["OFF", f"{n0} {dc.size(2)} {dc.size(1)}"]
    for i in range(n0):
        angle = 2 * math.pi * i / max(n0, 1)
        lines.append(f"{math.cos(angle):.6f} {math.sin(angle):.6f} 0.000000")
    for c in range(dc.size(2)):
        d0 = dc.face(2, c, 0)
        verts = [
            dc.face(1, dc.face(2, c, 1), 1),
            dc.face(1, dc.face(2, c, 2), 0),
            dc.face(1, d0, 0),
        ]
        lines.append("3 " + " ".join(str(v) for v in verts))
    return "\n".join(lines)


def cmd_export(args) -> tuple[dict, dict] | str:
    kind, value, payload = _source(args)
    _check_dumpable(kind, value, args.format)
    if args.format == "json":
        return payload, {"body": _kinds()[kind][1](value)}
    if args.format == "dot":
        return _dot(kind, value)
    if kind == "css":
        return _off_sd(sd(value))
    if kind == "delta":
        return _off_sd(_checked_delta(value))
    raise CliError(f"no OFF export for {kind}", EXIT_INVALID)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratakit",
        description="Stratified-space toolkit: face categories, barycentric "
        "subdivision, duality, arrangements, graph configuration spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, fixtures=None, choice=None):
        """A subcommand, with its positional ``(dest, choices)`` if any,
        reading ``--file`` (or one of ``--file`` and ``--fixture`` when
        it has fixtures) and writing to ``--out``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if choice:
            p.add_argument(choice[0], choices=choice[1])
        if fixtures is None:
            p.add_argument("--file", required=True, help="JSON input path")
        else:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--file", help="JSON input path")
            group.add_argument(
                "--fixture", choices=sorted(fixtures), help="named fixture"
            )
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    command("validate", cmd_validate, "validate a JSON input")
    command("facecat", cmd_facecat, "face category of a stratified space", CSS_FIXTURES)
    command("sd", cmd_sd, "barycentric subdivision with homology", CSS_FIXTURES)
    command("homology", cmd_homology, "homology of a complex/poset/space")
    command("dual", cmd_dual, "stellar dual", CSS_FIXTURES)
    command("salvetti", cmd_salvetti, "double dual (Salvetti complex)", CSS_FIXTURES)

    p = command(
        "arrangement",
        cmd_arrangement,
        "sign-vector stratifications",
        choice=("subcommand", ["faces", "complement", "salvetti", "symmetric"]),
    )
    p.add_argument("--order", type=int, default=1)

    p = command("conf", cmd_conf, "configuration space of a graph", GRAPH_FIXTURES)
    p.add_argument("--k", type=int, required=True)
    ordering = p.add_mutually_exclusive_group()
    ordering.add_argument("--ordered", action="store_true", default=True)
    ordering.add_argument("--unordered", action="store_true", default=False)
    p.add_argument(
        "--oracle", action="store_true", help="use the Abrams discrete model"
    )
    p.add_argument("--subdivide", type=int, default=1)

    p = command(
        "abrams", cmd_abrams, "Abrams discrete configuration space", GRAPH_FIXTURES
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--subdivide", type=int, default=1)

    command(
        "export",
        cmd_export,
        "export dot/off/json",
        CSS_FIXTURES,
        choice=("format", ["dot", "off", "json"]),
    )

    # last, as each of these commands lists it
    for name in ("sd", "homology", "conf", "abrams"):
        sub.choices[name].add_argument(
            "--rank-only", action="store_true", help="Betti numbers only, no torsion"
        )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def _operation(args) -> str:
    """The command, with the positional choice of arrangement and export."""
    choice = getattr(args, "subcommand", None) or getattr(args, "format", None)
    return f"{args.command} {choice}" if choice else args.command


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        if args.out:
            _check_writable(args.out)
        result = args.func(args)
        code = EXIT_OK
        if not isinstance(result, str):  # a payload and its report
            payload, report = result
            code = EXIT_INVALID if report.get("diagnostics") else EXIT_OK
            report["operation"] = _operation(args)
            report["digest"] = _digest(payload)
            result = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(result + "\n")
            except OSError as exc:
                raise CliError(f"cannot write {args.out}: {exc}", EXIT_IO) from exc
        else:
            print(result)
            sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout; point it at devnull, so that the
        # interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_IO
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        elapsed = (time.monotonic() - start) * 1000
        print(f"timing_ms: {elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
