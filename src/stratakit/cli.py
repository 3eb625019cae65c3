"""Command-line front end.

Every command reads JSON (or a named fixture), performs one operation,
and writes a deterministic RunReport to stdout: byte-identical for
identical inputs. Timing goes to stderr so it never perturbs the report
or its digest. Exit codes: 0 success, 2 validation failure, 1 I/O or
parse error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
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
from .css import dual, salvetti_complex, sd, validate_total_normality
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
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse {path}: {exc}", EXIT_IO) from exc


def _digest(payload) -> str:
    return hashlib.sha256(sio.canonical_json(payload).encode()).hexdigest()


def _codec(kind: str):
    """The JSON loader and dumper of an input kind."""
    return {
        "poset": (sio.load_poset, sio.dump_poset),
        "category": (sio.load_category, sio.dump_category),
        "css": (sio.load_css, sio.dump_css),
        "delta": (sio.load_delta, sio.dump_delta),
        "arrangement": (sio.load_arrangement, sio.dump_arrangement),
        "graph": (sio.load_graph, sio.dump_graph),
    }[kind]


def _load_checked(path: str, kind: str | None = None):
    payload = _read_payload(path)
    actual = kind or sio.detect_kind(payload)
    problems = sio.validate_payload(payload, actual)
    if problems:
        raise CliError(
            "schema violations: " + "; ".join(problems), EXIT_INVALID
        )
    loader, _ = _codec(actual)
    try:
        return actual, loader(payload), payload
    except (ValueError, KeyError) as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc


def _css_input(args):
    if args.fixture:
        x = css_fixture(args.fixture)
        return x, {"fixture": args.fixture}
    kind, value, payload = _load_checked(args.file)
    if kind == "graph":
        return graph_to_css(value), payload
    if kind != "css":
        raise CliError(f"expected a stratified space, got {kind}", EXIT_INVALID)
    return value, payload


def _graph_input(args):
    if args.fixture:
        return graph_fixture(args.fixture), {"fixture": args.fixture}
    kind, value, payload = _load_checked(args.file, "graph")
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


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_validate(args) -> int:
    kind, value, payload = _load_checked(args.file)
    diagnostics = {
        "poset": validate_poset,
        "category": validate_category,
        "css": validate_total_normality,
        "delta": validate_delta,
        "graph": validate_graph,
        "arrangement": lambda a: [],
    }[kind](value)
    report = {
        "operation": "validate",
        "kind": kind,
        "digest": _digest(payload),
        "diagnostics": diagnostics,
        "valid": not diagnostics,
    }
    _emit(report, args)
    return EXIT_OK if not diagnostics else EXIT_INVALID


def _check_dumpable(kind: str, value) -> None:
    """Exit 2 with the diagnostics of an invalid category or face
    category, which has no dump. They are read from the check each
    category caches, so this validates nothing twice."""
    if kind == "css" and value.cat._problems:
        raise CliError(
            "invalid stratified space: "
            + "; ".join(f"face category: {p}" for p in value.cat._problems),
            EXIT_INVALID,
        )
    if kind == "category" and value._problems:
        raise CliError("invalid category: " + "; ".join(value._problems), EXIT_INVALID)


def cmd_facecat(args) -> int:
    x, payload = _css_input(args)
    report = {
        "operation": "facecat",
        "digest": _digest(payload),
        "diagnostics": validate_total_normality(x),
    }
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
    _emit(report, args)
    return EXIT_OK if not report["diagnostics"] else EXIT_INVALID


def cmd_sd(args) -> int:
    x, payload = _css_input(args)
    diagnostics = validate_total_normality(x)
    if diagnostics:
        _emit(
            {
                "operation": "sd",
                "digest": _digest(payload),
                "diagnostics": diagnostics,
            },
            args,
        )
        return EXIT_INVALID
    dc = sd(x)
    report = {
        "operation": "sd",
        "digest": _digest(payload),
        "diagnostics": [],
        **_homology_report(dc, rank_only=args.rank_only),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_homology(args) -> int:
    kind, value, payload = _load_checked(args.file)
    if kind == "delta":
        dc = _checked_delta(value)
    elif kind == "poset":
        dc = order_complex(value)
    elif kind == "css":
        dc = sd(value)
    elif kind == "category":
        dc = nondegenerate_nerve(value)
    else:
        raise CliError(f"no homology for inputs of kind {kind}", EXIT_INVALID)
    report = {
        "operation": "homology",
        "digest": _digest(payload),
        **_homology_report(dc, rank_only=args.rank_only),
    }
    _emit(report, args)
    return EXIT_OK


def _cells_by_dim(x) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in x.cells():
        key = str(x.cat.grades[v])
        counts[key] = counts.get(key, 0) + 1
    return counts


def _dual_command(args, op_name, op) -> int:
    x, payload = _css_input(args)
    y = op(x)
    report = {
        "operation": op_name,
        "digest": _digest(payload),
        "cells_by_dim": _cells_by_dim(y),
        "css": sio.dump_css(y),
        **_homology_report(sd(y)),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_dual(args) -> int:
    return _dual_command(args, "dual", dual)


def cmd_salvetti(args) -> int:
    return _dual_command(args, "salvetti", salvetti_complex)


def cmd_arrangement(args) -> int:
    kind, arr, payload = _load_checked(args.file, "arrangement")
    report: dict = {
        "operation": f"arrangement {args.subcommand}",
        "digest": _digest(payload),
        "order": args.order,
    }
    if args.subcommand == "faces":
        p = faces_level1(arr) if args.order == 1 else faces_higher(arr, args.order)
        report["strata"] = len(p.elements)
        report["euler_sum"] = euler_sum(p)
        report["poset"] = sio.dump_poset(p)
    elif args.subcommand == "complement":
        p = complement_poset(arr, args.order)
        report["strata"] = len(p.elements)
        report["poset"] = sio.dump_poset(p)
        report.update(_homology_report(order_complex(p)))
    elif args.subcommand == "salvetti":
        report["cells_by_dim"] = _cells_by_dim(salvetti_cellular(arr, args.order))
        report.update(_homology_report(higher_salvetti(arr, args.order)))
    else:
        p = symmetric_subdivision(arr, args.order)
        report["strata"] = len(p.elements)
        report["euler_sum"] = euler_sum(p)
        report["poset"] = sio.dump_poset(p)
    _emit(report, args)
    return EXIT_OK


def cmd_conf(args) -> int:
    g, payload = _graph_input(args)
    if args.subdivide != 1:  # subdivide_graph rejects counts below 1
        g = subdivide_graph(g, args.subdivide)
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
    report = {
        "operation": "conf",
        "model": model,
        "k": args.k,
        "digest": _digest(payload),
        "cells": len(x.cells()),
        "oracle_conditions": conditions,
        **_homology_report(sd(x), rank_only=args.rank_only),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_abrams(args) -> int:
    g, payload = _graph_input(args)
    x = abrams_complex(g, args.k, args.subdivide)
    report = {
        "operation": "abrams",
        "k": args.k,
        "subdivide": args.subdivide,
        "digest": _digest(payload),
        "cells": len(x.cells()),
        "oracle_conditions": abrams_conditions(
            subdivide_graph(g, args.subdivide), args.k
        ),
        **_homology_report(sd(x), rank_only=args.rank_only),
    }
    _emit(report, args)
    return EXIT_OK


def _dot_poset(p) -> str:
    lines = ["digraph hasse {"]
    for e in p.elements:
        label = str(p.labels.get(e, e)).replace('"', "'")
        lines.append(f'  n{e} [label="{label}"];')
    for lo, hi in p.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines)


def _dot_category(c) -> str:
    oid = {x: i for i, x in enumerate(c.objects)}
    lines = ["digraph facecat {"]
    for x in c.objects:
        label = str(x).replace('"', "'")
        lines.append(f'  n{oid[x]} [label="{label}"];')
    for m in c.morphisms:
        label = str(m).replace('"', "'")
        lines.append(
            f'  n{oid[c.src[m]]} -> n{oid[c.dst[m]]} [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines)


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


def cmd_export(args) -> int:
    if args.fixture:
        x = css_fixture(args.fixture)
        payload: dict = {"fixture": args.fixture}
        kind = "css"
        value = x
    else:
        kind, value, payload = _load_checked(args.file)
    _check_dumpable(kind, value)
    if args.format == "json":
        _, dump = _codec(kind)
        body = dump(value)
        _emit({"operation": "export json", "digest": _digest(payload), "body": body}, args)
        return EXIT_OK
    if args.format == "dot":
        if kind == "poset":
            text = _dot_poset(value)
        elif kind == "css":
            text = _dot_category(value.cat)
        elif kind == "category":
            text = _dot_category(value)
        elif kind == "graph":
            text = _dot_category(graph_to_css(value).cat)
        else:
            raise CliError(f"no DOT export for {kind}", EXIT_INVALID)
    else:  # off
        if kind == "css":
            text = _off_sd(sd(value))
        elif kind == "delta":
            text = _off_sd(_checked_delta(value))
        else:
            raise CliError(f"no OFF export for {kind}", EXIT_INVALID)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratakit",
        description="Stratified-space toolkit: face categories, barycentric "
        "subdivision, duality, arrangements, graph configuration spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p, graphs=False):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--file", help="JSON input path")
        names = sorted(GRAPH_FIXTURES if graphs else CSS_FIXTURES)
        group.add_argument("--fixture", choices=names, help="named fixture")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("validate", help="validate a JSON input")
    p.add_argument("--file", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("facecat", help="face category of a stratified space")
    add_source(p)
    p.set_defaults(func=cmd_facecat)

    p = sub.add_parser("sd", help="barycentric subdivision with homology")
    add_source(p)
    p.add_argument(
        "--rank-only", action="store_true", help="Betti numbers only, no torsion"
    )
    p.set_defaults(func=cmd_sd)

    p = sub.add_parser("homology", help="homology of a complex/poset/space")
    p.add_argument("--file", required=True)
    p.add_argument("--out")
    p.add_argument(
        "--rank-only", action="store_true", help="Betti numbers only, no torsion"
    )
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("dual", help="stellar dual")
    add_source(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("salvetti", help="double dual (Salvetti complex)")
    add_source(p)
    p.set_defaults(func=cmd_salvetti)

    p = sub.add_parser("arrangement", help="sign-vector stratifications")
    p.add_argument(
        "subcommand", choices=["faces", "complement", "salvetti", "symmetric"]
    )
    p.add_argument("--file", required=True)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_arrangement)

    p = sub.add_parser("conf", help="configuration space of a graph")
    add_source(p, graphs=True)
    p.add_argument("--k", type=int, required=True)
    ordering = p.add_mutually_exclusive_group()
    ordering.add_argument("--ordered", action="store_true", default=True)
    ordering.add_argument("--unordered", action="store_true", default=False)
    p.add_argument(
        "--oracle", action="store_true", help="use the Abrams discrete model"
    )
    p.add_argument("--subdivide", type=int, default=1)
    p.add_argument(
        "--rank-only", action="store_true", help="Betti numbers only, no torsion"
    )
    p.set_defaults(func=cmd_conf)

    p = sub.add_parser("abrams", help="Abrams discrete configuration space")
    add_source(p, graphs=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--subdivide", type=int, default=1)
    p.add_argument(
        "--rank-only", action="store_true", help="Betti numbers only, no torsion"
    )
    p.set_defaults(func=cmd_abrams)

    p = sub.add_parser("export", help="export dot/off/json")
    p.add_argument("format", choices=["dot", "off", "json"])
    add_source(p)
    p.set_defaults(func=cmd_export)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
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
