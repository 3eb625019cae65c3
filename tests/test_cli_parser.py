"""The command-line parser, pinned: every subcommand's options with their
``required``, ``default``, ``choices``, action and type, and its mutually
exclusive groups. A refactor of ``build_parser`` must leave this table as
it is; a deliberate change of the interface edits it here."""

import argparse

import pytest

from stratakit.cli import build_parser

CSS = [
    "boundary-simplex-2",
    "boundary-simplex-3",
    "circle-minimal",
    "circle-subdivided",
    "conf2-loop",
    "punctured-torus",
    "rp2",
    "simplex-1",
    "simplex-2",
    "simplex-3",
    "torus",
    "y-space",
]
GRAPHS = ["edge", "k5", "loop", "y"]
ARRANGEMENT = ["faces", "complement", "salvetti", "symmetric"]

STORE, TRUE = "StoreAction", "StoreTrueAction"
# (required, default, choices, action, type)
FILE = (False, None, None, STORE, None)
FILE_ONLY = (True, None, None, STORE, None)
OUT = (False, None, None, STORE, None)
RANK_ONLY = (False, False, None, TRUE, None)
K = (True, None, None, STORE, "int")
SUBDIVIDE = (False, 1, None, STORE, "int")
SOURCE = [(True, ("--file", "--fixture"))]


def source(fixtures):
    """--file or --fixture, one of them required, and --out."""
    fixture = (False, None, fixtures, STORE, None)
    return {"--file": FILE, "--fixture": fixture, "--out": OUT}


# subcommand -> (options by option string or positional dest, groups)
PINNED = {
    "validate": ({"--file": FILE_ONLY, "--out": OUT}, []),
    "facecat": (source(CSS), SOURCE),
    "sd": ({**source(CSS), "--rank-only": RANK_ONLY}, SOURCE),
    "homology": ({"--file": FILE_ONLY, "--out": OUT, "--rank-only": RANK_ONLY}, []),
    "dual": (source(CSS), SOURCE),
    "salvetti": (source(CSS), SOURCE),
    "arrangement": (
        {
            "subcommand": (True, None, ARRANGEMENT, STORE, None),
            "--file": FILE_ONLY,
            "--order": (False, 1, None, STORE, "int"),
            "--out": OUT,
        },
        [],
    ),
    "conf": (
        {
            **source(GRAPHS),
            "--k": K,
            "--ordered": (False, True, None, TRUE, None),
            "--unordered": (False, False, None, TRUE, None),
            "--oracle": (False, False, None, TRUE, None),
            "--subdivide": SUBDIVIDE,
            "--rank-only": RANK_ONLY,
        },
        SOURCE + [(False, ("--ordered", "--unordered"))],
    ),
    "abrams": (
        {
            **source(GRAPHS),
            "--k": K,
            "--subdivide": SUBDIVIDE,
            "--rank-only": RANK_ONLY,
        },
        SOURCE,
    ),
    "export": (
        {"format": (True, None, ["dot", "off", "json"], STORE, None), **source(CSS)},
        SOURCE,
    ),
}


def subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.required and sub.dest == "command"
    return sub.choices


def describe(p):
    options = {
        " ".join(a.option_strings) or a.dest: (
            a.required,
            a.default,
            a.choices and list(a.choices),
            type(a).__name__.strip("_"),
            getattr(a.type, "__name__", None),
        )
        for a in p._actions
        if not isinstance(a, argparse._HelpAction)
    }
    groups = [
        (g.required, tuple(a.option_strings[0] for a in g._group_actions))
        for g in p._mutually_exclusive_groups
    ]
    return options, groups


def test_the_subcommands_are_pinned():
    assert list(subcommands(build_parser())) == list(PINNED)


@pytest.mark.parametrize("name", PINNED)
def test_each_subcommand_is_pinned(name):
    assert describe(subcommands(build_parser())[name]) == PINNED[name]
