"""The benchmark's workloads: seeded inputs, operations and exact checks.

Each workload builds its inputs once (``setup``) and then lists its
operations for one pass. An operation calls stratakit's public functions,
or ``stratakit.cli.main`` in process, checks the result against values
that come from outside the program, and returns the sizes that explain
its time. Sizes must repeat exactly across passes and equal the values
frozen in ``expected.json``: the seed moves coefficients, labels and call
order, never a size.

Why these workloads, each stressing different layers (instances are sized
so that a pass takes 2 to 6 s and a 25-second run repeats it):

- ``arrangement``: exact-LP bound. Every level-1 stratification solves
  one rational LP per sign vector (3^m of them), and the face order is
  built by pairwise tests. ``lp`` dominates, then ``arrangement`` and
  ``poset``; homology is a small share.
- ``graphconf``: combinatorial construction with zero LP calls.
  Configuration categories of Y, K4 and K5, their free S_k quotients and
  the Abrams oracle on K4 put the time in ``category``, then ``poset``,
  ``css`` and ``homology``.
- ``torsion``: validation- and Smith-normal-form bound. RP^2 x RP^2 and
  RP^2 x S^2 are validated repeatedly (each link sphere check runs an
  order complex and its homology) and their nerves are reduced twice,
  over the integers and for ranks only.
- ``small_batch``: fixed cost per call. 125 short in-process CLI calls,
  where argument parsing, JSON schema checks and report output (``cli``,
  ``io``) carry weight.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# The program under test is this checkout's src/ tree and nothing else.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "stratakit" / "__init__.py").is_file():
    raise SystemExit(f"error: no stratakit sources under {SRC}")
sys.path.insert(0, str(SRC))

import stratakit as sk  # noqa: E402
from stratakit import fixtures  # noqa: E402

A = importlib.import_module("stratakit.arrangement")
G = importlib.import_module("stratakit.graphconf")


class CheckFailed(Exception):
    """An operation returned a value that contradicts a known invariant."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One operation of a pass. ``run(state)`` returns JSON-ready sizes;
    ``state`` carries results to later operations of the same pass."""

    name: str
    run: Callable[[dict], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], object]
    ops: Callable[[object], list]


# ---------------------------------------------------------------- helpers


def _betti_trimmed(h) -> tuple:
    t = h.trimmed()
    return t.betti, t.torsion


def _euler(h) -> int:
    return sum((-1) ** n * b for n, b in enumerate(h.betti))


def _homology_of(dc, rank_only: bool = False):
    return sk.homology(sk.chain_complex(dc), rank_only=rank_only)


def _css_sizes(x) -> dict:
    by_dim: dict[int, int] = {}
    for v in x.cells():
        by_dim[x.dim(v)] = by_dim.get(x.dim(v), 0) + 1
    return {
        "cells_by_dim": [by_dim.get(d, 0) for d in range(max(by_dim) + 1)],
        "morphisms": len(x.cat.morphisms),
        "compose": len(x.cat.compose),
    }


def _homology_sizes(h) -> dict:
    return {"betti": list(h.betti), "torsion": [list(t) for t in h.torsion]}


# ------------------------------------------------------------ arrangement


def random_arrangement(rng: random.Random, n: int) -> object:
    """Four rational hyperplanes in R^n (n = 2 or 3) with a concurrence and
    a parallel pair, small integer coefficients.

    Three hyperplanes contain a common codimension-2 flat (a point in R^2,
    a line in R^3): their normals lie in the span of two integer vectors
    and each passes through the same integer point. The fourth is parallel
    to one of them, so it misses that flat. The combinatorial type is
    fixed; the seed moves the coefficients, and with them the LP pivots.
    Draws that repeat a hyperplane (normals that turn out parallel) are
    rejected with ``validate_arrangement``.
    """
    while True:
        point = [rng.randint(-2, 2) for _ in range(n)]
        u = [rng.randint(-3, 3) for _ in range(n)]
        v = [rng.randint(-3, 3) for _ in range(n)]
        rows = []
        for _ in range(3):
            alpha, beta = rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2)
            a = [alpha * x + beta * y for x, y in zip(u, v)]
            rows.append((a, -sum(x * p for x, p in zip(a, point))))
        a, b = rng.choice(rows)
        rows.append((a, b + rng.choice([-3, -2, -1, 1, 2, 3])))
        rng.shuffle(rows)
        arr = sk.Arrangement(
            n, tuple((tuple(map(Fraction, a)), Fraction(b)) for a, b in rows)
        )
        if not A.validate_arrangement(arr):
            return arr


# a batch of random instances per pass, so that neither the pass time
# nor the latency percentiles hang on one draw
RANDOM_PER_DIM = 5


def arrangement_setup(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    return {
        "braid3": sk.braid_arrangement(3),
        "random": [
            (f"r{n}.{i}", random_arrangement(rng, n))
            for n in (2, 3)
            for i in range(RANDOM_PER_DIM)
        ],
    }


def _complement_homology(name: str, arr, poincare=None, chambers=None):
    """Order-2 complement homology. Zaslavsky and Orlik-Solomon: the Betti
    numbers are the Poincare polynomial of the arrangement, they sum to
    the number of chambers, and there is no torsion. Without a known
    chamber count, the count of the pass's level-1 faces is used."""

    def complement(state):
        p = sk.complement_poset(arr, 2)
        state[name] = p
        return {"strata": len(p.elements), "covers": len(p.covers)}

    def homology(state):
        dc = sk.order_complex(state.pop(name))
        h = _homology_of(dc)
        expect(not any(h.torsion), f"{name}: torsion in a complement")
        if poincare is not None:
            expect(list(h.betti) == poincare, f"{name}: Betti {h.betti}")
        count = chambers if chambers is not None else state[f"{name}.chambers"]
        expect(
            sum(h.betti) == count,
            f"{name}: sum of Betti {sum(h.betti)} is not the chamber count {count}",
        )
        return {"f": list(sk.f_vector(dc)), **_homology_sizes(h)}

    return complement, homology


def _random_instance(name: str, arr):
    """Level-1 faces, order-2 complement and its homology of one random
    arrangement: 3 x 3^4 LPs. ``euler_sum`` of the level-1 faces is the
    compactly supported Euler characteristic (-1)^n of R^n, and the
    complement's Betti numbers sum to the chamber count."""
    complement, homology = _complement_homology(name, arr)

    def run(state):
        p = sk.faces_level1(arr)
        expect(
            A.euler_sum(p) == (-1) ** arr.n,
            f"{name}: euler_sum {A.euler_sum(p)} on R^{arr.n}",
        )
        chambers = sum(1 for e in p.elements if p.grades[e] == arr.n)
        state[f"{name}.chambers"] = chambers
        sizes = {"faces": len(p.elements), "chambers": chambers}
        sizes.update(complement(state))
        sizes.update(homology(state))
        return sizes

    return run


def _braid_salvetti3(arr):
    def run(state):
        dc = sk.higher_salvetti(arr, 3)
        h = _homology_of(dc)
        # prod_{j<3} (1 + j t^2) = 1 + 3t^2 + 2t^4; 3! chambers
        expect(list(h.betti) == [1, 0, 3, 0, 2], f"braid3 order 3: {h.betti}")
        expect(not any(h.torsion), "braid3 order 3: torsion")
        return {"f": list(sk.f_vector(dc)), **_homology_sizes(h)}

    return run


def arrangement_ops(inputs: dict) -> list:
    b3 = inputs["braid3"]
    # braid(3): Poincare polynomial (1+t)(1+2t) and 3! chambers
    b3_complement, b3_homology = _complement_homology(
        "braid3", b3, poincare=[1, 3, 2], chambers=6
    )
    ops = [
        Op("braid3.complement2", b3_complement),
        Op("braid3.homology2", b3_homology),
        Op("braid3.salvetti3", _braid_salvetti3(b3)),
    ]
    for name, arr in inputs["random"]:
        ops.append(Op(name, _random_instance(name, arr)))
    return ops


# --------------------------------------------------------------- graphconf


def relabel(g, rng: random.Random):
    """An isomorphic copy of a graph: vertices renamed among themselves,
    vertex and edge lists reordered."""
    names = list(g.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    vertices = [rename[v] for v in g.vertices]
    edges = [(e, (rename[a], rename[b])) for e, (a, b) in g.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return G.Graph(tuple(vertices), tuple(edges))


def complete_graph(n: int):
    return G.Graph(
        tuple(range(n)),
        tuple(((i, j), (i, j)) for i in range(n) for j in range(i + 1, n)),
    )


def graphconf_setup(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    return {
        "y": relabel(G.y_graph(), rng),
        "k4": relabel(complete_graph(4), rng),
        "k5": relabel(G.k5_graph(), rng),
    }


def _build(key: str, make):
    def run(state):
        state[key] = make(state)
        return _css_sizes(state[key])

    return run


def _conf_homology(name: str, key: str, expected=None, same_as=None, chi_of=None):
    """Homology of sd(model). ``expected`` is a frozen (Betti, torsion);
    ``same_as`` names another model that must agree (the Abrams oracle);
    ``chi_of`` = (ordered key, k!) checks chi(ordered) = k! chi(this), the
    free S_k quotient."""

    def run(state):
        dc = sk.sd(state[key])
        h = _homology_of(dc)
        state[f"{key}.h"] = _betti_trimmed(h)
        if expected is not None:
            expect(state[f"{key}.h"] == expected, f"{name}: {h.pretty()}")
        if same_as is not None:
            expect(state[f"{key}.h"] == state[f"{same_as}.h"], f"{name} disagrees: {h.pretty()}")
        state[f"{key}.chi"] = _euler(h)
        if chi_of is not None:
            ordered, k_factorial = chi_of
            chi = state[f"{ordered}.chi"]
            expect(
                chi == k_factorial * state[f"{key}.chi"],
                f"{name}: chi {chi} of the ordered model is not {k_factorial} x {state[f'{key}.chi']}",
            )
        return {"f": list(sk.f_vector(dc)), **_homology_sizes(h)}

    return run


def graphconf_ops(inputs: dict) -> list:
    y, k4, k5 = inputs["y"], inputs["k4"], inputs["k5"]

    def quotient(key, k):
        def make(state):
            o = state[key]
            return sk.quotient_css(o, sk.sigma_action(o, k))

        return make

    def abrams(g, k):
        def make(state):
            subdivided = sk.subdivide_graph(g, 3)
            expect(not sk.abrams_conditions(subdivided, k), "Abrams length hypotheses fail")
            return sk.abrams_complex(g, k, 3)

        return make

    return [
        Op("y3.ordered", _build("y3", lambda s: sk.conf_category(y, 3))),
        # (Z, Z^13), confirmed independently by abrams_complex(Y, 3, 3)
        Op("y3.ordered.homology", _conf_homology("Conf_3(Y)", "y3", ((1, 13), ((), ())))),
        Op("y3.unordered", _build("y3u", quotient("y3", 3))),
        Op("y3.unordered.homology", _conf_homology("UConf_3(Y)", "y3u", chi_of=("y3", 6))),
        Op("k4.ordered", _build("k4", lambda s: sk.conf_category(k4, 2))),
        Op("k4.ordered.homology", _conf_homology("Conf_2(K4)", "k4")),
        Op("k4.unordered", _build("k4u", quotient("k4", 2))),
        Op("k4.unordered.homology", _conf_homology("UConf_2(K4)", "k4u", chi_of=("k4", 2))),
        Op("k4.abrams", _build("k4a", abrams(k4, 2))),
        Op("k4.abrams.homology", _conf_homology("Abrams Conf_2(K4)", "k4a", same_as="k4")),
        Op("k5.ordered", _build("k5", lambda s: sk.conf_category(k5, 2))),
        # orientable genus-6 surface; its unordered quotient is N_7
        Op("k5.ordered.homology", _conf_homology("Conf_2(K5)", "k5", ((1, 12, 1), ((), (), ())))),
        Op("k5.unordered", _build("k5u", lambda s: sk.unordered_conf(k5, 2))),
        Op(
            "k5.unordered.homology",
            _conf_homology("UConf_2(K5)", "k5u", ((1, 6), ((), (2,))), chi_of=("k5", 2)),
        ),
    ]


# ----------------------------------------------------------------- torsion


def torsion_setup(seed: int, workdir: Path) -> dict:
    return {"rp2": fixtures.rp2(), "s2": fixtures.boundary_simplex(3)}


# Kunneth with H(RP^2) = (Z, Z/2, 0) and H(S^2) = (Z, 0, Z); the Tor term
# gives RP^2 x RP^2 its Z/2 in degree 3
KUNNETH = {
    "rp2xrp2": ([1, 0, 0, 0, 0], [[], [2, 2], [2], [2], []]),
    "rp2xs2": ([1, 0, 1, 0, 0], [[], [2], [], [2], []]),
}


def torsion_ops(inputs: dict) -> list:
    ops = []
    for name, (betti, torsion) in KUNNETH.items():
        left, right = inputs["rp2"], inputs[name.split("x")[1]]

        def product(state, name=name, left=left, right=right):
            state[name] = sk.product_css(left, right)
            return _css_sizes(state[name])

        def subdivide(state, name=name):
            state[name] = sk.sd(state[name])
            return {"f": list(sk.f_vector(state[name]))}

        def chains(state, name=name):
            state[name] = sk.chain_complex(state[name])
            return {"nnz": [len(m) for m in state[name].boundaries]}

        def integral(state, name=name, betti=betti, torsion=torsion):
            h = sk.homology(state[name])
            expect(list(h.betti) == betti, f"{name}: Betti {h.betti}")
            expect([list(t) for t in h.torsion] == torsion, f"{name}: {h.pretty()}")
            return _homology_sizes(h)

        def rank_only(state, name=name, betti=betti):
            h = sk.homology(state.pop(name), rank_only=True)
            expect(list(h.betti) == betti, f"{name}: rank-only Betti {h.betti}")
            return _homology_sizes(h)

        ops += [
            Op(f"{name}.product", product),
            Op(f"{name}.sd", subdivide),
            Op(f"{name}.chain_complex", chains),
            Op(f"{name}.homology", integral),
            Op(f"{name}.homology.rank_only", rank_only),
        ]
    return ops


# ------------------------------------------------------------- small_batch

# kept small so that LPs do not crowd out the per-call cost
SMALL_ARRANGEMENTS = {
    "point": {"n": 1, "hyperplanes": [{"a": ["1"], "b": "0"}]},
    "two-points": {"n": 1, "hyperplanes": [{"a": ["1"], "b": "0"}, {"a": ["2"], "b": "-1"}]},
    "cross": {
        "n": 2,
        "hyperplanes": [{"a": ["1", "0"], "b": "0"}, {"a": ["1", "1"], "b": "-1"}],
    },
}
# fixtures whose exported JSON is read back through --file
ROUND_TRIP = ("circle-minimal", "torus", "punctured-torus", "rp2", "simplex-2", "conf2-loop")
WORKDIR_TAG = "<work>"


def cli_call(argv: list, workdir: Path) -> tuple[object, str, str]:
    """Run ``stratakit.cli.main`` in process; returns exit code, stdout and
    stderr. An argparse error exits through ``SystemExit``, whose code is
    returned like any other."""
    cli = importlib.import_module("stratakit.cli")
    out, err = io.StringIO(), io.StringIO()
    real = [a.replace(WORKDIR_TAG, str(workdir)) for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(real)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_op(argv: list, workdir: Path, after=None) -> Op:
    def run(state):
        code, text, err = cli_call(argv, workdir)
        expect(code == 0, f"exit code {code}: {err.strip()}")
        if after is not None:
            after(text)
        return {
            "exit": code,
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }

    return Op(" ".join(argv), run)


def small_batch_setup(seed: int, workdir: Path) -> dict:
    importlib.import_module("stratakit.cli")
    workdir.mkdir(parents=True, exist_ok=True)
    for name, payload in SMALL_ARRANGEMENTS.items():
        (workdir / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    return {"seed": seed, "workdir": workdir}


def small_batch_ops(inputs: dict) -> list:
    """Groups of calls in a seeded order. Within a group, reads of an
    exported file follow the export that wrote it."""
    rng = random.Random(inputs["seed"])
    workdir = inputs["workdir"]
    groups = []
    for fx in sorted(fixtures.CSS_FIXTURES):
        calls = [[cmd, "--fixture", fx] for cmd in ("facecat", "sd", "dual", "salvetti")]
        calls.append(["export", "dot", "--fixture", fx])
        rng.shuffle(calls)
        group = [_cli_op(c, workdir) for c in calls]
        path = f"{WORKDIR_TAG}/{fx}.json"
        if fx in ROUND_TRIP:

            def write_body(text, target=workdir / f"{fx}.json"):
                body = json.loads(text)["body"]
                target.write_text(json.dumps(body), encoding="utf-8")

            group.append(_cli_op(["export", "json", "--fixture", fx], workdir, write_body))
            group += [
                _cli_op(c, workdir)
                for c in (["validate", "--file", path], ["sd", "--file", path], ["homology", "--file", path])
            ]
        else:
            group.append(_cli_op(["export", "json", "--fixture", fx], workdir))
        groups.append(group)
    for g in sorted(G.GRAPH_FIXTURES):
        groups.append(
            [
                _cli_op(["conf", "--fixture", g, "--k", "2"], workdir),
                _cli_op(["conf", "--fixture", g, "--k", "2", "--unordered"], workdir),
            ]
        )
    for name in SMALL_ARRANGEMENTS:
        path = f"{WORKDIR_TAG}/{name}.json"
        calls = [["validate", "--file", path]]
        for sub in ("faces", "complement", "salvetti", "symmetric"):
            for order in ("1", "2"):
                calls.append(["arrangement", sub, "--file", path, "--order", order])
        rng.shuffle(calls)
        groups.append([_cli_op(c, workdir) for c in calls])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


WORKLOADS = {
    "arrangement": Workload("arrangement", arrangement_setup, arrangement_ops),
    "graphconf": Workload("graphconf", graphconf_setup, graphconf_ops),
    "torsion": Workload("torsion", torsion_setup, torsion_ops),
    "small_batch": Workload("small_batch", small_batch_setup, small_batch_ops),
}
