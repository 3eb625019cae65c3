"""Span tracing of stratakit from the outside, for traced benchmark passes.

``Tracer.install()`` replaces every public function of the traced stratakit
modules, in every stratakit namespace that binds it (``from .lp import
strict_feasibility`` in ``arrangement``, ``cat_ops.nondegenerate_nerve``
in ``css``, the names re-exported by the package), with a wrapper that
records a span: name, start, end and parent. ``Tracer.remove()`` puts the
originals back, so untraced passes run the unmodified program.

A layer is a stratakit module. Its self time is the time inside its spans
minus the time their child spans cover. Counts come from the values the
wrapped functions return, so the program itself is not changed.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

LAYERS = (
    "lp",
    "arrangement",
    "poset",
    "category",
    "css",
    "graphconf",
    "delta",
    "homology",
    "io",
    "cli",
)

# Public methods that do real work. Accessors and the hot order predicates
# (Poset.less, SignVector.leq, AcyclicCategory.in_morphisms, ...) stay
# unwrapped: a span around each of their millions of calls would measure
# the tracer, not the layer.
METHODS = {
    "poset": {"Poset": ("from_relation", "chains", "comparable_pairs", "height")},
    "category": {
        "AcyclicCategory": ("from_poset",),
        "GroupActionOnCategory": ("validate", "elements"),
    },
    "arrangement": {"Arrangement": ("from_lists",)},
}


def _total_cells(dc) -> int:
    return sum(len(layer) for layer in dc.cells)


def _add(*pairs):
    """Counter update adding size(result) to each named count."""

    def count(counts, result):
        for key, size in pairs:
            counts[key] += size(result)

    return count


def _one(result) -> int:
    return 1


def _pairs(result) -> int:
    # the pairwise order build compares every ordered pair (computed)
    n = len(result.elements)
    return n * (n - 1)


def _len(attr):
    return lambda result: len(getattr(result, attr))


_POSET = _add(("poset.elements", _len("elements")), ("poset.covers", _len("covers")))
_CATEGORY = _add(
    ("category.morphisms", _len("morphisms")),
    ("category.compose_entries", _len("compose")),
)
_CONF_CELLS = _add(("graphconf.cells", lambda r: len(r.cells())))

# qualified function name -> counter update from (counts, returned value)
COUNTERS = {
    "lp.strict_feasibility": _add(
        ("lp.calls", _one), ("lp.feasible", lambda r: int(r.feasible))
    ),
    "lp.rational_rank": _add(("lp.rank_calls", _one)),
    "arrangement.faces_level1": _add(
        ("arrangement.faces", _len("elements")), ("arrangement.order_tests", _pairs)
    ),
    "arrangement.faces_higher": _add(
        ("arrangement.strata", _len("elements")), ("arrangement.order_tests", _pairs)
    ),
    "arrangement.symmetric_subdivision": _add(
        ("arrangement.strata", _len("elements")), ("arrangement.order_tests", _pairs)
    ),
    "arrangement.complement_poset": _add(("arrangement.order_tests", _pairs)),
    "poset.Poset.from_relation": _POSET,
    "poset.opposite": _POSET,
    "poset.product": _POSET,
    "poset.order_complex": _add(("poset.chains", _total_cells)),
    "poset.Poset.chains": _add(("poset.chains", len)),
    "category.AcyclicCategory.from_poset": _CATEGORY,
    "category.product_category": _CATEGORY,
    "category.opposite_category": _CATEGORY,
    "category.full_subcategory": _CATEGORY,
    "category.grothendieck": _CATEGORY,
    "category.quotient_by_free_action": _CATEGORY,
    "category.nondegenerate_nerve": _add(("category.nerve_simplices", _total_cells)),
    "category.validate_category": _add(("category.validate_calls", _one)),
    "css.validate_total_normality": _add(("css.validate_calls", _one)),
    "css.link_poset": _add(("css.link_posets", _one)),
    "graphconf.conf_category": _CONF_CELLS,
    "graphconf.unordered_conf": _CONF_CELLS,
    "graphconf.abrams_complex": _CONF_CELLS,
    "homology.chain_complex": _add(
        ("homology.matrices", _len("boundaries")),
        ("homology.boundary_nnz", lambda r: sum(len(m) for m in r.boundaries)),
    ),
    "io.canonical_json": _add(("io.bytes", lambda r: len(r.encode()))),
    "cli.main": _add(("cli.calls", _one)),
}

COUNT_KEYS = (
    "lp.calls",
    "lp.feasible",
    "lp.rank_calls",
    "arrangement.faces",
    "arrangement.strata",
    "arrangement.order_tests",
    "poset.elements",
    "poset.covers",
    "poset.chains",
    "category.morphisms",
    "category.compose_entries",
    "category.nerve_simplices",
    "category.validate_calls",
    "css.validate_calls",
    "css.link_posets",
    "graphconf.cells",
    "homology.boundary_nnz",
    "homology.matrices",
    "io.bytes",
    "cli.calls",
)


class Tracer:
    """Records spans and per-layer self time and counts while installed."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s = {layer: 0.0 for layer in LAYERS}
        # time inside the outermost span of each layer, children included
        self.total_s = {layer: 0.0 for layer in LAYERS}
        self._depth = {layer: 0 for layer in LAYERS}
        self.counts = {key: 0 for key in COUNT_KEYS}
        self._stack: list[list] = []

    def _wrap(self, fn, layer: str, name: str):
        count = COUNTERS.get(name)
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        total_s = self.total_s
        depth = self._depth
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans) + len(stack), perf_counter(), 0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                duration = end - frame[1]
                self_s[layer] += duration - frame[2]
                if not depth[layer]:
                    total_s[layer] += duration
                if stack:
                    stack[-1][2] += duration
                spans.append((frame[0], parent, name, frame[1], end))
            if count is not None:
                count(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every imported layer, wherever
        bound. Install a fresh tracer for each traced pass."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"stratakit.{layer}")
            if module is None:  # e.g. stratakit.cli on in-process workloads
                continue
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrapped[id(value)] = self._wrap(value, layer, f"{layer}.{attr}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = vars(cls)[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, layer, name))
                    else:
                        new = self._wrap(raw, layer, name)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "stratakit" or mod_name.startswith("stratakit.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                new = wrapped.get(id(value))
                if new is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, new)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        """A header line naming the columns and span names, then one JSON
        array per span: id, parent id (-1 for none), name index, and start
        and end in nanoseconds from the first span."""
        names = sorted({s[2] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            header = {"columns": ["id", "parent", "name", "start_ns", "end_ns"], "names": names}
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end in sorted(self.spans):
                row = [sid, parent, index[name], round((start - origin) * 1e9), round((end - origin) * 1e9)]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
