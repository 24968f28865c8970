"""Per-layer spans recorded around the package's public functions.

The traced run replaces module attributes of the imported package with
wrappers that record a span (operation id, layer, parent span, start, end)
and count work, then restores them. Nothing in the package is edited: each
module looks its callees up as module globals at call time, so rebinding
`quorder.search.closure` is seen by every caller inside `quorder.search`.
The CLI's dispatch tables hold direct references and are rebound too.

Spans live in flat arrays while the run lasts and are written out at the
end. A layer's time is its self time: span duration minus the part its
child spans cover, so the layers partition each operation's time. The one
exception is `search.generate`, which includes the isomorphism tests that
deduplicate its output (`search.iso` is reported on its own as well).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

# Layer metrics, in the order they are reported. Counts and times are per
# operation. Names ending in _ratio are accepted / calls for that layer.
LAYER_TIMES = (
    "corders.invariance",
    "corders.monotone",
    "search.ground",
    "search.enumerate_self",
    "search.decide_self",
    "search.generate",
    "search.iso",
    "search.canonical",
    "groups.closure",
    "groups.cyclic",
    "quandles.validate",
    "cli.parse",
    "cli.render",
)
COUNTS = (
    "corders.invariance_calls",
    "corders.invariance_accepted",
    "corders.monotone_calls",
    "corders.monotone_accepted",
    "search.ground_items",
    "search.decide_calls",
    "search.iso_calls",
    "search.iso_hits",
    "search.canonical_calls",
    "groups.closure_calls",
    "groups.closure_elements",
    "quandles.validate_calls",
    "cli.report_bytes",
)
RATIOS = {
    "corders.invariance_accept_ratio": ("corders.invariance_accepted", "corders.invariance_calls"),
    "corders.monotone_accept_ratio": ("corders.monotone_accepted", "corders.monotone_calls"),
    "search.iso_hit_ratio": ("search.iso_hits", "search.iso_calls"),
}
# Layers reported with their child spans included.
INCLUSIVE = ("search.generate",)
# The operation's own span; its self time is whatever no layer claims.
OP_SPAN = "cli.main"


def _count_calls(calls: str, accepted: str | None = None):
    def on_result(counts: Counter, result) -> None:
        counts[calls] += 1
        if accepted is not None and result:
            counts[accepted] += 1

    return on_result


def _count_len(name: str):
    def on_result(counts: Counter, result) -> None:
        counts[name] += len(result)

    return on_result


def _count_closure(counts: Counter, result) -> None:
    counts["groups.closure_calls"] += 1
    counts["groups.closure_elements"] += result.order


def _count_report(counts: Counter, result) -> None:
    counts["cli.report_bytes"] += len(result.encode("utf-8")) + 1  # the newline print adds


# (module suffix, attribute, span name, counter)
TARGETS = (
    ("search", "is_right_invariant", "corders.invariance", _count_calls("corders.invariance_calls", "corders.invariance_accepted")),
    ("search", "is_left_invariant", "corders.invariance", _count_calls("corders.invariance_calls", "corders.invariance_accepted")),
    ("search", "is_right_order", "corders.monotone", _count_calls("corders.monotone_calls", "corders.monotone_accepted")),
    ("search", "is_left_order", "corders.monotone", _count_calls("corders.monotone_calls", "corders.monotone_accepted")),
    ("search", "enumerate_circular_orderings", "search.ground", _count_len("search.ground_items")),
    ("search", "enumerate_rankings", "search.ground", _count_len("search.ground_items")),
    ("search", "enumerate_rco", "search.enumerate_self", None),
    ("search", "enumerate_lco", "search.enumerate_self", None),
    ("search", "enumerate_bicircular", "search.enumerate_self", None),
    ("search", "enumerate_right_orderings", "search.enumerate_self", None),
    ("search", "enumerate_left_orderings", "search.enumerate_self", None),
    ("search", "decide_right_circular", "search.decide_self", _count_calls("search.decide_calls")),
    ("search", "decide_left_circular", "search.decide_self", _count_calls("search.decide_calls")),
    ("search", "decide_bicircular", "search.decide_self", _count_calls("search.decide_calls")),
    ("search", "decide_right_orderable", "search.decide_self", _count_calls("search.decide_calls")),
    ("search", "decide_left_orderable", "search.decide_self", _count_calls("search.decide_calls")),
    ("search", "generate_all_quandles", "search.generate", None),
    ("search", "are_isomorphic", "search.iso", _count_calls("search.iso_calls", "search.iso_hits")),
    ("search", "canonical_form", "search.canonical", _count_calls("search.canonical_calls")),
    ("search", "closure", "groups.closure", _count_closure),
    ("search", "is_cyclic", "groups.cyclic", None),
    ("search", "is_semiregular", "groups.cyclic", None),
    ("cli", "FiniteQuandle", "quandles.validate", _count_calls("quandles.validate_calls")),
    ("cli", "_load_quandle", "cli.parse", None),
    ("cli", "parse_input", "cli.parse", None),
    ("cli", "render_report", "cli.render", _count_report),
    ("cli", "order_to_json", "cli.render", None),
    ("cli", "quandle_to_json", "cli.render", None),
    ("cli", "verdict_to_json", "cli.render", None),
)
# Dispatch tables in the CLI that hold direct references to wrapped functions.
TABLES = ("_DECIDERS", "_ENUMERATORS")


class Tracer:
    """Span recorder; `install` wraps the targets, `uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str | None, object]] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, span: str, on_result=None) -> Callable:
        nid = self._name_id(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.op.append(self.op_id)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every target of `package`'s modules; note targets not found."""
        wrapped: dict[int, Callable] = {}
        for module_name, attr, span, on_result in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(original, span, on_result)
            self._restore.append((module, attr, original))
            setattr(module, attr, wrapped[id(original)])
        # Parsing the command line happens on the parser the CLI builds.
        cli = package.cli
        build = self.wrap(cli.build_parser, "cli.parse")

        def build_parser():
            parser = build()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse")
            return parser

        self._restore.append((cli, "build_parser", cli.build_parser))
        cli.build_parser = build_parser
        for table_name in TABLES:
            table = getattr(cli, table_name, None)
            if table is None:
                self.missing.append(f"cli.{table_name}")
                continue
            self._restore.append((table, None, dict(table)))
            for key, fn in table.items():
                if id(fn) in wrapped:
                    table[key] = wrapped[id(fn)]
        # The operation span itself.
        self._op_main = self.wrap(cli.main, OP_SPAN)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def main_for(self, op_id: int) -> Callable:
        """The traced CLI entry point, labelling spans with `op_id`."""
        self.op_id = op_id
        return self._op_main

    def self_times(self) -> list[float]:
        """Per span, its duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def layer_ms(self, factors: list[float]) -> dict[str, float]:
        """Scaled time per span name, in ms, summed over all operations: self
        time, or the whole duration for INCLUSIVE layers (never nested in
        themselves)."""
        totals: Counter = Counter()
        for i, t in enumerate(self.self_times()):
            name = self.names[self.name[i]]
            if name in INCLUSIVE:
                t = self.end[i] - self.start[i]
            totals[name] += t * factors[self.op[i]] * 1e3
        return dict(totals)

    def write(self, path: Path) -> None:
        """One line per span: op, name, parent, start and end in microseconds."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tname\tparent\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )
