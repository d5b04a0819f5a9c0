"""Spans around the public entry points of ``avgcut``, installed from outside.

The tracer replaces module attributes (and three ``ContractionState``
methods) with wrappers for the duration of one traced call, inside the
benchmark's worker process only; no source file of the program changes.
Because the package's modules import each other's functions by name, every
module attribute bound to a wrapped function is replaced, not only the one
in the defining module.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import tracemalloc
from functools import reduce

# (module, attribute, span name, metric name). A ``.self_s`` metric excludes
# time spent in nested spans; the other span metrics have no nested spans on
# any workload, except brute_force_optimum, whose nested count_cuts call is
# reported under oracle.count_cuts_s.
SPANS = (
    ("avgcut.cli", "run_cli", "cli", "cli.self_s"),
    ("avgcut.io", "parse_edgelist", "io.parse_edgelist", "io.parse_edgelist.self_s"),
    ("avgcut.io", "parse_newick", "io.parse_newick", "io.parse_newick.self_s"),
    ("avgcut.tree", "from_edges", "tree.from_edges", "tree.from_edges_s"),
    ("avgcut.contraction", "ContractionState.__init__", "contraction.init", "contraction.init_s"),
    ("avgcut.contraction", "ContractionState.run", "contraction.run", "contraction.run_s"),
    ("avgcut.contraction", "ContractionState.result", "contraction.result", "contraction.result_s"),
    ("avgcut.dendro", "parse_linkage_csv", "dendro.parse_linkage_csv", "dendro.parse_linkage_csv_s"),
    ("avgcut.dendro", "linkage_to_tree", "dendro.linkage_to_tree", "dendro.linkage_to_tree.self_s"),
    (
        "avgcut.dendro",
        "communities_from_cut",
        "dendro.communities_from_cut",
        "dendro.communities_from_cut.self_s",
    ),
    ("avgcut.oracle", "is_valid_cut", "oracle.is_valid_cut", "oracle.is_valid_cut_s"),
    ("avgcut.oracle", "count_cuts", "oracle.count_cuts", "oracle.count_cuts_s"),
    (
        "avgcut.oracle",
        "brute_force_optimum",
        "oracle.brute_force_optimum",
        "oracle.brute_force_optimum_s",
    ),
)
# Counted only: a span per call would cost more than the call itself.
COUNTED = (("avgcut.rational", "parse_weight", "rational.parse_weight.calls"),)
# Spans whose peak allocation the tracemalloc pass reports.
PEAKS = {"tree.from_edges": "tree.from_edges.peak_mb", "contraction.init": "contraction.init.peak_mb"}

SPAN_METRICS = {span: metric for _m, _a, span, metric in SPANS}


class Tracer:
    """Records nested spans and call counts for one solve at a time."""

    def __init__(self) -> None:
        # The unwrapped function, for counting cuts after a solve.
        self._count_cuts = sys.modules["avgcut.oracle"].count_cuts
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.notes: dict[str, object] = {}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.memory = False
        self._mem: list[list[int]] = []  # per open span: [start bytes, peak bytes]
        self.peaks: dict[str, int] = {}

    # --- installation ------------------------------------------------------ #

    def install(self) -> None:
        for module_name, attr, span, _metric in SPANS:
            self._replace(module_name, attr, lambda f, span=span: self._spanned(f, span))
        for module_name, attr, metric in COUNTED:
            self._replace(module_name, attr, lambda f, metric=metric: self._counted(f, metric))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[module_name]
        if "." in attr:  # a method
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            self._saved.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "avgcut" or name.startswith("avgcut."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _spanned(self, f, name: str):
        @functools.wraps(f)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = f(*args, **kwargs)
            finally:
                self._exit(index)
            self._note(name, args, result)
            return result

        return traced

    def _counted(self, f, metric: str):
        counts = self.counts

        @functools.wraps(f)
        def counted(*args, **kwargs):
            counts[metric] = counts.get(metric, 0) + 1
            return f(*args, **kwargs)

        return counted

    # --- spans ------------------------------------------------------------- #

    def _enter(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()
        if self.memory:
            start, peak = self._mem.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            name = self.spans[index][0]
            self.peaks[name] = max(self.peaks.get(name, 0), peak - start)
            if self._mem:  # the enclosing span saw this peak too
                self._mem[-1][1] = max(self._mem[-1][1], peak)

    def _note(self, name: str, args, result) -> None:
        # Keep references only; the counts derived from them are computed
        # after the solve, outside the timed region.
        if name == "contraction.init":
            self.notes["tree"] = args[1]
        elif name == "contraction.result":
            self.notes["contractions"] = len(result.contractions)
            self.notes["cut_size"] = result.size
        elif name == "oracle.brute_force_optimum":
            self.notes["oracle_tree"] = args[0]

    def take(self) -> tuple[list[list], dict[str, float]]:
        """The finished solve's spans and its per-layer values; then reset."""
        spans, self.spans = self.spans, []
        values: dict[str, float] = {metric: 0.0 for metric in SPAN_METRICS.values()}
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent), inner in zip(spans, covered):
            values[SPAN_METRICS[name]] += end - start - inner
        for _m, _a, metric in COUNTED:
            values[metric] = self.counts.pop(metric, 0)
        notes, self.notes = self.notes, {}
        tree = notes.get("tree")
        values["contraction.contractions"] = notes.get("contractions", 0)
        values["contraction.cut_size"] = notes.get("cut_size", 0)
        values["contraction.scale_bits"] = (
            reduce(math.lcm, (w.denominator for w in tree.weights), 1).bit_length() if tree else 0
        )
        oracle_tree = notes.get("oracle_tree")
        values["oracle.cuts_enumerated"] = self._count_cuts(oracle_tree) if oracle_tree else 0
        return spans, values
