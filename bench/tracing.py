"""Span tracing of the library's layers, installed from outside the library.

`Tracer.install()` replaces the layers' public functions and methods with
wrappers.  While the tracer is active, a span wrapper records one span per
call: name, start, end (process CPU clock, ns) and the index of the
enclosing span.  A few calls are too frequent to record as spans and are
only counted (`COUNTED`).  Spans are kept in memory in flat arrays and
written out by `write()` at the end of the run.

A layer is the library module a function belongs to.  A layer's self time is
the time of its spans minus the part covered by their child spans, of any
layer.  Time spent in an unwrapped helper counts to the span that called it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

LAYERS = ("padic", "linalg", "lattice", "bch", "propgroup", "classifier", "catalog")

# (layer, qualified name inside the layer's module, span name)
SPANNED = [
    ("linalg", "PMatrix.__matmul__", "matmul"),
    ("linalg", "PMatrix.__add__", "add"),
    ("linalg", "PMatrix.__sub__", "sub"),
    ("linalg", "PMatrix.pow", "pow"),
    ("linalg", "PMatrix.inverse", "inverse"),
    ("linalg", "PMatrix.det", "det"),
    ("linalg", "PMatrix.apply_row", "apply_row"),
    ("linalg", "Span.__init__", "span"),
    ("linalg", "Span.solve", "solve"),
    ("linalg", "Span.contains", "contains"),
    ("linalg", "Span.sum", "sum"),
    ("linalg", "Span.scale", "scale"),
    ("linalg", "Span.image", "image"),
    ("linalg", "Span.intersect", "intersect"),
    ("linalg", "Span.saturate", "saturate"),
    ("linalg", "Span.structural_profile", "span_profile"),
    ("linalg", "Span.index_exp", "index_exp"),
    ("linalg", "structural_profile", "structural_profile"),
    ("linalg", "isolated_kernel", "isolated_kernel"),
    ("linalg", "left_kernel", "left_kernel"),
    ("linalg", "solve_over_rows", "solve_over_rows"),
    ("linalg", "mat_exp", "mat_exp"),
    ("linalg", "mat_log", "mat_log"),
    ("linalg", "mat_pow_padic", "mat_pow_padic"),
    ("linalg", "unipotent_order_exp", "order_exp"),
    ("lattice", "Lattice.bracket", "bracket"),
    ("lattice", "Lattice.bracket_span", "bracket_span"),
    ("lattice", "Lattice.lower_central", "lower_central"),
    ("lattice", "Lattice.lower_p_series", "lower_p_series"),
    ("lattice", "Lattice.derived_series", "derived_series"),
    ("lattice", "Lattice.is_soluble", "is_soluble"),
    ("lattice", "Lattice.nilpotency_class", "nilpotency_class"),
    ("lattice", "Lattice.iterated_bracket_span", "iterated_bracket_span"),
    ("lattice", "Lattice.verify_potent_filtration", "verify_potent_filtration"),
    ("lattice", "Lattice.saturable_sufficient", "saturable_sufficient"),
    ("lattice", "Lattice.centralizer", "centralizer"),
    ("bch", "bch_mul", "mul"),
    ("bch", "bch_neg", "neg"),
    ("bch", "bch_commutator", "commutator"),
    ("bch", "nilpotency_class_checked", "class_checked"),
    ("bch", "hausdorff_table", "hausdorff_table"),
    ("propgroup", "SemidirectGroup.twist", "twist"),
    ("propgroup", "SemidirectGroup.mul", "mul"),
    ("propgroup", "SemidirectGroup.inv", "inv"),
    ("propgroup", "SemidirectGroup.conj", "conj"),
    ("propgroup", "SemidirectGroup.comm", "comm"),
    ("propgroup", "SemidirectGroup.pow", "pow"),
    ("propgroup", "SubgroupData.fiber_intersection", "fiber_intersection"),
    ("propgroup", "SubgroupData.contains_element", "contains_element"),
    ("propgroup", "SubgroupData.contains", "contains"),
    ("propgroup", "generated_subgroup", "subgroup"),
    ("propgroup", "normal_closure", "normal_closure"),
    ("propgroup", "join", "join"),
    ("propgroup", "commutator_subgroup", "commutator_subgroup"),
    ("propgroup", "power_subgroup", "power_subgroup"),
    ("propgroup", "gamma_series", "gamma_series"),
    ("propgroup", "lower_p_series_group", "lower_p_series_group"),
    ("propgroup", "frattini_p", "frattini_p"),
    ("propgroup", "frattini_p_power", "frattini_p_power"),
    ("propgroup", "check_gamma_p_in_phi_p", "check_gamma_p_in_phi_p"),
    ("propgroup", "verify_group_potent_filtration", "verify_group_potent_filtration"),
    ("classifier", "classify", "classify"),
    ("classifier", "descriptors_equal", "descriptors_equal"),
    ("catalog", "iso_test_3dim", "iso"),
    ("catalog", "action_matrix_on_abelian_ideal", "action_matrix"),
]

# called millions of times per run: counted, not spanned
COUNTED = [
    ("padic", "PadicContext.val", "val"),
    ("linalg", "PMatrix.__init__", "pmatrix"),
]


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[str, list] = {}
        self._stack = [-1]  # open spans, shared by every wrapper so parents cross layers

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every listed function; the wrappers record nothing until activated."""
        for layer in LAYERS:
            importlib.import_module(f"padiclie.{layer}")
        for layer, qualname, short in SPANNED:
            self.names.append(f"{layer}.{short}")
            self._patch(layer, qualname, self._span_wrapper(len(self.names) - 1))
        for layer, qualname, short in COUNTED:
            cell = self.counts.setdefault(f"{layer}.{short}", [0])
            self._patch(layer, qualname, self._count_wrapper(cell))

    def _patch(self, layer, qualname, make):
        module = importlib.import_module(f"padiclie.{layer}")
        owner, attr = _resolve(module, qualname)
        original = owner.__dict__[attr]
        wrapper = make(original)
        targets = [owner]
        if owner is module:
            # names imported with `from .layer import f` are separate bindings
            targets += [
                m for name, m in sys.modules.items()
                if name.split(".")[0] == "padiclie" and m is not module
                and getattr(m, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, wrapper)

    def _span_wrapper(self, nid):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.process_time_ns
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                i = len(names)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()

            return wrapper

        return make

    def _count_wrapper(self, cell):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if tracer.active:
                    cell[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics listed in BENCHMARK.json, except `trace.slowdown`."""
        names = self.names
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls = dict.fromkeys(names, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        class_from_bch = 0
        twist_misses = 0
        for i in range(n):
            name = names[self.span_name[i]]
            calls[name] += 1
            self_ns[name.split(".")[0]] += self.span_end[i] - self.span_start[i] - child[i]
            parent = self.span_parent[i]
            if parent >= 0:
                parent_name = names[self.span_name[parent]]
                if name == "lattice.nilpotency_class" and parent_name == "bch.class_checked":
                    class_from_bch += 1
                elif name == "linalg.mat_pow_padic" and parent_name == "propgroup.twist":
                    twist_misses += 1
        twists = calls["propgroup.twist"]
        values = {
            "padic.val.calls": self.counts["padic.val"][0],
            "linalg.pmatrix.calls": self.counts["linalg.pmatrix"][0],
            "linalg.matmul.calls": calls["linalg.matmul"],
            "linalg.span.calls": calls["linalg.span"],
            "linalg.order_exp.calls": calls["linalg.order_exp"],
            "lattice.bracket.calls": calls["lattice.bracket"],
            "lattice.bracket_span.calls": calls["lattice.bracket_span"],
            "bch.mul.calls": calls["bch.mul"],
            "bch.class.calls": class_from_bch,
            "propgroup.twist.calls": twists,
            # no twists at all reads 0, not 1: nothing was served from the cache
            "propgroup.twist.hit_ratio": 1 - twist_misses / twists if twists else 0.0,
            "propgroup.pow.calls": calls["propgroup.pow"],
            "propgroup.subgroup.calls": calls["propgroup.subgroup"],
            "propgroup.fiber_intersection.calls": calls["propgroup.fiber_intersection"],
            "classifier.classify.calls": calls["classifier.classify"],
            "catalog.iso.calls": calls["catalog.iso"],
            "catalog.action_matrix.calls": calls["catalog.action_matrix"],
        }
        for layer in ("linalg", "lattice", "bch", "propgroup", "classifier", "catalog"):
            values[f"{layer}.self_ms"] = self_ns[layer] / 1e6
        return values

    def write(self, stem: str, header: dict):
        """`<stem>.json` holds the header and the span names; `<stem>.spans` the spans.

        The spans file is four little-endian arrays back to back: name index
        (uint16), parent span index (int32, -1 at top level), start and end
        (int64 ns of process CPU time), each `span_count` long.
        """
        body = dict(header)
        body["span_names"] = self.names
        body["span_count"] = len(self.span_name)
        body["span_layout"] = ["name:uint16", "parent:int32", "start_ns:int64", "end_ns:int64"]
        body["counts"] = {k: v[0] for k, v in self.counts.items()}
        with open(f"{stem}.json", "w") as fh:
            json.dump(body, fh, indent=1)
        columns = (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(f"{stem}.spans", "wb") as fh:
            for column in columns:
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                column.tofile(fh)
