"""Span tracer for the equik benchmark, built only from wrappers.

The tracer replaces each listed public function, method and constructor
with a wrapper that records one span per call: its parent span, the task
it belongs to, start and end times, whether it raised, and a small
counter value computed from the arguments and the result.  Nothing under
``src/`` knows about it.  ``from .intmat import hnf`` gives ``equik.cli``
its own binding of ``hnf``, so every ``equik.*`` namespace that binds a
listed function gets the wrapper.

Spans live in memory while the benchmark runs and are written out once
at the end.  Every call runs on one thread, so a span's self time is its
duration minus the time its direct children cover, and no layer waits.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict


def _max_bits(*matrices) -> int:
    return max((abs(e).bit_length() for m in matrices for e in m.entries), default=0)


def _cells(m) -> int:
    return m.rows * m.cols


# Counter values are computed from (args, result) of a call that returned.
def _hnf_info(args, result):
    return _cells(args[0])


def _snf_info(args, result):
    return (_cells(args[0]), _max_bits(args[0], result.U, result.D, result.V))


def _boundary_info(args, result):
    return sum(_cells(m) for m in result.boundaries)


def _ideal_power_info(args, result):
    return result.rank


def _validate_info(args, result):
    return 0 if result else 1


_BUILDERS = (
    "z2_af_bounds",
    "circle_ah_dimension",
    "product_z2_bounds",
    "circle_product_dimension",
    "z6_collapse_report",
    "commutative_dimension",
    "finite_af_bounds",
    "rule_report",
)

# (layer, span name, owner, attribute, counter).  An owner "module:Class"
# names a class whose attribute is patched once; a bare module name
# means a function patched in every equik namespace that binds it.
TARGETS = (
    ("intmat", "IntMatrix.new", "equik.intmat:IntMatrix", "__init__", None),
    ("intmat", "hnf", "equik.intmat", "hnf", _hnf_info),
    ("intmat", "snf", "equik.intmat", "snf", _snf_info),
    ("intmat", "hermite_rows", "equik.intmat", "hermite_rows", None),
    ("intmat", "hermite_solve", "equik.intmat", "hermite_solve", None),
    ("intmat", "kernel_basis", "equik.intmat", "kernel_basis", None),
    ("abgroups", "normalize", "equik.abgroups", "normalize", None),
    ("fusion", "ring_from_tag", "equik.fusion", "ring_from_tag", None),
    ("fusion", "FusionRing.new", "equik.fusion:FusionRing", "__init__", None),
    ("fusion", "ideal_power", "equik.fusion", "ideal_power", _ideal_power_info),
    ("fusion", "IdealLattice.new", "equik.fusion:IdealLattice", "__init__", None),
    ("fusion", "lattice_quotient", "equik.fusion", "lattice_quotient", None),
    ("fusion", "mul_vec", "equik.fusion:FusionRing", "mul_vec", None),
    ("fusion", "mul_vec", "equik.fusion:CircleRingTruncation", "mul_vec", None),
    ("fusion", "mul_vec", "equik.fusion:MixedProductRing", "mul_vec", None),
    ("joins", "boundary_matrices", "equik.joins", "boundary_matrices", _boundary_info),
    ("joins", "reduced_homology", "equik.joins", "reduced_homology", None),
    ("joins", "mayer_vietoris_delta", "equik.joins", "mayer_vietoris_delta", None),
    ("joins", "oracle_consistency", "equik.joins", "oracle_consistency", None),
    ("kmodules", "RingModule.new", "equik.kmodules:RingModule", "__init__", None),
    ("kmodules", "ideal_image", "equik.kmodules", "ideal_image", None),
    ("kmodules", "kunneth_pieces", "equik.kmodules", "kunneth_pieces", None),
    (
        "kmodules",
        "element_stable_nonvanishing",
        "equik.kmodules",
        "element_stable_nonvanishing",
        None,
    ),
    (
        "kmodules",
        "max_nonvanishing_power",
        "equik.kmodules",
        "max_nonvanishing_power",
        None,
    ),
    *(("reports", "build", "equik.reports", name, None) for name in _BUILDERS),
    ("reports", "validate", "equik.reports", "validate", _validate_info),
    ("reports", "codec", "equik.reports", "report_to_json_dict", None),
    ("reports", "codec", "equik.reports", "report_from_json_dict", None),
    ("cli", "main", "equik.cli", "main", None),
    ("cli", "build_parser", "equik.cli", "build_parser", None),
)

LAYERS = ("intmat", "abgroups", "fusion", "joins", "kmodules", "reports", "cli")

# Span names per layer, in report order, and the counters each layer adds.
SPAN_NAMES = {
    layer: tuple(dict.fromkeys(t[1] for t in TARGETS if t[0] == layer))
    for layer in LAYERS
}
COUNTERS = {
    "intmat": (
        ("hnf.max_cells", "count"),
        ("snf.max_cells", "count"),
        ("snf.max_entry_bits", "bits"),
    ),
    "fusion": (("ideal_power.products", "count"), ("ideal_power.kept_ratio", "ratio")),
    "joins": (("boundary_matrices.dense_cells", "count"),),
    "reports": (("validate.rejects", "count"),),
}


def metric_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for layer in LAYERS:
        for name in SPAN_NAMES[layer]:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_ms"] = "ms"
        for name, unit in COUNTERS.get(layer, ()):
            units[f"{layer}.{name}"] = unit
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.errors"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def equik_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "equik" or name.startswith("equik."))
    ]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` toggle it.

    A span is the tuple (id, parent id, name index, task, enter ns,
    start ns, end ns, exit ns, raised, counter value).  The call runs
    from start to end; enter and exit bracket the wrapper's own
    bookkeeping, which is charged to neither the span nor its parent.
    """

    def __init__(self):
        self.names = []  # (layer, span name) per name index
        self.spans = []
        self.task = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name_idx, info_fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                info = None if raised or info_fn is None else info_fn(args, result)
                spans[sid] = (
                    sid, parent, name_idx, tracer.task, enter, t0, t1, clock(), raised, info
                )

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = equik_modules()
        for layer, span, owner, attr, info_fn in TARGETS:
            if (layer, span) not in self.names:
                self.names.append((layer, span))
            name_idx = self.names.index((layer, span))
            mod_name, _, cls_name = owner.partition(":")
            module = sys.modules[mod_name]
            if cls_name:
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(orig, name_idx, info_fn))
                self._patches.append((cls, attr, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, name_idx, info_fn)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, binding, wrapped)
                        self._patches.append((mod, binding, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def unwrapped_bindings(self) -> list:
        """Names in equik namespaces that still bind a listed original.

        Empty while the tracer is installed; used by the self-check.
        """
        originals = {id(orig) for _, _, orig in self._patches}
        missing = []
        for mod in equik_modules():
            for binding, value in vars(mod).items():
                if id(value) in originals:
                    missing.append(f"{mod.__name__}.{binding}")
        for layer, span, owner, attr, _ in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            if cls_name:
                value = getattr(sys.modules[mod_name], cls_name).__dict__[attr]
                if not getattr(value, "__wrapped_by_tracer__", False):
                    missing.append(f"{owner}.{attr}")
        return missing

    # -- aggregation ---------------------------------------------------------

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-layer metrics over spans[lo:hi] (one pass over the tasks)."""
        spans = self.spans[lo:hi]
        child_cover = defaultdict(int)
        for s in spans:
            if s[1] >= 0:
                child_cover[s[1]] += s[7] - s[4]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        layer_self = defaultdict(int)
        errors = defaultdict(int)
        products = defaultdict(int)  # ideal_power span id -> direct mul_vec calls
        ideal_power_spans = []
        hnf_cells = snf_cells = snf_bits = dense = rejects = 0
        for sid, parent, name_idx, _task, _enter, t0, t1, _exit, raised, info in spans:
            layer, name = self.names[name_idx]
            own = (t1 - t0) - child_cover[sid]
            calls[layer, name] += 1
            self_ns[layer, name] += own
            layer_self[layer] += own
            errors[layer] += raised
            if info is None:
                if name == "mul_vec" and parent >= 0:
                    products[parent] += 1
                continue
            if name == "hnf":
                hnf_cells = max(hnf_cells, info)
            elif name == "snf":
                snf_cells = max(snf_cells, info[0])
                snf_bits = max(snf_bits, info[1])
            elif name == "boundary_matrices":
                dense += info
            elif name == "ideal_power":
                ideal_power_spans.append((sid, info))
            elif name == "validate":
                rejects += info
        formed = sum(products[sid] for sid, _ in ideal_power_spans)
        kept = sum(rank for sid, rank in ideal_power_spans if products[sid])
        out = {}
        for layer in LAYERS:
            for name in SPAN_NAMES[layer]:
                out[f"{layer}.{name}.calls"] = calls[layer, name]
                out[f"{layer}.{name}.self_ms"] = self_ns[layer, name] / 1e6
            out[f"{layer}.self_ms"] = layer_self[layer] / 1e6
            out[f"{layer}.errors"] = errors[layer]
        out["intmat.hnf.max_cells"] = hnf_cells
        out["intmat.snf.max_cells"] = snf_cells
        out["intmat.snf.max_entry_bits"] = snf_bits
        out["fusion.ideal_power.products"] = formed
        out["fusion.ideal_power.kept_ratio"] = kept / formed if formed else 0.0
        out["joins.boundary_matrices.dense_cells"] = dense
        out["reports.validate.rejects"] = rejects
        return out

    def self_time_violations(self) -> int:
        """Spans whose self time is negative or exceeds their duration."""
        cover = defaultdict(int)
        for s in self.spans:
            if s[1] >= 0:
                cover[s[1]] += s[7] - s[4]
        return sum(
            1 for s in self.spans if not 0 <= (s[6] - s[5]) - cover[s[0]] <= s[6] - s[5]
        )

    def write(self, path):
        """Write every span recorded so far as gzipped JSON."""
        doc = {
            "fields": [
                "id", "parent", "name", "task", "enter_ns", "start_ns", "end_ns",
                "exit_ns", "raised", "info",
            ],
            "names": [f"{layer}.{name}" for layer, name in self.names],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
