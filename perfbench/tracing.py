"""Spans around the public calls of each layer, and the per-layer metrics.

Each wrapper replaces a name where its caller looks it up (a module global or
a class attribute) and is removed again when the run ends, so nothing under
src/ changes.  A span is [name, start, end, parent index, instance id, info];
spans stay in memory and are written out once, after the run.
"""

import json
import sys
from contextlib import contextmanager
from math import log2
from time import perf_counter

import workloads

# (where the caller looks the name up, attribute, span name)
PATCH_POINTS = (
    ("circulant.cli", "main", "cli.main"),
    ("circulant.cli", "cross_validate", "oracle.cross_validate"),
    ("circulant.cli", "analysis_report", "analyzer.analysis_report"),
    ("circulant.oracle", "realizable_groups", "analyzer.realizable_groups"),
    ("circulant.analyzer", "up_set", "abelian.up_set"),
    ("circulant.analyzer.ConnectionSet", "digraph", "digraph.digraph"),
    ("circulant._refine", "refine", "refine.refine"),
    ("circulant._refine", "iso_search", "refine.iso_search"),
    ("circulant.oracle", "automorphism_group", "permgroup.automorphism_group"),
    ("circulant.permgroup.PermGroup", "elements", "permgroup.elements"),
    ("circulant.oracle", "regular_abelian_types", "oracle.regular_abelian_types"),
    ("circulant.oracle", "_search_type", "oracle.search_type"),
)
# The per-type search is private to the oracle; a program without it is traced
# without these spans, and oracle.types_tried reads 0.
OPTIONAL_SPANS = ("oracle.search_type",)


def _info(name, args, result):
    """What a span keeps of its call's arguments and result."""
    if name == "digraph.digraph":
        return len(result.arcs)
    if name == "refine.iso_search":
        return result is not None
    if name == "permgroup.automorphism_group":
        return [len(result.generators), result.cached_order]
    if name == "permgroup.elements":
        return len(result)
    if name in ("analyzer.realizable_groups", "analyzer.analysis_report"):
        return args[0].n
    if name == "oracle.regular_abelian_types":
        return len(result)
    return None


def _resolve(where):
    """The module, or the class inside a module, named by a dotted path."""
    if where in sys.modules:
        return sys.modules[where]
    module, _, cls = where.rpartition(".")
    return getattr(sys.modules[module], cls)


class Tracer:
    def __init__(self):
        self.spans = []
        self.instance = 0
        self._stack = []
        self.missing = []  # OPTIONAL_SPANS the program has no function for

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, perf_counter(), None, parent, self.instance, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = _info(name, args, result)
                return result
            except Exception as exc:
                span[5] = f"raised {type(exc).__name__}"
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCH_POINTS name, restoring the originals on exit."""
        saved = []
        try:
            for where, attr, name in PATCH_POINTS:
                owner = _resolve(where)
                if name in OPTIONAL_SPANS and attr not in owner.__dict__:
                    self.missing.append(name)
                    continue
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, instance, info in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "instance": instance, "info": info}
                handle.write(json.dumps(record) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer busy and self times (s) and work counts over all spans."""
    def named(*names):
        return [sp for sp in spans if sp[0] in names]

    def busy(*names):
        return sum(sp[2] - sp[1] for sp in named(*names))

    def under(parents, *names):
        """Time of `names` spans whose parent span is one of `parents`."""
        return sum(sp[2] - sp[1] for sp in named(*names) if sp[3] is not None and spans[sp[3]][0] in parents)

    def infos(name, kind):
        return [sp[5] for sp in named(name) if isinstance(sp[5], kind)]

    analyzer = ("analyzer.realizable_groups", "analyzer.analysis_report")
    iso_hits = infos("refine.iso_search", bool)
    aut = infos("permgroup.automorphism_group", list)
    closure = named("permgroup.elements")

    top_level = [sp for sp in spans if sp[3] is None]
    return {
        "analyzer.busy_s": busy(*analyzer),
        "analyzer.levels_checked": sum(workloads.levels_checked(n) for name in analyzer for n in infos(name, int)),
        "abelian.busy_s": busy("abelian.up_set"),
        "digraph.busy_s": busy("digraph.digraph"),
        "digraph.arcs": sum(infos("digraph.digraph", int)),
        "refine.busy_s": busy("refine.refine", "refine.iso_search"),
        "refine.refine_calls": len(named("refine.refine")),
        "refine.iso_calls": len(iso_hits),
        "refine.iso_hit_ratio": sum(iso_hits) / len(iso_hits) if iso_hits else 0.0,
        "permgroup.aut_busy_s": busy("permgroup.automorphism_group"),
        "permgroup.aut_self_s": busy("permgroup.automorphism_group")
        - under(("permgroup.automorphism_group",), "refine.refine", "refine.iso_search"),
        "permgroup.aut_generators": sum(gens for gens, _ in aut),
        "permgroup.aut_order_log2": sum(log2(order) for _, order in aut),
        "permgroup.closure_busy_s": busy("permgroup.elements"),
        "permgroup.closure_elements": sum(sp[5] for sp in closure if isinstance(sp[5], int)),
        "permgroup.closure_capped": sum(sp[5] == "raised CapacityError" for sp in closure),
        "oracle.search_self_s": busy("oracle.regular_abelian_types")
        - under(("oracle.regular_abelian_types",), "permgroup.elements"),
        "oracle.types_tried": len(named("oracle.search_type")),
        "oracle.types_found": sum(infos("oracle.regular_abelian_types", int)),
        "cli.self_s": sum(sp[2] - sp[1] for sp in top_level)
        - sum(sp[2] - sp[1] for sp in spans if sp[3] is not None and spans[sp[3]][3] is None),
    }
