"""Per-layer tracing by wrapping cubeporos' public functions from outside.

`install(tracer)` replaces each traced function or method with a wrapper
that records a span: its call count, its inclusive time (outermost call of
that name only, so recursion is not counted twice) and its layer's self
time, which is the span's duration minus the time of the traced spans it
directly encloses.  A module-level function is replaced under every name a
cubeporos module binds it to (`from .lattice import children` binds
`families.children`, `analysis.children`, ...), so every caller sees the
wrapper.  Spans are aggregated in memory as they end; nothing in `src/`
changes.  Functions not traced here (for example `closed_disjoint`) count
towards the self time of the traced span that calls them.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

SET_KINDS = ("ifs", "points")
SET_ORACLES = ("intersect_status", "dist_interval", "dist_below", "misses_interior")
LAYERS = ("sets", "lattice", "enclosure", "families", "analysis", "sparse",
          "inverse", "neighborhoods", "cli")
ENUMERATIONS = ("DE", "FE", "Dgamma")
CLI_IO = ("_load_json_file", "_dump_json", "_write_csv")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = Counter()      # outcome counts gathered by result hooks
        self._active = Counter()
        self._child = [0.0]          # time of traced children, per open span

    def reset(self):
        for table in (self.calls, self.incl, self.layer_self, self.counts):
            table.clear()

    def wrap(self, name, layer, fn, hook=None):
        calls, incl, layer_self = self.calls, self.incl, self.layer_self
        counts, active, child = self.counts, self._active, self._child

        def traced(*args, **kwargs):
            active[name] += 1
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child.pop()
                child[-1] += elapsed
                layer_self[layer] += elapsed - inner
                calls[name] += 1
                active[name] -= 1
                if not active[name]:
                    incl[name] += elapsed
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """The per-layer metrics of everything traced since the last reset."""
        c, s, n = self.calls, self.incl, self.counts
        m = {}
        for kind in SET_KINDS:
            for fn in SET_ORACLES:
                m[f"sets.{kind}.{fn}.calls"] = c[f"sets.{kind}.{fn}"]
                m[f"sets.{kind}.{fn}.s"] = s[f"sets.{kind}.{fn}"]
        m["sets.restricted.calls"] = sum(v for k, v in c.items()
                                         if k.startswith("sets.") and k.endswith(".restricted"))
        m["sets.decided_ratio"] = _ratio(n["decided"], n["three_valued"])
        for fn in ("linf_dist", "contains_point", "relate", "children"):
            m[f"lattice.{fn}.calls"] = c[f"lattice.{fn}"]
        m["enclosure.pow_enclosure.calls"] = c["enclosure.pow_enclosure"]
        m["enclosure.pow_enclosure.s"] = s["enclosure.pow_enclosure"]
        for fam in ENUMERATIONS:
            key = f"families.enumerate_{fam}"
            m[f"{key}.calls"] = c[key]
            m[f"{key}.s"] = s[key]
            m[f"{key}.cubes"] = n[f"{key}.cubes"]
        m["analysis.mu_enclosure.s"] = s["analysis.mu_enclosure"]
        m["analysis.mu.refined_cells"] = n["mu.refined"]
        m["analysis.mu.resolved_ratio"] = _ratio(n["mu.resolved"], n["mu.ended"])
        for fn in ("porosity_scan", "codim_estimate", "dynkin_sweep"):
            m[f"analysis.{fn}.s"] = s[f"analysis.{fn}"]
        m["analysis.largest_free_cube.calls"] = c["analysis.largest_free_cube"]
        m["analysis.largest_free_cube.s"] = s["analysis.largest_free_cube"]
        for fn in ("build_witness", "verify_witness", "carleson_constant"):
            m[f"sparse.{fn}.s"] = s[f"sparse.{fn}"]
        m["inverse.invert.s"] = s["inverse.invert"]
        for fn in ("gamma_carleson", "gamma_witness", "embedding_check"):
            m[f"neighborhoods.{fn}.s"] = s[f"neighborhoods.{fn}"]
        m["neighborhoods.embedding.cells"] = c["neighborhoods._cell_mass"]
        m["cli.io_s"] = sum(s[f"cli.{fn}"] for fn in CLI_IO)
        m["cli.report_bytes"] = n["report_bytes"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self[layer]
        return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("report_bytes"):
        return "bytes"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def _ratio(num, den) -> float:
    # 0 when the layer gave no such answer in this workload
    return num / den if den else 0.0


def _three_valued(undecided):
    def hook(counts, _args, result):
        counts["three_valued"] += 1
        if result is not undecided:
            counts["decided"] += 1
    return hook


def _family_size(key, size):
    def hook(counts, _args, result):
        counts[key + ".cubes"] += size(result)
    return hook


def _mu_notes(counts, _args, enc):
    notes = enc.notes
    finite = notes.point_bound_cells + notes.boundary_layer_cells
    counts["mu.refined"] += notes.refined_cells
    counts["mu.resolved"] += finite
    counts["mu.ended"] += finite + len(notes.unresolved_cells)


def _bytes_written(counts, args, _result):
    counts["report_bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer):
    """Wrap the traced functions of every cubeporos layer; returns nothing."""
    import cubeporos
    from cubeporos import (analysis, cli, enclosure, families, generators,
                           inverse, lattice, neighborhoods, sets, sparse)

    modules = (cubeporos, analysis, cli, enclosure, families, generators,
               inverse, lattice, neighborhoods, sets, sparse)

    def function(module, attr, layer, hook=None):
        orig = getattr(module, attr)
        wrapper = tracer.wrap(f"{layer}.{attr}", layer, orig, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    def method(cls, attr, name, layer, hook=None):
        setattr(cls, attr, tracer.wrap(name, layer, getattr(cls, attr), hook))

    status = sets.Status.UNDETERMINED
    for cls in (sets.PointsModel, sets.IFSModel, sets.UnionModel, sets.EmptyModel):
        prefix = f"sets.{cls.kind}"
        method(cls, "intersect_status", f"{prefix}.intersect_status", "sets",
               _three_valued(status))
        method(cls, "dist_below", f"{prefix}.dist_below", "sets", _three_valued(None))
        for attr in ("dist_interval", "misses_interior", "restricted"):
            method(cls, attr, f"{prefix}.{attr}", "sets")

    for attr in ("children", "relate", "contains", "linf_dist", "parent", "dilate"):
        function(lattice, attr, "lattice")
    method(lattice.Box, "contains_point", "lattice.contains_point", "lattice")

    for attr in ("pow_enclosure", "pow2_enclosure", "sum_intervals"):
        function(enclosure, attr, "enclosure")

    function(families, "enumerate_DE", "families",
             _family_size("families.enumerate_DE", lambda f: len(f.members)))
    function(families, "enumerate_Dgamma", "families",
             _family_size("families.enumerate_Dgamma", lambda f: len(f.members)))
    function(families, "enumerate_FE", "families",
             _family_size("families.enumerate_FE",
                          lambda fe: len(fe.free) + len(fe.residual)))

    function(analysis, "mu_enclosure", "analysis", _mu_notes)
    for attr in ("largest_free_cube", "porosity_scan", "dynkin_sum", "de_sum",
                 "dynkin_sweep", "mu_points_exact_1d", "weighted_carleson_sum",
                 "parent_multiplicity_margin", "codim_estimate"):
        function(analysis, attr, "analysis")

    for attr in ("carleson_constant", "build_witness", "verify_witness",
                 "audit_single_inheritance"):
        function(sparse, attr, "sparse")

    for attr in ("invert", "chain", "check_parent_closed"):
        function(inverse, attr, "inverse")

    # _cell_mass is private; its call count is the number of embedding cells
    # whose mass was evaluated, also when the embedding stops on an
    # unbounded cell
    for attr in ("gamma_carleson", "gamma_witness", "embedding_check", "_cell_mass"):
        function(neighborhoods, attr, "neighborhoods")

    function(cli, "main", "cli")
    function(cli, "_load_json_file", "cli")
    for attr in ("_dump_json", "_write_csv"):
        function(cli, attr, "cli", _bytes_written)
