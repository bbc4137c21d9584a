"""Spans and per-layer counters for the traced run.

A layer is one module of ``quivhom``.  :class:`Tracer` replaces every public
function of the layers with a wrapper, in every module namespace that bound
it (``from .exactlin import rank`` binds a separate name in each importer),
plus ``Mat.mul``, ``BQA.__init__`` and ``ColumnData.__init__`` on their
classes.  Each wrapped call records a span (name, start, end, parent span,
job id) in memory.  The tracer must be installed before set-up, because
``cats.mod_cat``/``rep_cat`` and ``endo.module_category`` capture function
objects when a category is built.

``cats`` is a dispatch table with no work of its own, and ``bounds`` and
``errors`` do no work, so none of their functions is wrapped: time spent in
them, and in methods that are not wrapped (``Mat.add``, ``ModMap.compose``,
...), stays with the layer whose span encloses it.

Counters are taken at the same boundaries.  A ``*_calls`` or ``*_s`` metric
counts only the outermost calls of its group, so ``rank`` calling ``rref``
is one elimination, not two.  Time spent computing counters is excluded from
every layer's self time and shows up only in the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from array import array

LAYERS = ("exactlin", "quiver", "algebra", "repcat", "scmodule", "endo", "trimat",
          "derived", "repdim")

# metric group -> the functions whose outermost calls it sums
GROUPS = {
    "exactlin.elim": ("exactlin.rref", "exactlin.rank", "exactlin.kernel_basis",
                      "exactlin.solve_matrix"),
    "exactlin.mul": ("exactlin.Mat.mul",),
    "algebra.radical_sc": ("algebra.radical_sc",),
    "algebra.cover": ("algebra.projective_cover",),
    "algebra.hom_basis": ("algebra.hom_basis",),
    "algebra.bqa_build": ("algebra.BQA.__init__",),
    "quiver.paths_between": ("quiver.paths_between",),
    "repcat.hom_basis": ("repcat.rep_hom_basis",),
    "repcat.adjoint": ("repcat.left_adjoint", "repcat.right_adjoint",
                       "repcat.left_adjoint_map"),
    "repcat.presentation": ("repcat.standard_presentation",),
    "scmodule.radical_of": ("scmodule.radical_of",),
    "scmodule.cover": ("scmodule.projective_cover_sc",),
    "scmodule.hom_basis": ("scmodule.hom_basis_sc",),
    "scmodule.coldata": ("scmodule.ColumnData.__init__",),
    "endo.end_algebra": ("endo.end_algebra",),
    "endo.hom_module": ("endo.hom_as_end_module", "endo.hom_bimodule"),
    "trimat.tensor": ("trimat.tensor_basis", "trimat.tensor_map"),
    "trimat.hom_basis": ("trimat.triple_hom_basis",),
    "trimat.cover": ("trimat.triple_projective_cover",),
    "derived.build": ("derived.rep_complex_witness", "derived.triple_complex_witness"),
    "derived.check": ("derived.witness_check",),
    "derived.chain_hom": ("derived.chain_hom_basis",),
    "derived.pushforward": ("derived.pushforward_witness",),
    "repdim.build_xbar": ("repdim.build_xbar",),
    "repdim.proof_steps": ("repdim.verify_proof_steps",),
    "repdim.gldim_end_xbar": ("repdim.gldim_end_xbar",),
}

# per-layer metrics: name -> (unit, better, source).  source is a
# (group, "calls" | "s") pair, a counter name, or ("self", layer).
METRICS = {
    "exactlin.elim_calls": ("count", "lower", ("exactlin.elim", "calls")),
    "exactlin.elim_cells": ("count", "lower", "exactlin.elim_cells"),
    "exactlin.elim_s": ("s", "lower", ("exactlin.elim", "s")),
    "exactlin.mul_calls": ("count", "lower", ("exactlin.mul", "calls")),
    "exactlin.mul_cells": ("count", "lower", "exactlin.mul_cells"),
    "exactlin.mul_s": ("s", "lower", ("exactlin.mul", "s")),
    "algebra.radical_sc_calls": ("count", "lower", ("algebra.radical_sc", "calls")),
    "algebra.radical_sc_distinct": ("count", "lower", "algebra.radical_sc_distinct"),
    "algebra.radical_sc_s": ("s", "lower", ("algebra.radical_sc", "s")),
    "algebra.cover_calls": ("count", "lower", ("algebra.cover", "calls")),
    "algebra.cover_s": ("s", "lower", ("algebra.cover", "s")),
    "algebra.hom_basis_calls": ("count", "lower", ("algebra.hom_basis", "calls")),
    "algebra.hom_basis_s": ("s", "lower", ("algebra.hom_basis", "s")),
    "algebra.bqa_build_s": ("s", "lower", ("algebra.bqa_build", "s")),
    "quiver.paths_between_calls": ("count", "lower", ("quiver.paths_between", "calls")),
    "quiver.paths_between_s": ("s", "lower", ("quiver.paths_between", "s")),
    "repcat.hom_basis_calls": ("count", "lower", ("repcat.hom_basis", "calls")),
    "repcat.hom_basis_distinct": ("count", "lower", "repcat.hom_basis_distinct"),
    "repcat.hom_basis_unknowns": ("count", "lower", "repcat.hom_basis_unknowns"),
    "repcat.hom_basis_s": ("s", "lower", ("repcat.hom_basis", "s")),
    "repcat.adjoint_calls": ("count", "lower", ("repcat.adjoint", "calls")),
    "repcat.adjoint_s": ("s", "lower", ("repcat.adjoint", "s")),
    "repcat.presentation_s": ("s", "lower", ("repcat.presentation", "s")),
    "scmodule.radical_of_calls": ("count", "lower", ("scmodule.radical_of", "calls")),
    "scmodule.cover_calls": ("count", "lower", ("scmodule.cover", "calls")),
    "scmodule.cover_s": ("s", "lower", ("scmodule.cover", "s")),
    "scmodule.hom_basis_calls": ("count", "lower", ("scmodule.hom_basis", "calls")),
    "scmodule.hom_basis_s": ("s", "lower", ("scmodule.hom_basis", "s")),
    "scmodule.coldata_builds": ("count", "lower", ("scmodule.coldata", "calls")),
    "scmodule.coldata_s": ("s", "lower", ("scmodule.coldata", "s")),
    "endo.end_algebra_calls": ("count", "lower", ("endo.end_algebra", "calls")),
    "endo.end_algebra_dim_sum": ("count", "lower", "endo.end_algebra_dim_sum"),
    "endo.end_algebra_s": ("s", "lower", ("endo.end_algebra", "s")),
    "endo.hom_module_s": ("s", "lower", ("endo.hom_module", "s")),
    "trimat.tensor_calls": ("count", "lower", ("trimat.tensor", "calls")),
    "trimat.tensor_s": ("s", "lower", ("trimat.tensor", "s")),
    "trimat.hom_basis_calls": ("count", "lower", ("trimat.hom_basis", "calls")),
    "trimat.hom_basis_s": ("s", "lower", ("trimat.hom_basis", "s")),
    "trimat.cover_calls": ("count", "lower", ("trimat.cover", "calls")),
    "trimat.cover_s": ("s", "lower", ("trimat.cover", "s")),
    "derived.build_s": ("s", "lower", ("derived.build", "s")),
    "derived.check_s": ("s", "lower", ("derived.check", "s")),
    "derived.chain_hom_calls": ("count", "lower", ("derived.chain_hom", "calls")),
    "derived.chain_hom_s": ("s", "lower", ("derived.chain_hom", "s")),
    "derived.pushforward_s": ("s", "lower", ("derived.pushforward", "s")),
    "derived.witness_nodes": ("count", "lower", "derived.witness_nodes"),
    "derived.shortcut_hits": ("count", "higher", "derived.shortcut_hits"),
    "derived.shortcut_attempts": ("count", "lower", "derived.shortcut_attempts"),
    "repdim.build_xbar_s": ("s", "lower", ("repdim.build_xbar", "s")),
    "repdim.proof_steps_s": ("s", "lower", ("repdim.proof_steps", "s")),
    "repdim.gldim_end_xbar_s": ("s", "lower", ("repdim.gldim_end_xbar", "s")),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "lower", ("self", _layer))
# job and set-up time outside every layer span: benchmark code and cats dispatch
METRICS["bench.self_s"] = ("s", "lower", "bench.self_s")
METRICS["trace.spans"] = ("count", "lower", "trace.spans")
METRICS["trace.overhead_pct"] = ("%", "lower", "trace.overhead_pct")

# work counts that must repeat exactly between two traced runs with one seed
WORK_COUNTS = tuple(name for name, (unit, _, _) in METRICS.items()
                    if unit == "count" and not name.startswith("trace."))


def _sc_key(sc):
    return sc.dim, sc.mult


def _rep_key(x):
    mods = tuple((v, tuple(m.dims.items()), tuple(m.mats.items())) for v, m in x.mods.items())
    maps = tuple((n, tuple(f.mats.items())) for n, f in x.maps.items())
    return x.quiver, x.algebra, mods, maps


def _count_nodes(w):
    kids = getattr(w, "child_mid", None)
    if kids is None:
        return 0
    return 1 + _count_nodes(w.child_mid) + _count_nodes(w.child_shift)


class Tracer:
    """Wraps the library's public functions and aggregates spans into metrics."""

    def __init__(self):
        self.names = []                 # span name table
        self.times = array("d")         # start, end per span
        self.meta = array("q")          # name id, parent span, job id per span
        self.stack = []                 # open frames: [child seconds, span index]
        self.job = -1                   # -1 while setting up
        self.active = False
        self.group_index = {g: i for i, g in enumerate(GROUPS)}
        self.depth = [0] * len(GROUPS)
        self.group_calls = [0] * len(GROUPS)
        self.group_s = [0.0] * len(GROUPS)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(
            ("exactlin.elim_cells", "exactlin.mul_cells", "algebra.radical_sc_distinct",
             "repcat.hom_basis_distinct", "repcat.hom_basis_unknowns",
             "endo.end_algebra_dim_sum", "derived.witness_nodes", "derived.shortcut_hits",
             "derived.shortcut_attempts"), 0)
        self._seen_sc = set()
        self._seen_rep_pairs = set()
        self._rep_keys = {}             # id(rep) -> (weakref, key)
        self.top_s = 0.0                # time inside top-level spans
        self.top_hook_s = 0.0           # counter time outside every span
        self.active_s = 0.0             # wall time with tracing active
        self._installed = []            # (owner, attribute, original)

    # -- installation ------------------------------------------------------------------
    def install(self):
        """Wrap every public function of every layer, wherever it is bound."""
        modules = [importlib.import_module(f"quivhom.{name}") for name in LAYERS + ("cats",)]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("quivhom.") or home not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{home}.{obj.__name__}", home, obj)
                self._installed.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        exactlin, algebra, scmodule = (sys.modules[f"quivhom.{n}"]
                                       for n in ("exactlin", "algebra", "scmodule"))
        for cls, meth in ((exactlin.Mat, "mul"), (algebra.BQA, "__init__"),
                          (scmodule.ColumnData, "__init__")):
            orig = cls.__dict__[meth]
            home = cls.__module__.rpartition(".")[2]
            self._installed.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{home}.{cls.__name__}.{meth}", home, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- the wrapper -----------------------------------------------------------------------
    def _hooks(self, name):
        """(before, after) counter hooks for a span name; each may be None."""
        return {
            "exactlin.rref": (self._elim_cells_m, None),
            "exactlin.rank": (self._elim_cells_m, None),
            "exactlin.kernel_basis": (self._elim_cells_m, None),
            "exactlin.solve_matrix": (self._elim_cells_solve, None),
            "exactlin.Mat.mul": (self._mul_cells, None),
            "algebra.radical_sc": (self._radical_distinct, None),
            "repcat.rep_hom_basis": (self._rep_hom, None),
            "endo.end_algebra": (None, self._end_dim),
            "derived.rep_complex_witness": (None, self._witness_built),
            "derived.triple_complex_witness": (None, self._witness_built),
        }.get(name, (None, None))

    def _wrap(self, name, layer, fn):
        tr = self
        nid = len(self.names)
        self.names.append(name)
        gids = tuple(self.group_index[g] for g, members in GROUPS.items() if name in members)
        before, after = self._hooks(name)
        signature = inspect.signature(fn) if after is not None else None
        clock = time.perf_counter
        depth, group_calls, group_s = self.depth, self.group_calls, self.group_s
        times, meta, stack = self.times, self.meta, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            outer = tuple(g for g in gids if depth[g] == 0)
            hook_s = 0.0
            if before is not None and outer:
                h0 = clock()
                before(args)
                hook_s = clock() - h0
            parent = stack[-1] if stack else None
            idx = len(times) // 2
            meta.extend((nid, parent[1] if parent is not None else -1, tr.job))
            times.extend((0.0, 0.0))
            frame = [0.0, idx]
            stack.append(frame)
            for g in gids:
                depth[g] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                for g in gids:
                    depth[g] -= 1
                times[2 * idx] = t0
                times[2 * idx + 1] = t1
                dur = t1 - t0
                tr.layer_self[layer] += dur - frame[0]
                for g in outer:
                    group_calls[g] += 1
                    group_s[g] += dur
                if parent is not None:
                    parent[0] += dur + hook_s
                else:
                    tr.top_s += dur
                    tr.top_hook_s += hook_s
            if after is not None:
                h0 = clock()
                after(signature.bind(*args, **kwargs).arguments, result)
                spent = clock() - h0
                if parent is not None:
                    parent[0] += spent
                else:
                    tr.top_hook_s += spent
            return result

        return traced

    # -- counter hooks --------------------------------------------------------------------
    def _elim_cells_m(self, args):
        m = args[0]
        self.counts["exactlin.elim_cells"] += m.rows * m.cols

    def _elim_cells_solve(self, args):
        a, b = args[0], args[1]
        self.counts["exactlin.elim_cells"] += a.rows * (a.cols + b.cols)

    def _mul_cells(self, args):
        a, b = args[0], args[1]
        self.counts["exactlin.mul_cells"] += a.rows * a.cols * b.cols

    def _radical_distinct(self, args):
        key = _sc_key(args[0])
        if key not in self._seen_sc:
            self._seen_sc.add(key)
            self.counts["algebra.radical_sc_distinct"] += 1

    def _cached_rep_key(self, x):
        got = self._rep_keys.get(id(x))
        if got is not None and got[0]() is x:
            return got[1]
        key = _rep_key(x)
        rid = id(x)
        self._rep_keys[rid] = (weakref.ref(x, lambda _r, rid=rid: self._rep_keys.pop(rid, None)),
                               key)
        return key

    def _rep_hom(self, args):
        x, y = args[0], args[1]
        pair = (self._cached_rep_key(x), self._cached_rep_key(y))
        if pair not in self._seen_rep_pairs:
            self._seen_rep_pairs.add(pair)
            self.counts["repcat.hom_basis_distinct"] += 1
        self.counts["repcat.hom_basis_unknowns"] += sum(
            y.mods[v].dims[u] * x.mods[v].dims[u]
            for v in x.quiver.vertices for u in x.algebra.quiver.vertices)

    def _end_dim(self, bound, result):
        self.counts["endo.end_algebra_dim_sum"] += result.dim

    def _witness_built(self, bound, result):
        w = result[0]
        self.counts["derived.witness_nodes"] += _count_nodes(w)
        if bound.get("shortcut", True):
            self.counts["derived.shortcut_attempts"] += 1
            if not hasattr(w, "child_mid"):
                self.counts["derived.shortcut_hits"] += 1

    # -- phases and results -------------------------------------------------------------
    def run(self, job, fn, *args):
        """Call fn(*args) traced, with spans tagged by the given job id."""
        self.job = job
        self.active = True
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.active_s += time.perf_counter() - t0
            self.active = False

    def span_count(self) -> int:
        return len(self.times) // 2

    def metrics(self, overhead_pct: float) -> dict:
        out = {}
        for name, (unit, _, source) in METRICS.items():
            if isinstance(source, tuple) and source[0] == "self":
                value = self.layer_self[source[1]]
            elif isinstance(source, tuple):
                g = self.group_index[source[0]]
                value = self.group_calls[g] if source[1] == "calls" else self.group_s[g]
            elif source == "bench.self_s":
                value = self.active_s - self.top_s - self.top_hook_s
            elif source == "trace.spans":
                value = self.span_count()
            elif source == "trace.overhead_pct":
                value = overhead_pct
            else:
                value = self.counts[source]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        """One line per span: index, name, start, end, parent index, job id."""
        t0 = self.times[0] if self.times else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(self.span_count()):
                nid, parent, job = self.meta[3 * i:3 * i + 3]
                fh.write(f"{i}\t{self.names[nid]}\t{self.times[2 * i] - t0:.9f}\t"
                         f"{self.times[2 * i + 1] - t0:.9f}\t{parent}\t{job}\n")
