"""Span recorder for the traced benchmark run.

The program is traced from outside: after each fresh import, ``Tracer.install``
replaces the public functions and methods listed in ``FUNCTIONS`` and
``METHODS`` with wrappers that record a span (name, start, end, parent).
A function is replaced in every ``scgroups`` module that bound the same
object, because ``scissors``, ``witt`` and ``orbitcomplex`` import
``hnf_rows`` and friends by name.  Spans stay in memory; ``write`` dumps
them when the run ends.

A layer's self time is its span's duration minus its child spans and minus
the bookkeeping the wrapper did inside the span (counting input rows, say).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def _bits(x) -> int:
    return abs(int(x)).bit_length()


def _hnf_rows_in(args, kwargs):
    mat = args[0]
    if not isinstance(mat, np.ndarray):
        mat = list(mat)  # may be a generator: materialize once, pass the list on
        args = (mat,) + tuple(args[1:])
        nnz = 0
        for r in mat:
            if isinstance(r, dict):
                nnz += sum(1 for v in r.values() if v)
            else:
                nnz += int(np.count_nonzero(np.asarray(r, dtype=object)))
        nrows = len(mat)
    else:
        nrows, nnz = mat.shape[0], int(np.count_nonzero(mat))
    return args, {"linalg.hnf_rows.in_rows": nrows, "linalg.hnf_rows.in_nnz": nnz}


def _hnf_rows_out(result):
    bits = max((_bits(x) for x in result.flat), default=0)
    return {"linalg.hnf_rows.max_bits": bits}


def _snf_in(args, kwargs):
    mat = args[0]
    if not isinstance(mat, np.ndarray):
        mat = np.asarray(mat, dtype=object)
    rows, cols = mat.shape
    return args, {"linalg.snf.cells": rows * cols}


def _flat_rows_out(result):
    return {"groupring.flat_rows.rows": len(result)}


# (module, attribute, span name, input statistics, output statistics)
FUNCTIONS = [
    ("rings", "parse_ring", "rings.parse_ring", None, None),
    ("rings", "square_classes", "rings.square_classes", None, None),
    ("rings", "unit_group_basis", "rings.unit_group_basis", None, None),
    ("linalg", "hnf_rows", "linalg.hnf_rows", _hnf_rows_in, _hnf_rows_out),
    ("linalg", "hnf_with_transform", "linalg.hnf_with_transform", None, None),
    ("linalg", "solve_in_rows", "linalg.solve_in_rows", None, None),
    ("linalg", "snf", "linalg.snf", _snf_in, None),
    ("orbitcomplex", "build_row_complex", "orbitcomplex.build_row_complex", None, None),
    ("globalinv", "pbar_cross_check", "globalinv.pbar_cross_check", None, None),
    ("tree", "ball", "tree.ball", None, None),
    ("tree", "ball_is_tree", "tree.ball_is_tree", None, None),
    ("tree", "neighbors", "tree.neighbors", None, None),
    ("tree", "canonical_vertex", "tree.canonical_vertex", None, None),
    ("tree", "amalgam_decompose", "tree.amalgam_decompose", None, None),
    ("tree", "distance", "tree.distance", None, None),
]

# Methods of ScissorsContext that build relation rows or relation matrices;
# their self time is reported together as scissors.relations.
RELATION_METHODS = [
    "pre_bloch",
    "refined",
    "refined_tilde",
    "s2_of_units",
    "s2_tilde",
    "k_rows",
    "k1_rows",
    "l_rows",
    "p_plus_ideal_rows",
    "lambda1_matrix",
    "lambda2_matrix",
]

# (module, class, method, span name, input statistics, output statistics)
METHODS = [
    ("scissors", "ScissorsContext", m, "scissors.relations", None, None)
    for m in RELATION_METHODS
] + [
    ("scissors", "ScissorsContext", "rp_vector", "scissors.rp_vector", None, None),
    ("groupring", "RModPres", "flat_rows", "groupring.flat_rows", None, _flat_rows_out),
    ("groupring", "RModPres", "act_matrix", "groupring.act_matrix", None, None),
    ("linalg", "AbMap", "kernel_subgroup", "linalg.kernel_subgroup", None, None),
    ("linalg", "FpAb", "contains", "linalg.contains", None, None),
    ("linalg", "FpAb", "element_order", "linalg.element_order", None, None),
    ("valuation", "SpecializationContext", "s_v", "valuation.s_v", None, None),
    ("witt", "WittContext", "i_squared", "witt.i_squared", None, None),
    ("orbitcomplex", "RowComplex", "homology_at", "orbitcomplex.homology_at", None, None),
]

# generator methods whose yielded items are counted
GENERATORS = [
    ("scissors", "ScissorsContext", "five_term_pairs", "scissors.five_term_pairs"),
]

# The per-layer metrics, in BENCHMARK.json order: (name, unit, how).
# how is ("self", span) for self seconds, ("calls", span) for the number of
# spans, ("sum", counter) or ("max", counter) for a counter.
LAYER_METRICS = [
    ("rings.parse_ring_s", "s", ("self", "rings.parse_ring")),
    ("rings.square_classes_s", "s", ("self", "rings.square_classes")),
    ("rings.unit_group_basis_s", "s", ("self", "rings.unit_group_basis")),
    ("scissors.relations_s", "s", ("self", "scissors.relations")),
    ("scissors.five_term_pairs", "count", ("sum", "scissors.five_term_pairs")),
    ("scissors.rp_vector_s", "s", ("self", "scissors.rp_vector")),
    ("scissors.rp_vector.calls", "count", ("calls", "scissors.rp_vector")),
    ("groupring.flat_rows_s", "s", ("self", "groupring.flat_rows")),
    ("groupring.flat_rows.rows", "count", ("sum", "groupring.flat_rows.rows")),
    ("groupring.act_matrix_s", "s", ("self", "groupring.act_matrix")),
    ("groupring.act_matrix.calls", "count", ("calls", "groupring.act_matrix")),
    ("linalg.hnf_rows_s", "s", ("self", "linalg.hnf_rows")),
    ("linalg.hnf_rows.calls", "count", ("calls", "linalg.hnf_rows")),
    ("linalg.hnf_rows.in_rows", "count", ("sum", "linalg.hnf_rows.in_rows")),
    ("linalg.hnf_rows.in_nnz", "count", ("sum", "linalg.hnf_rows.in_nnz")),
    ("linalg.hnf_rows.max_bits", "bits", ("max", "linalg.hnf_rows.max_bits")),
    ("linalg.hnf_with_transform_s", "s", ("self", "linalg.hnf_with_transform")),
    ("linalg.kernel_subgroup_s", "s", ("self", "linalg.kernel_subgroup")),
    ("linalg.solve_in_rows_s", "s", ("self", "linalg.solve_in_rows")),
    ("linalg.solve_in_rows.calls", "count", ("calls", "linalg.solve_in_rows")),
    ("linalg.snf_s", "s", ("self", "linalg.snf")),
    ("linalg.snf.calls", "count", ("calls", "linalg.snf")),
    ("linalg.snf.cells", "count", ("sum", "linalg.snf.cells")),
    ("linalg.contains_s", "s", ("self", "linalg.contains")),
    ("linalg.contains.calls", "count", ("calls", "linalg.contains")),
    ("linalg.element_order_s", "s", ("self", "linalg.element_order")),
    ("linalg.element_order.calls", "count", ("calls", "linalg.element_order")),
    ("valuation.s_v_s", "s", ("self", "valuation.s_v")),
    ("valuation.s_v.calls", "count", ("calls", "valuation.s_v")),
    ("witt.i_squared_s", "s", ("self", "witt.i_squared")),
    ("orbitcomplex.build_row_complex_s", "s", ("self", "orbitcomplex.build_row_complex")),
    ("orbitcomplex.homology_at_s", "s", ("self", "orbitcomplex.homology_at")),
    ("globalinv.pbar_cross_check_s", "s", ("self", "globalinv.pbar_cross_check")),
    ("tree.ball_s", "s", ("self", "tree.ball")),
    ("tree.ball_is_tree_s", "s", ("self", "tree.ball_is_tree")),
    ("tree.neighbors_s", "s", ("self", "tree.neighbors")),
    ("tree.neighbors.calls", "count", ("calls", "tree.neighbors")),
    ("tree.canonical_vertex.calls", "count", ("calls", "tree.canonical_vertex")),
    ("tree.amalgam_decompose_s", "s", ("self", "tree.amalgam_decompose")),
    ("tree.distance.calls", "count", ("calls", "tree.distance")),
]


class Tracer:
    """In-memory span recorder.  A span is the list
    [name, start, end, parent index, bookkeeping seconds, counters]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.phases: list[tuple[str, int, int]] = []

    # -- recording -----------------------------------------------------------
    def _open(self, name: str, start: float) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, start, start, parent, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self):
        self._stack.pop()

    def _wrap(self, fn, name, pre, post):
        tracer = self

        if pre is None and post is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = tracer._open(name, _clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = _clock()
                    tracer._close()

            return traced

        @functools.wraps(fn)
        def traced_with_counters(*args, **kwargs):
            t0 = _clock()
            rec = tracer._open(name, t0)
            counters = {}
            t1 = t0
            t2 = None
            try:
                if pre is not None:
                    args, counters = pre(args, kwargs)
                t1 = _clock()
                result = fn(*args, **kwargs)
                t2 = _clock()
                if post is not None:
                    counters.update(post(result))
                return result
            finally:
                t3 = _clock()
                # the statistics work is bookkeeping, not the layer's time
                rec[2] = t3
                rec[4] = (t1 - t0) + (t3 - (t3 if t2 is None else t2))
                rec[5] = counters
                tracer._close()

        return traced_with_counters

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                t = _clock()
                rec = tracer._open(name, t)
                rec[5] = {name: n}
                tracer._close()

        return counted

    def install(self, package: str = "scgroups"):
        """Wrap the traced functions and methods of a freshly imported
        package, rebinding every module-level alias of each function."""
        mods = {
            k: v
            for k, v in sys.modules.items()
            if k == package or k.startswith(package + ".")
        }
        for modname, attr, name, pre, post in FUNCTIONS:
            orig = getattr(mods[f"{package}.{modname}"], attr)
            wrapped = self._wrap(orig, name, pre, post)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        for modname, cls, meth, name, pre, post in METHODS:
            klass = getattr(mods[f"{package}.{modname}"], cls)
            setattr(klass, meth, self._wrap(getattr(klass, meth), name, pre, post))
        for modname, cls, meth, name in GENERATORS:
            klass = getattr(mods[f"{package}.{modname}"], cls)
            setattr(klass, meth, self._wrap_generator(getattr(klass, meth), name))

    # -- phases and aggregation ----------------------------------------------
    def mark(self, kind: str, start_index: int):
        """Record that spans[start_index:] so far belong to one phase
        ("setup" or "round")."""
        self.phases.append((kind, start_index, len(self.spans)))

    def phase_totals(self, lo: int, hi: int) -> dict:
        """Self seconds, call counts and counters of spans[lo:hi]."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        sums: dict = defaultdict(int)
        maxes: dict = defaultdict(int)
        for i in range(lo, hi):
            name, start, end, parent, extra, counters = self.spans[i]
            dur = end - start
            self_s[name] += dur - extra
            calls[name] += 1
            if parent is not None and parent >= lo:
                self_s[self.spans[parent][0]] -= dur
            if counters:
                for k, v in counters.items():
                    sums[k] += v
                    maxes[k] = max(maxes[k], v)
        return {"self": self_s, "calls": calls, "sum": sums, "max": maxes}

    def layer_metrics(self) -> dict:
        """Per-layer metrics: the median over set-up phases plus the median
        over rounds (a max counter takes the larger of the two medians)."""
        by_kind: dict = defaultdict(list)
        for kind, lo, hi in self.phases:
            by_kind[kind].append(self.phase_totals(lo, hi))
        out = {}
        for metric, unit, (how, key) in LAYER_METRICS:
            parts = [
                statistics.median(t[how].get(key, 0) for t in totals)
                for totals in by_kind.values()
            ]
            value = max(parts) if how == "max" else sum(parts)
            if unit == "count" or unit == "bits":
                value = int(value)
            else:
                value = max(value, 0.0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Dump every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent, _, counters in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent}
                if counters:
                    rec["counters"] = counters
                fh.write(json.dumps(rec) + "\n")
