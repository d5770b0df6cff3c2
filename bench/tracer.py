"""Spans around glfrac's public functions, recorded from outside the package.

install() replaces each traced function with a wrapper in every glfrac
module that holds it, so names a module imported from another one
(`gauss_laguerre` in scalar_core and cli, `plan_*` in cli, ...) are traced
too. Spans are kept in memory as tuples and only summarised or written
once the run is over.

Shifted solves run on pool threads when an apply is parallel. A pool
thread has no span of its own on its stack, so a solve there takes the
open `apply` span as its explicit parent. The closed loop runs one
request at a time, so at most one apply is open.
"""

import gzip
import json
import os
import threading
import time
from contextlib import contextmanager
from itertools import count

import numpy as np

import glfrac
import glfrac.cli
from glfrac import operator_apply as oa

_MODULES = (glfrac, glfrac.quadrature, glfrac.scalar_core, glfrac.operator_apply,
            glfrac.oracle_baselines, glfrac.cli)
SOLVE_KINDS = ("diagonal", "tridiagonal", "dense")
VERBS = ("nodes", "select-n", "scalar-error", "matrix-error", "compare")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread, attrs)
        self.enabled = True
        self._lock = threading.Lock()
        self._ids = count(1)
        self._local = threading.local()
        self._applies = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
            parent = stack[-1][0] if stack else (self._applies[-1] if self._applies else None)
            if name == "operator_apply.apply":
                self._applies.append(sid)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                if name == "operator_apply.apply":
                    self._applies.remove(sid)
                self.spans.append((sid, parent, name, start, end, threading.get_ident(), attrs))

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, start, end, thread, attrs in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end, thread, attrs]) + "\n")


def _replace(name, wrapper, original):
    for module in _MODULES:
        if getattr(module, name, None) is original:
            setattr(module, name, wrapper)


def install(tracer):
    """Wrap glfrac's public layer boundaries so each call records a span."""

    def traced(name, span_name, attrs_of=lambda args, kwargs: {}):
        original = getattr(glfrac, name, None) or getattr(glfrac.cli, name)

        def wrapper(*args, **kwargs):
            with tracer.span(span_name, **attrs_of(args, kwargs)):
                return original(*args, **kwargs)

        _replace(name, wrapper, original)

    def apply_attrs(args, kwargs):
        form = args[2] if len(args) > 2 else kwargs["form"]
        parallel = kwargs.get("parallel", args[3] if len(args) > 3 else False)
        workers = kwargs.get("max_workers", args[4] if len(args) > 4 else None)
        if parallel and workers is None:  # ThreadPoolExecutor's own default
            workers = min(32, (os.cpu_count() or 1) + 4)
        tasks = form.k1 + form.k2
        return {"predicted": tasks, "workers": min(workers, tasks) if parallel and tasks > 1 else 1}

    def eval_attrs(args, kwargs):
        form, lam = args[0], args[1]
        return {"terms": (form.k1 + form.k2) * int(np.size(lam))}

    traced("gauss_laguerre", "quadrature.gauss_laguerre", lambda a, k: {"order": int(a[0])})
    traced("select_n", "scalar_core.select_n")
    for plan in ("plan_full", "plan_balanced", "plan_equalized"):
        traced(plan, "scalar_core.plan")
    traced("build_rational", "scalar_core.build_rational")
    traced("eval_scalar", "scalar_core.eval_scalar", eval_attrs)
    traced("apply_fractional_inverse", "operator_apply.apply", apply_attrs)
    traced("dense_fractional_inverse", "operator_apply.dense_inverse",
           lambda a, k: {"columns": int(a[0].dimension)})
    traced("oracle_diag_norm_error", "oracle_baselines.diag_norm_error")
    traced("sinc_baseline_error", "oracle_baselines.sinc_baseline_error")
    traced("parse_operator", "cli.parse_operator")
    traced("main", "cli.main", lambda a, k: {"verb": (a[0] if a else k["argv"])[0]})

    kinds = {oa.DiagonalOperator: "diagonal", oa.TridiagonalOperator: "tridiagonal",
             oa.DenseOperator: "dense"}

    original_builtin = glfrac.builtin_operator

    def builtin_operator(kind, **params):
        with tracer.span("operator_apply.construct") as attrs:
            op = original_builtin(kind, **params)
            attrs["kind"] = kinds.get(type(op), "other")
            return op

    _replace("builtin_operator", builtin_operator, original_builtin)

    for cls, kind in kinds.items():
        original_init = cls.__init__

        def init(self, *args, _init=original_init, _kind=kind, **kwargs):
            top = tracer.current()
            if top is not None and top[1] == "operator_apply.construct":
                return _init(self, *args, **kwargs)
            with tracer.span("operator_apply.construct", kind=_kind):
                return _init(self, *args, **kwargs)

        cls.__init__ = init

    original_solve = oa.OperatorHandle.shifted_solve

    def shifted_solve(self, sigma, tau, v):
        kind = kinds.get(type(self))
        if kind is None:  # the unit-scaled view forwards to its base handle
            return original_solve(self, sigma, tau, v)
        with tracer.span("operator_apply.shifted_solve", kind=kind):
            return original_solve(self, sigma, tau, v)

    oa.OperatorHandle.shifted_solve = shifted_solve


def _self_times(spans):
    """Map span id to its duration minus the union of its children's intervals."""
    children = {}
    for sid, parent, _, start, end, _, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def summarise(spans):
    """Per-layer metrics of one traced run, in the units BENCHMARK.json names.

    Busy and self times and counts are per request; per_solve_s is per
    solve, construct_s per construction, cli.main.<verb>.self_s per call
    of that verb. A layer that did not run on a workload reads 0.
    """
    self_of = _self_times(spans)
    requests = [s for s in spans if s[2] == "request"]
    n_req = max(len(requests), 1)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def busy(name, pred=lambda s: True):
        return sum(s[4] - s[3] for s in by_name.get(name, ()) if pred(s))

    def self_sum(name, pred=lambda s: True):
        return sum(self_of[s[0]] for s in by_name.get(name, ()) if pred(s))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    rules = by_name.get("quadrature.gauss_laguerre", [])
    orders = [s[6]["order"] for s in rules]
    m["quadrature.gauss_laguerre.calls"] = len(rules) / n_req
    m["quadrature.gauss_laguerre.busy_s"] = busy("quadrature.gauss_laguerre") / n_req
    m["quadrature.gauss_laguerre.order_sum"] = sum(orders) / n_req
    m["quadrature.gauss_laguerre.distinct_frac"] = ratio(len(set(orders)), len(orders))

    m["scalar_core.select_n.busy_s"] = busy("scalar_core.select_n") / n_req
    m["scalar_core.plan.busy_s"] = busy("scalar_core.plan") / n_req
    m["scalar_core.build_rational.self_s"] = self_sum("scalar_core.build_rational") / n_req
    m["scalar_core.eval_scalar.busy_s"] = busy("scalar_core.eval_scalar") / n_req
    m["scalar_core.eval_scalar.term_evals"] = (
        sum(s[6]["terms"] for s in by_name.get("scalar_core.eval_scalar", ())) / n_req)

    constructs = by_name.get("operator_apply.construct", [])
    solves = by_name.get("operator_apply.shifted_solve", [])
    for kind in SOLVE_KINDS:
        built = [s[4] - s[3] for s in constructs if s[6].get("kind") == kind]
        m[f"operator_apply.construct_s.{kind}"] = ratio(sum(built), len(built))
        mine = [s[4] - s[3] for s in solves if s[6]["kind"] == kind]
        m[f"operator_apply.shifted_solve.{kind}.calls"] = len(mine) / n_req
        m[f"operator_apply.shifted_solve.{kind}.busy_s"] = sum(mine) / n_req
        m[f"operator_apply.shifted_solve.{kind}.per_solve_s"] = ratio(sum(mine), len(mine))

    applies = {s[0]: s for s in by_name.get("operator_apply.apply", [])}
    solved = {}
    solve_busy = {}
    for s in solves:
        if s[1] in applies:
            solved[s[1]] = solved.get(s[1], 0) + 1
            solve_busy[s[1]] = solve_busy.get(s[1], 0.0) + (s[4] - s[3])
    m["operator_apply.apply.self_s"] = self_sum("operator_apply.apply") / n_req
    m["operator_apply.solves_over_predicted"] = ratio(
        sum(solved.values()), sum(a[6]["predicted"] for a in applies.values()))
    parallel = [a for a in applies.values() if a[6]["workers"] > 1]
    m["operator_apply.parallel_efficiency"] = ratio(
        sum(solve_busy.get(a[0], 0.0) for a in parallel),
        sum(a[6]["workers"] * (a[4] - a[3]) for a in parallel))
    m["operator_apply.dense_inverse.busy_s"] = busy("operator_apply.dense_inverse") / n_req
    m["operator_apply.dense_inverse.columns"] = (
        sum(s[6]["columns"] for s in by_name.get("operator_apply.dense_inverse", ())) / n_req)

    m["oracle_baselines.diag_norm_error.busy_s"] = busy("oracle_baselines.diag_norm_error") / n_req
    m["oracle_baselines.sinc_baseline_error.busy_s"] = (
        busy("oracle_baselines.sinc_baseline_error") / n_req)

    mains = by_name.get("cli.main", [])
    for verb in VERBS:
        calls = [s for s in mains if s[6]["verb"] == verb]
        m[f"cli.main.{verb}.self_s"] = ratio(sum(self_of[s[0]] for s in calls), len(calls))
    m["cli.parse_operator.busy_s"] = busy("cli.parse_operator") / n_req

    request_time = sum(s[4] - s[3] for s in requests)
    m["trace.request_s"] = request_time / n_req
    m["trace.unaccounted_frac"] = ratio(sum(self_of[s[0]] for s in requests), request_time)
    return m
