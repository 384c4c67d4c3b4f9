"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces every public function of each package module,
and the scipy entry points the modules call (``linprog`` through HiGHS,
``cho_factor``/``cho_solve`` through LAPACK), with a wrapper that records a
span, in every module namespace that binds the function.  Nothing under
``src/`` is edited; ``Tracer.uninstall`` puts the originals back.

A span is (name, start, end, parent, operation id, thread id).  Spans stay
in memory and are written out when the run ends.  Spans are recorded only
while an operation is open, so output checks made between operations are
not traced.  Worker threads that the package starts (``simulate_paths`` and
``envelope`` with ``threads > 1``) have no span of their own to nest in;
their spans take as parent the innermost open span of the thread that runs
the operations, which is the call that started the pool.

The self time of a span is its duration minus the union of its children's
intervals.  Children on two threads may overlap; the overlap is reported on
its own so that, per operation,

    operation time = sum of layer self times + unattributed - overlap

holds exactly, where "unattributed" is the self time of the operation span
itself (benchmark code around the call).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

# The package's modules, which are the layers.
MODULES = (
    "cli",
    "chain_core",
    "transport",
    "divergence",
    "_entropic",
    "rate_solver",
    "set_chain",
    "montecarlo",
)

# scipy entry points, timed in each module namespace that binds them.
SCIPY_ENTRIES = ("linprog", "cho_factor", "cho_solve")

OP_SPAN = "bench.op"

# Layers of the scipy calls, by function name.
SCIPY_LAYER = {"linprog": "highs", "cho_factor": "lapack", "cho_solve": "lapack"}


class Span:
    __slots__ = ("index", "name", "parent", "op", "thread", "start", "end", "info", "error")

    def __init__(self, index, name, parent, op, thread, start, end=None):
        self.index = index
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = start
        self.end = end
        self.info = None
        self.error = None

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _solve_info(args, kwargs, result):
    prog = args[0] if args else kwargs["prog"]
    return {
        "n_vars": int(prog.n_vars),
        "newton_steps": int(result.newton_iters),
        "not_optimal": result.status != "optimal",
    }


def _lp_info(args, kwargs, result):
    size = result.a_eq.size + result.a_ub.size
    nnz = int((result.a_eq != 0).sum() + (result.a_ub != 0).sum())
    return {
        "matrix_bytes": int(result.a_eq.nbytes + result.a_ub.nbytes),
        "nnz_frac": nnz / size if size else 0.0,
    }


def _rows_info(args, kwargs, result):
    return {"rows": int(len(result))}


def _sim_info(args, kwargs, result):
    plan = args[0] if args else kwargs["plan"]
    return {
        "paths": int(plan.paths_per_length) * len(plan.lengths),
        "path_steps": int(plan.paths_per_length) * int(sum(plan.lengths)),
    }


# Extra facts read from a call's arguments and result, after its span ends.
INFO = {
    "_entropic.solve": _solve_info,
    "set_chain.invariant_ball_lp": _lp_info,
    "transport.w1_to_center": _rows_info,
    "montecarlo.simulate_paths": _sim_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._next_op = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stack = self._stack()  # stack of the thread that runs operations
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        with self._lock:
            span = Span(len(self.spans), name, parent, self.op_id, threading.get_ident(), 0)
            self.spans.append(span)
        stack.append(span.index)
        span.start = time.perf_counter_ns()
        return span

    def _end(self, span: Span):
        span.end = time.perf_counter_ns()
        self._stack().pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """One benchmark operation: a root span, and the only time spans are
        recorded."""
        self.op_id = self._next_op
        self._next_op += 1
        span = self._begin(OP_SPAN)
        span.info = {"op": name}
        try:
            yield span
        finally:
            self._end(span)
            self.op_id = None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            span = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._end(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def _namespaces(self) -> list[object]:
        return [sys.modules["robust_ldp"]] + [sys.modules[f"robust_ldp.{m}"] for m in MODULES]

    def _patch(self, namespace, attr: str, new):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self):
        namespaces = self._namespaces()
        for module_name, module in zip(MODULES, namespaces[1:]):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{module_name}.{attr}", fn)
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, other, wrapper)
            for entry in SCIPY_ENTRIES:
                fn = vars(module).get(entry)
                if fn is not None:
                    self._patch(module, entry, self._wrap(f"{module_name}.{entry}", fn))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


# -- self time -------------------------------------------------------------


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, int], dict[int, int]]:
    """Per span index: self time (duration minus the union of its children's
    intervals, clipped to the span) and overlap (summed child time minus that
    union), both in nanoseconds."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    by_index = {s.index: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_index:
            p = by_index[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    self_ns, overlap_ns = {}, {}
    for s in spans:
        ivs = children.get(s.index, [])
        covered = _union_length(ivs)
        self_ns[s.index] = (s.end - s.start) - covered
        overlap_ns[s.index] = sum(max(0, hi - lo) for lo, hi in ivs) - covered
    return self_ns, overlap_ns


def layer_metrics(spans: list[Span], batches: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run, as averages per batch.

    Names follow ``<module>.<function>.<stat>``; the ``_entropic`` module is
    written ``entropic`` because metric names start with a letter.
    """
    self_ns, overlap_ns = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    by_index = {s.index: s for s in spans}
    solve_under: set[int] = set()
    newton = not_optimal = max_n_vars = 0
    lp_bytes = 0
    nnz_sum = 0.0
    rows = paths = path_steps = 0
    op_ns = unattributed_ns = 0
    overlap_total = sum(overlap_ns.values())

    for s in spans:
        dur = s.end - s.start
        if s.name == OP_SPAN:
            op_ns += dur
            unattributed_ns += self_ns[s.index]
            continue
        calls[s.name] += 1
        busy[s.name] += dur
        own[s.name] += self_ns[s.index]
        module, func = s.name.split(".", 1)
        layer_self[SCIPY_LAYER.get(func, module)] += self_ns[s.index]
        if s.error:
            errors[s.name] += 1
        info = s.info or {}  # empty when the call raised
        if s.name == "_entropic.solve":
            newton += info.get("newton_steps", 0)
            not_optimal += int(info.get("not_optimal", 0))
            max_n_vars = max(max_n_vars, info.get("n_vars", 0))
            # a tail_rate span with no solve below it is a zero-rate exit
            p = s.parent
            while p is not None:
                solve_under.add(p)
                p = by_index[p].parent
        elif s.name == "set_chain.invariant_ball_lp":
            lp_bytes = max(lp_bytes, info.get("matrix_bytes", 0))
            nnz_sum += info.get("nnz_frac", 0.0)
        elif s.name == "transport.w1_to_center":
            rows += info.get("rows", 0)
        elif s.name == "montecarlo.simulate_paths":
            paths += info.get("paths", 0)
            path_steps += info.get("path_steps", 0)

    zero_exits = sum(
        1 for s in spans if s.name == "rate_solver.tail_rate" and s.index not in solve_under
    )
    b = max(1, batches)
    sec = 1e-9 / b
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    tables = {"calls": (calls, 1 / b, "count"), "s": (busy, sec, "s"), "self_s": (own, sec, "s")}

    def span_stats(span_name, *stats):
        metric = span_name.replace("_entropic.", "entropic.", 1)
        for stat in stats:
            table, scale, unit = tables[stat]
            put(f"{metric}.{stat}", table[span_name] * scale, unit)

    span_stats("_entropic.solve", "calls", "s", "self_s")
    put("entropic.solve.newton_steps", newton / b, "count")
    put("entropic.solve.max_n_vars", max_n_vars, "count")
    put("entropic.solve.not_optimal", not_optimal / b, "count")
    span_stats("_entropic.cho_factor", "calls", "s")
    put("entropic.cho_factor.failed", errors["_entropic.cho_factor"] / b, "count")
    span_stats("_entropic.cho_solve", "s")
    span_stats("_entropic.linprog", "calls", "s")
    span_stats("rate_solver.tail_rate", "calls", "s", "self_s")
    put("rate_solver.zero_rate_exits", zero_exits / b, "count")
    span_stats("set_chain.invariant_ball_lp", "calls", "s")
    put("set_chain.invariant_ball_lp.matrix_mb", lp_bytes / 1e6, "MB")
    n_lp = calls["set_chain.invariant_ball_lp"]
    put("set_chain.invariant_ball_lp.nnz_frac", nnz_sum / n_lp if n_lp else 0.0, "ratio")
    span_stats("set_chain.linprog", "calls", "s")
    span_stats("set_chain.envelope", "calls", "s")
    span_stats("set_chain.robust_functional_bound", "s")
    span_stats("set_chain.stationary", "calls", "s")
    span_stats("set_chain.check_conditions", "s")
    span_stats("transport.w1_to_center", "calls")
    put("transport.w1_to_center.rows", rows / b, "count")
    span_stats("transport.w1_to_center", "s")
    span_stats("transport.lipschitz_extreme_potentials", "calls", "s")
    span_stats("transport.linprog", "calls", "s")
    span_stats("montecarlo.simulate_paths", "calls", "s", "self_s")
    put("montecarlo.simulate_paths.path_steps", path_steps / b, "count")
    put("montecarlo.unique_row_frac", rows / paths if paths else 0.0, "ratio")
    span_stats("transport.w1", "calls", "s")
    span_stats("divergence.beta", "calls", "s")
    span_stats("cli.main", "calls", "s", "self_s")
    span_stats("cli.load_chain_file", "s")
    for layer in MODULES + ("highs", "lapack"):
        put(f"layer.{layer.lstrip('_')}.self_s", layer_self[layer] * sec, "s")
    put("trace.wall_s", op_ns * sec, "s")
    put("trace.self_sum_s", sum(layer_self.values()) * sec, "s")
    put("trace.unattributed_s", unattributed_ns * sec, "s")
    put("trace.overlap_s", overlap_total * sec, "s")
    put("trace.spans", len(spans) / b, "count")
    return out
