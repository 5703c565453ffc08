"""Spans and counters recorded from outside the program.

A ``Tracer`` wraps names that ``fedmm`` exports, in every ``fedmm`` module
that refers to them, for the duration of a ``with tracer.installed():``
block. The program itself is never edited. Two kinds of wrapper exist:

* span: calls made at most a few thousand times per operation. Each call
  is kept in memory as (id, name, layer, start_ns, end_ns, parent id,
  operation id, self ns) and written out by ``write_spans`` at the end.
* leaf: hot calls (agent gradients, server averaging). Each call adds to a
  count and a busy time and keeps its duration in a bounded sample, but no
  span record, so a 44k-round run does not grow memory by millions of spans.

Both kinds charge their duration to the enclosing span, so every layer's
self time (its busy time minus the time of calls it makes into wrapped
names) is exact up to the cost of the wrappers themselves.

Agent gradients are counted by a delegating proxy put in place of each
agent the first time a wrapped call receives or returns a ``MinimaxProblem``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

SPAN_NAMES = (
    "gen_quadratic", "gen_rlr", "save_dataset", "load_dataset",
    "closed_form_minimax", "estimate_constants",
    "auto_eta_fedgda", "fedgda_round_map_norm", "run_algorithm",
    "robust_loss", "fixed_point_report", "local_sgda_limit",
    "local_sgda_fixed_point_closed_form", "local_sgda_residual",
    "estimate_rademacher", "massart_bound", "bound_terms", "vc_rademacher_bound",
    "main", "write_trace_csv",  # fedmm.cli
)
LEAF_NAMES = ("average_vectors",)
# modules whose globals are searched for the names above
MODULES = ("fedmm", "fedmm.cli", "fedmm.algorithms", "fedmm.analysis", "fedmm.problems",
           "fedmm.datagen", "fedmm.genbounds", "fedmm.core")
LAYERS = ("cli", "datagen", "problems", "algorithms", "analysis", "core", "genbounds")
SAMPLE_CAP = 100_000


class CallStats:
    """Count, busy time and a bounded sample of durations of one wrapped name."""

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.samples = array("q")

    def add(self, dur_ns: int) -> None:
        self.count += 1
        self.total_ns += dur_ns
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(dur_ns)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, CallStats] = {}
        self.self_ns = {layer: 0 for layer in LAYERS + ("bench",)}
        self.op_id = 0
        # each frame: [span id, child ns]; the root frame collects nothing
        self._stack = [[-1, 0]]
        self._next_id = 0
        self._problem_type = ()  # fedmm.MinimaxProblem once installed

    # -- recording ----------------------------------------------------------

    def call(self, name: str, layer: str, fn, args, kwargs, *, record: bool):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - start
            parent[1] += dur
            own = dur - frame[1]
            self.self_ns[layer] += own
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = CallStats()
            stats.add(dur)
            if record:
                self.spans.append(
                    (span_id, name, layer, start, end, parent[0], self.op_id, own)
                )

    def operation(self, name: str, fn, *args):
        """Run one benchmark operation as the root span ``op:<name>``."""
        self.op_id += 1
        return self.call(f"op:{name}", "bench", fn, args, {}, record=True)

    # -- installation -------------------------------------------------------

    def _seen(self, obj) -> None:
        if isinstance(obj, self._problem_type) and not getattr(obj, "_bench_traced", False):
            obj.agents = [CountingAgent(a, self) for a in obj.agents]
            obj._bench_traced = True

    def _wrap(self, name: str, fn, *, record: bool):
        layer = fn.__module__.rsplit(".", 1)[-1]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if args:
                self._seen(args[0])
            result = self.call(name, layer, fn, args, kwargs, record=record)
            self._seen(result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        import fedmm
        from fedmm import cli

        self._problem_type = fedmm.MinimaxProblem
        patched = []
        targets = [(n, True) for n in SPAN_NAMES] + [(n, False) for n in LEAF_NAMES]
        try:
            for name, record in targets:
                original = getattr(fedmm, name, None) or getattr(cli, name, None)
                if original is None:  # renamed or removed: its calls go unwrapped
                    continue
                wrapper = self._wrap(name, original, record=record)
                for mod in filter(None, map(sys.modules.get, MODULES)):
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)
                        patched.append((mod, name, original))
            yield self
        finally:
            for mod, name, original in reversed(patched):
                setattr(mod, name, original)

    # -- reporting ----------------------------------------------------------

    def samples(self, name: str) -> array:
        stats = self.stats.get(name)
        return stats.samples if stats is not None else array("q")

    def write_spans(self, path) -> None:
        keys = ("id", "name", "layer", "start_ns", "end_ns", "parent", "op", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class CountingAgent:
    """Delegates to a local objective and times its gradient calls as leaf
    calls of the ``problems`` layer."""

    def __init__(self, agent, tracer: Tracer):
        self._agent = agent
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._agent, name)

    def grad_x(self, x, y):
        return self._tracer.call("grad", "problems", self._agent.grad_x, (x, y), {},
                                 record=False)

    def grad_y(self, x, y):
        return self._tracer.call("grad", "problems", self._agent.grad_y, (x, y), {},
                                 record=False)
