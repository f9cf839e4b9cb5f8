"""Timing wrappers for the traced run.

The wrappers are installed from the benchmark's side, on the module
attributes that the callers actually resolve at call time: `execute_plan`
calls `tensordd.planner.contract`, not `tensordd.diagram.contract`, so the
planner's name is the one wrapped. Nothing in `src/` changes. Each call
records a span (name, start, end, parent) in memory; self times and the
per-layer totals are derived from the spans afterwards.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

from tensordd import circuit, cli, diagram, planner

# (owner, attribute, span name). A name appears once per caller module that
# resolves it: the benchmark calls circuit/planner names, `cli.equivalent`
# calls the names imported into cli.
WRAPPED = [
    (circuit, "parse_qasm", "circuit.parse"),
    (circuit, "allocate_indices", "circuit.allocate"),
    (cli, "allocate_indices", "circuit.allocate"),
    (planner, "plan_circuit", "planner.plan"),
    (cli, "plan_circuit", "planner.plan"),
    (planner, "execute_plan", "planner.execute"),
    (cli, "execute_plan", "planner.execute"),
    (planner, "reachable", "planner.peak_sample"),
    (planner, "size", "planner.size"),
    (planner, "generate", "diagram.generate"),
    (cli, "generate", "diagram.generate"),
    (planner, "contract", "diagram.contract"),
    (cli, "contract", "diagram.contract"),
    (planner, "tensor_product", "diagram.tensor_product"),
    (diagram.NodeStore, "collect", "diagram.collect"),
    (cli, "relabel", "diagram.relabel"),
    (cli, "boundary_normalized", "cli.boundary_normalize"),
    (cli, "equivalent", "cli.equivalent"),
]

JOB = "job"


class Tracer:
    """In-memory span recorder. spans[i] = [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.jobs = []        # (root span index, job name, scheme)
        self.executions = []  # (id(store), stats) of the running job's execute_plan calls
        self.counts = {}      # store counters summed over the finished jobs
        self._stack = [-1]

    def _timed(self, name, fn):
        spans, stack, executions = self.spans, self._stack, self.executions

        def timed(*args, **kwargs):
            i = len(spans)
            span = [name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(i)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name == "planner.execute":
                executions.append((id(args[1]), out[1]))
            return out

        return timed

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
        try:
            for (owner, attr, name), (_, _, fn) in zip(WRAPPED, saved):
                setattr(owner, attr, self._timed(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def job(self, name, scheme, fn, *args):
        """Run fn(*args) under a root span for one job, then fold its store
        counters into the pass's counts. Only ids of stores are kept, so no
        job's store outlives it."""
        self.jobs.append((len(self.spans), name, scheme))
        try:
            return self._timed(JOB, fn)(*args)
        finally:
            self._fold_counts()

    def reset(self):
        self.spans.clear()
        self.jobs.clear()
        self.executions.clear()
        self.counts = {}

    def totals(self):
        """{span name: [inclusive seconds, self seconds, calls]}."""
        out = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent), c in zip(self.spans, child):
            t = out.setdefault(name, [0.0, 0.0, 0])
            t[0] += end - start
            t[1] += end - start - c
            t[2] += 1
        return out

    def totals_by_scheme(self):
        """{scheme: {span name: inclusive seconds}} over each job's subtree."""
        scheme_of = {i: s for i, _, s in self.jobs}
        root = []
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            r = i if parent < 0 else root[parent]
            root.append(r)
            by_name = out.setdefault(scheme_of.get(r), {})
            by_name[name] = by_name.get(name, 0.0) + end - start
        return out

    def _fold_counts(self):
        # a store shared by several execute_plan calls (equivalence) reports
        # cumulative stats, so the last stats seen per store are its totals
        last = {}
        for store_id, stats in self.executions:
            last[store_id] = stats["store"]
        stores = list(last.values())
        runs = [stats for _, stats in self.executions]
        self.executions.clear()
        job = {
            "planner.steps": sum(len(s["steps"]) for s in runs),
            "diagram.final_nodes_total": sum(s["final_nodes"] for s in runs),
            "diagram.unique_hits": sum(s["unique_hits"] for s in stores),
            "diagram.cont_cache_hits": sum(s["cache_hits_cont"] for s in stores),
            "diagram.add_cache_hits": sum(s["cache_hits_add"] for s in stores),
            "diagram.gc_runs": sum(s["gc_runs"] for s in stores),
        }
        peaks = {
            "planner.live_peak_nodes": max((s["peak_nodes"] for s in runs), default=0),
            "diagram.store_peak_nodes": max((s["peak_nodes"] for s in stores), default=0),
        }
        for k, v in job.items():
            self.counts[k] = self.counts.get(k, 0) + v
        for k, v in peaks.items():
            self.counts[k] = max(self.counts.get(k, 0), v)

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for (i, name, scheme) in self.jobs:
                fh.write(json.dumps({"job": name, "scheme": scheme, "span": i}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
