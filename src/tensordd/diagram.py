"""Hash-consed, edge-weighted decision diagrams over Boolean indices.

Every node constructed anywhere in the system goes through make_level_node,
the only node constructor, which applies weight normalization, zero-edge
redirection, redundant-node collapse and unique-table lookup in one place, so
every diagram is reduced and canonical at all times. Nodes store the integer
level IndexOrder.key gives their index label; labels appear only at the
label-facing functions.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dense import MAX_RANK, DenseTensor, IndexOrder
from .numerics import DEFAULT_TOLERANCE, canonical, format_weight, is_zero, weights_equal

TERMINAL = 0

_ONE = complex(1.0, 0.0)
_ZERO = complex(0.0, 0.0)


class Edge(NamedTuple):
    weight: complex
    target: int


# hot paths build Edge values without NamedTuple's Python-level __new__
_new = tuple.__new__
_ZERO_EDGE = Edge(_ZERO, TERMINAL)

# unique keys give each child id this many bits: ids index the node lists,
# so an id outgrows its field only after 2**40 slots (8 TB per list)
ID_BITS = 40

# the kernel, add and the walks over a diagram recurse one frame per level
RECURSION_LIMIT = 30_000


def _operation(fn):
    """Run a top-level operation on F under at least RECURSION_LIMIT, with
    computed caches that serve it alone. On the way out, also when it raises
    (PlanTimeout, MemoryError), the caller's limit is restored and F's store
    caches are emptied, so no entry outlives the operation or its nodes."""
    @functools.wraps(fn)
    def run(F, *rest):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, RECURSION_LIMIT))
        try:
            return fn(F, *rest)
        finally:
            sys.setrecursionlimit(old)
            F.store.add_cache.clear()
            F.store.cont_cache.clear()

    return run


class StoreError(ValueError):
    pass


class PlanTimeout(RuntimeError):
    """Raised once a deadline has passed: by make_level_node for the store's,
    by the planner between steps for a plan's."""


# make_level_node reads the clock when a new node id is a multiple of this
DEADLINE_CHECK_IDS = 1 << 14

# a plan sweeps between steps above store.gc_limit live nodes, which starts
# here and which a sweep may raise. A sweep frees only nodes: the computed
# caches serve one top-level operation (add, contract) and are emptied when it
# returns or raises, so between operations they hold nothing. Within one
# operation a cache is cleared once it holds CACHE_LIMIT entries.
GC_LIMIT = 1 << 14
CACHE_LIMIT = 2_000_000


class NodeStore:
    """Owns the nodes, the unique table, the computed caches and the index order.

    Nodes are parallel lists indexed by node id: level, w0/t0 (low edge
    weight and target) and w1/t1 (high edge). Slot 0 is the single terminal,
    value 1, at an infinite level below every real one, so the top level of
    two roots is their min; terminal values live on incoming edge weights. A
    collected slot holds None throughout, and ids are never reused. unique
    maps each live node's node_key to its id, so its length is the live count.

    deadline, when set, is an absolute time.monotonic() value: make_level_node
    raises PlanTimeout once it has passed, reading the clock once every
    DEADLINE_CHECK_IDS new node ids and before it changes anything, so the
    store stays sound for the caller that catches the error.
    """

    def __init__(self, order=None, cfg=None):
        self.order = order if order is not None else IndexOrder()
        self.cfg = cfg if cfg is not None else DEFAULT_TOLERANCE
        self.level, self.w0, self.t0, self.w1, self.t1 = [math.inf], [None], [None], [None], [None]
        self.unique = {}
        self.add_cache = {}
        self.cont_cache = {}
        self.unique_hits = 0
        self.cache_hits_add = 0
        self.cache_hits_cont = 0
        self.peak_nodes = 0
        self.gc_limit = GC_LIMIT
        self.gc_runs = 0
        self.deadline = None
        eps = self.cfg.eps
        self.half = 0.5 * eps
        # a normalized weight has modulus at most 1/(1-eps), so its grid
        # cells offset by _cell_off are nonnegative and fit in _cell_bits
        self._one_cell = round(1.0 / eps)
        self._cell_off = round(1.0 / (eps * (1.0 - eps))) + 2
        self._cell_bits = (2 * self._cell_off).bit_length()

    def node(self, t):
        """(level, w0, t0, w1, t1) of node t; KeyError for the terminal or an id not live."""
        if not 0 < t < len(self.level) or self.level[t] is None:
            raise KeyError(t)
        return self.level[t], self.w0[t], self.t0[t], self.w1[t], self.t1[t]

    def terminal_edge(self, w):
        """Edge into the terminal; the value keeps full precision.

        Rounding here would perturb algebraically related input entries by
        different amounts and break their exact identities, which is what
        ultimately lets different contraction orders of one circuit disagree.
        Near-zero values snap to the zero edge.
        """
        w = complex(w)
        if is_zero(w, self.cfg):
            return _ZERO_EDGE
        return Edge(w, TERMINAL)

    def node_key(self, level, w0, t0, w1, t1):
        """Unique-table key, one int, of a node with one child weight exactly 1.

        From the top: level, t0, t1, the grid cells of the other weight and a
        side bit, 1 when that weight is w0 and cleared on the grid cell of 1.
        Keys are equal exactly when levels, targets and both weights' cells are.
        """
        eps = self.cfg.eps
        w, side = (w1, 0) if w0 == 1 else (w0, 1)
        re = round(w.real / eps)
        im = round(w.imag / eps)
        if im == 0 and re == self._one_cell:
            side = 0
        bits, off = self._cell_bits, self._cell_off
        ids = (level << ID_BITS | t0) << ID_BITS | t1
        return (((ids << bits | re + off) << bits | im + off) << 1) | side

    def make_level_node(self, level, w0, t0, w1, t1):
        """Canonicalizing node constructor over the integer level of an index.

        Returns an edge (w, n) with w * value(n) = xbar*w0*value(t0) +
        x*w1*value(t1), value(n) normal, and n unique in the store. The
        unique-table key rounds the child weights to the grid, but the node
        keeps the full-precision weights of its first insertion: weights that
        agree to within the grid pitch are interned to one representative, so
        arithmetic never sees a quantization step that could push two
        computations of the same quantity into different nodes.
        """
        half = self.half
        if -half <= w0.real <= half and -half <= w0.imag <= half:
            w0, t0 = _ZERO, TERMINAL
        if -half <= w1.real <= half and -half <= w1.imag <= half:
            w1, t1 = _ZERO, TERMINAL
        levels = self.level
        if level >= levels[t0] or level >= levels[t1]:
            child = levels[t0] if level >= levels[t0] else levels[t1]
            raise StoreError("index %s does not precede child index %s"
                             % (self.order.label(level), self.order.label(child)))
        if w0 == 0 and w1 == 0:
            return _ZERO_EDGE
        # divide through by the dominant cofactor weight; near-ties keep the
        # 0-side, with a relative margin so the quotient stays within 1+2eps
        if w0 != 0 and (w1 == 0 or abs(w0) >= abs(w1) * (1.0 - self.cfg.eps)):
            w, n0, n1 = w0, _ONE, w1 / w0
        else:
            w, n0, n1 = w1, w0 / w1, _ONE
        if -half <= n0.real <= half and -half <= n0.imag <= half:
            n0, t0 = _ZERO, TERMINAL
        if -half <= n1.real <= half and -half <= n1.imag <= half:
            n1, t1 = _ZERO, TERMINAL
        if t0 == t1 and weights_equal(n0, n1, self.cfg):
            return _new(Edge, (w, t0))
        key = self.node_key(level, n0, t0, n1, t1)
        nid = self.unique.get(key)
        if nid is None:
            nid = len(levels)
            if (not nid % DEADLINE_CHECK_IDS and self.deadline is not None
                    and time.monotonic() > self.deadline):
                raise PlanTimeout("store deadline passed at node id %d" % nid)
            levels.append(level)
            self.w0.append(n0)
            self.t0.append(t0)
            self.w1.append(n1)
            self.t1.append(t1)
            self.unique[key] = nid
        else:
            self.unique_hits += 1
        return _new(Edge, (w, nid))

    def collect(self, live, keep_below=1):
        """Drop every node whose id is not in live, a set of ids closed under
        children (such as reachable gives).

        Ids below keep_below survive unconditionally, so a caller can protect
        everything that existed before it started creating nodes (children
        always carry smaller ids than their parents, so survivors never
        reference a collected id). Node ids are never reused. The computed
        caches are left alone: they are empty between operations, and only
        call this between operations, since an in-flight recursion holds
        edges (and cache entries) that live may not contain.
        """
        # the live count only falls here; stats() adds the current one
        self.peak_nodes = max(self.peak_nodes, len(self.unique))
        unique = {}
        for k, t in self.unique.items():
            if t < keep_below or t in live:
                unique[k] = t
            else:
                self.level[t] = self.w0[t] = self.t0[t] = self.w1[t] = self.t1[t] = None
        self.unique = unique
        self.gc_runs += 1
        # raise the watermark when most nodes survive, so a mostly-live store
        # does not trigger a fruitless sweep on every following operation
        if len(unique) * 2 > self.gc_limit:
            self.gc_limit = len(unique) * 2
        return len(unique)

    def stats(self):
        return {
            "live_nodes": len(self.unique),
            "peak_nodes": max(self.peak_nodes, len(self.unique)),
            "unique_hits": self.unique_hits,
            "cache_hits_add": self.cache_hits_add,
            "cache_hits_cont": self.cache_hits_cont,
            "gc_runs": self.gc_runs,
        }


@dataclass
class Tdd:
    """A root edge into a store plus the set of labels the tensor is over.

    A label names one decision level, however many wire connections share it
    (a hyper edge).
    """

    store: NodeStore
    root: Edge
    labels: frozenset


def _check_pair(F, G):
    if F.store is not G.store:
        raise StoreError("operands live in different stores")


def generate(store, phi):
    """Reduced diagram of a dense tensor whose indices are sorted for the store."""
    levels = [store.order.key(x) for x in phi.indices]
    if levels != sorted(levels):
        raise StoreError("tensor indices not sorted for this store's order")
    return Tdd(store, _gen(store, levels, phi.values), frozenset(phi.indices))


def _gen(store, levels, values):
    """Cofactor values, an array with one axis per level, along its first
    axis; recurses once per level, so at most MAX_RANK deep."""
    if not levels:
        return store.terminal_edge(values)
    lo, hi = [_gen(store, levels[1:], v) for v in values]
    return store.make_level_node(levels[0], *lo, *hi)


def _add(store, wa, ta, wb, tb):
    if wa == 0:
        return _new(Edge, (wb, tb))
    if wb == 0:
        return _new(Edge, (wa, ta))
    half = store.half
    if ta == tb:
        w = wa + wb
        if -half <= w.real <= half and -half <= w.imag <= half:
            return _ZERO_EDGE
        return _new(Edge, (w, ta))
    if tb < ta:
        wa, ta, wb, tb = wb, tb, wa, ta
    # the cache key quantizes the weight ratio; the recursion itself uses the
    # full-precision ratio, so the first computation for a cell fixes the
    # cached edge that every later near-identical ratio re-uses
    ratio = wb / wa
    eps = store.cfg.eps
    key = (ta, tb, round(ratio.real / eps), round(ratio.imag / eps))
    res = store.add_cache.get(key)
    if res is not None:
        store.cache_hits_add += 1
    else:
        levels = store.level
        la = levels[ta]
        lb = levels[tb]
        x = la if la <= lb else lb
        a0w, a0t, a1w, a1t = ((store.w0[ta], store.t0[ta], store.w1[ta], store.t1[ta])
                              if la == x else (_ONE, ta, _ONE, ta))
        if lb == x:
            b0w, b0t, b1w, b1t = store.w0[tb] * ratio, store.t0[tb], store.w1[tb] * ratio, store.t1[tb]
            if -half <= b0w.real <= half and -half <= b0w.imag <= half:
                b0w, b0t = _ZERO, TERMINAL
            if -half <= b1w.real <= half and -half <= b1w.imag <= half:
                b1w, b1t = _ZERO, TERMINAL
        else:
            b0w, b0t, b1w, b1t = ratio, tb, ratio, tb
        lw, lt = _add(store, a0w, a0t, b0w, b0t)
        hw, ht = _add(store, a1w, a1t, b1w, b1t)
        res = store.make_level_node(x, lw, lt, hw, ht)
        cache = store.add_cache
        if len(cache) >= CACHE_LIMIT:
            cache.clear()
        cache[key] = res
    w = res[0] * wa
    if -half <= w.real <= half and -half <= w.imag <= half:
        return _ZERO_EDGE
    return _new(Edge, (w, res[1]))


@_operation
def add(F, G):
    """Pointwise sum; operands must share one store."""
    _check_pair(F, G)
    return Tdd(F.store, _add(F.store, *F.root, *G.root), F.labels | G.labels)


def _cont(store, wf, tf, wg, tg, var):
    """var: sorted tuple of the levels not yet summed on this branch."""
    if wf == 0 or wg == 0:
        return _ZERO_EDGE
    half = store.half
    if tf == TERMINAL and tg == TERMINAL:
        w = wf * wg * (1 << len(var))
        if -half <= w.real <= half and -half <= w.imag <= half:
            return _ZERO_EDGE
        return _new(Edge, (w, TERMINAL))
    levels = store.level
    lf = levels[tf]
    lg = levels[tg]
    x = lf if lf <= lg else lg
    # var levels preceding both roots can never be split below: each is a
    # constant dimension contributing a factor 2, so they peel off here
    k = 0
    while k < len(var) and var[k] < x:
        k += 1
    varkey = var[k:]
    scale = wf * wg * (1 << k)
    # nothing left to sum against a constant: the other operand is the answer
    if not varkey and (tf == TERMINAL or tg == TERMINAL):
        res = (_ONE, tg if tf == TERMINAL else tf)
    else:
        key = (tf, tg, varkey)
        res = store.cont_cache.get(key)
        if res is not None:
            store.cache_hits_cont += 1
    if res is None:
        summing = bool(varkey) and varkey[0] == x
        rest = varkey[1:] if summing else varkey
        f0w, f0t, f1w, f1t = ((store.w0[tf], store.t0[tf], store.w1[tf], store.t1[tf])
                              if lf == x else (_ONE, tf, _ONE, tf))
        g0w, g0t, g1w, g1t = ((store.w0[tg], store.t0[tg], store.w1[tg], store.t1[tg])
                              if lg == x else (_ONE, tg, _ONE, tg))
        lw, lt = _cont(store, f0w, f0t, g0w, g0t, rest)
        hw, ht = _cont(store, f1w, f1t, g1w, g1t, rest)
        if summing:
            res = _add(store, lw, lt, hw, ht)
        else:
            res = store.make_level_node(x, lw, lt, hw, ht)
        cache = store.cont_cache
        # memoization only: dropping entries costs recomputation, never accuracy
        if len(cache) >= CACHE_LIMIT:
            cache.clear()
        cache[key] = res
    w = res[0] * scale
    if -half <= w.real <= half and -half <= w.imag <= half:
        return _ZERO_EDGE
    return _new(Edge, (w, res[1]))


@_operation
def contract(F, G, var):
    """Contract two diagrams over var; var may name labels absent from either."""
    _check_pair(F, G)
    store = F.store
    var = set(var)
    root = _cont(store, *F.root, *G.root, tuple(sorted(map(store.order.key, var))))
    return Tdd(store, root, (F.labels | G.labels) - var)


def tensor_product(F, G):
    """Outer product: a contraction over no labels.

    Linear in the size of F when every F label precedes every G label: each
    F node is rebuilt once, and where F reaches its terminal, G's root is
    returned as it stands.
    """
    return contract(F, G, ())


def evaluate(F, assignment):
    """Multiply the edge weights along the path the assignment selects.

    Indices with no node on the path contribute a factor 1; a hyper label is
    looked up once and applies to all its slots.
    """
    key = F.store.order.key
    return _evaluate(F.store, F.root, {key(x): b for x, b in assignment.items()})


def _evaluate(store, root, bits):
    """evaluate, with the assignment keyed by integer level."""
    levels, w0, t0, w1, t1 = store.level, store.w0, store.t0, store.w1, store.t1
    w, t = root
    while t != TERMINAL and w != 0:
        b = bits.get(levels[t])
        if b is None:
            if levels[t] is None:
                raise KeyError(t)
            raise KeyError("assignment missing %s" % (store.order.label(levels[t]),))
        w, t = (w * w1[t], t1[t]) if b else (w * w0[t], t0[t])
    return canonical(w, store.cfg)


def to_dense(F, indices=None):
    """Evaluate F on every assignment of the given (or its own) label list."""
    store = F.store
    labs = list(indices) if indices is not None else store.order.sort(F.labels)
    if len(labs) > MAX_RANK:
        raise ValueError("rank %d exceeds the dense cap" % len(labs))
    levels = [store.order.key(x) for x in labs]
    vals = np.empty((2,) * len(labs), dtype=complex)
    for bits in itertools.product((0, 1), repeat=len(labs)):
        vals[bits] = _evaluate(store, F.root, dict(zip(levels, bits)))
    return DenseTensor(tuple(labs), vals)


def reachable(store, targets):
    """Set of non-terminal node ids reachable from the given edge targets."""
    t0, t1 = store.t0, store.t1
    seen = {TERMINAL}
    stack = list(targets)
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack += (t0[t], t1[t])
    seen.discard(TERMINAL)
    return seen


def size(F):
    """Number of distinct non-terminal nodes reachable from the root."""
    return len(reachable(F.store, [F.root.target]))


@_operation
def export_dot(F):
    """Deterministic Graphviz text: dashed 0-edges, solid 1-edges.

    Weights are grid-rounded for display, like every other reported value.
    """
    store = F.store
    fmt = lambda w: format_weight(canonical(w, store.cfg))
    names = {}
    dfs_order = []

    def visit(t):
        if t == TERMINAL or t in names:
            return
        names[t] = "n%d" % len(dfs_order)
        dfs_order.append(t)
        _, _, t0, _, t1 = store.node(t)
        visit(t0)
        visit(t1)

    visit(F.root.target)
    lines = ["digraph tdd {"]
    lines.append('  start [shape=none, label=""];')
    for t in dfs_order:
        lines.append('  %s [label="%s"];' % (names[t], store.order.label(store.level[t])))
    lines.append('  t1 [shape=box, label="1"];')
    lines.append('  start -> %s [label="%s"];'
                 % (names.get(F.root.target, "t1"), fmt(F.root.weight)))
    for t in dfs_order:
        _, w0, t0, w1, t1 = store.node(t)
        for w, c, style in ((w0, t0, "dashed"), (w1, t1, "solid")):
            lines.append('  %s -> %s [style=%s, label="%s"];'
                         % (names[t], names.get(c, "t1"), style, fmt(w)))
    lines.append("}")
    return "\n".join(lines) + "\n"


@_operation
def relabel(F, mapping):
    """Rebuild F with indices renamed; mapping must be monotone for the order."""
    store = F.store
    okey = store.order.key
    levels = {okey(a): okey(b) for a, b in mapping.items()}
    old = sorted(set(map(okey, F.labels))
                 | {store.level[t] for t in reachable(store, [F.root.target])})
    mapped = [levels.get(k, k) for k in old]
    if mapped != sorted(set(mapped)):
        raise StoreError("relabel mapping is not monotone")
    memo = {TERMINAL: Edge(_ONE, TERMINAL)}

    def rb(t):
        e = memo.get(t)
        if e is None:
            level, w0, t0, w1, t1 = store.node(t)
            lo, hi = rb(t0), rb(t1)
            e = store.make_level_node(levels.get(level, level), lo.weight * w0, lo.target,
                                      hi.weight * w1, hi.target)
            memo[t] = e
        return e

    e = rb(F.root.target)
    w = e.weight * F.root.weight
    root = _ZERO_EDGE if is_zero(w, store.cfg) else Edge(w, e.target)
    return Tdd(store, root, frozenset(mapping.get(l, l) for l in F.labels))
