"""Hash-consed, edge-weighted decision diagrams over Boolean indices.

Every node constructed anywhere in the system goes through make_level_node
(make_node for callers holding an index label), which applies weight
normalization, zero-edge redirection, redundant-node collapse and
unique-table lookup in one place, so every diagram is reduced and canonical
at all times. Nodes store the integer level IndexOrder.key gives their index
label; labels appear only at the label-facing functions.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dense import MAX_RANK, DenseTensor, IndexOrder, slice_dense
from .numerics import DEFAULT_TOLERANCE, canonical, format_weight, is_zero, weights_equal

TERMINAL = 0

_ONE = complex(1.0, 0.0)
_ZERO = complex(0.0, 0.0)


class Edge(NamedTuple):
    weight: complex
    target: int


class Node(NamedTuple):
    """level is the store order's integer key of the node's index label."""

    level: int
    low: Edge
    high: Edge


# hot paths build Edge/Node values without NamedTuple's Python-level __new__
_new = tuple.__new__
_ZERO_EDGE = Edge(_ZERO, TERMINAL)


class StoreError(ValueError):
    pass


class DeadlineExceeded(RuntimeError):
    """Raised once a deadline has passed: by make_level_node for the store's,
    by the planner between steps for a plan's."""


# make_level_node reads the clock when a new node id is a multiple of this
DEADLINE_CHECK_IDS = 1 << 14


class NodeStore:
    """Owns the unique table, the computed caches and the index order.

    Node id 0 is the single terminal with value 1; nonzero terminal values
    live on the incoming edge weights, so the terminal never needs rewriting.

    deadline, when set, is an absolute time.monotonic() value: make_level_node
    raises DeadlineExceeded once it has passed, reading the clock once every
    DEADLINE_CHECK_IDS new node ids and before it changes anything, so the
    store stays sound for the caller that catches the error.
    """

    def __init__(self, order=None, cfg=None, gc_limit=1_000_000, cache_limit=2_000_000):
        self.order = order if order is not None else IndexOrder()
        self.cfg = cfg if cfg is not None else DEFAULT_TOLERANCE
        self.nodes = {}
        self.unique = {}
        self.add_cache = {}
        self.cont_cache = {}
        self.unique_hits = 0
        self.cache_hits_add = 0
        self.cache_hits_cont = 0
        self.peak_nodes = 0
        self.gc_limit = gc_limit
        self.cache_limit = cache_limit
        self.gc_runs = 0
        self._next = 1
        self.deadline = None
        if sys.getrecursionlimit() < 30000:
            sys.setrecursionlimit(30000)

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

    def scaled(self, e, c):
        """Edge e with its weight multiplied by c; near-zero snaps to the terminal.

        The product itself is kept at full precision: rounding in-flight
        weights would inject grid-pitch noise at every step, and two
        contraction orders of the same circuit would then disagree by whole
        grid cells. Only weights stored inside nodes are grid-rounded.
        """
        w = e.weight * c
        half = 0.5 * self.cfg.eps
        if -half <= w.real <= half and -half <= w.imag <= half:
            return _ZERO_EDGE
        return _new(Edge, (w, e.target))

    def node_key(self, level, e0, e1):
        """Unique-table key: child weights as integer grid cells, targets exact."""
        eps = self.cfg.eps
        w0 = e0.weight
        w1 = e1.weight
        return (level, round(w0.real / eps), round(w0.imag / eps), e0.target,
                round(w1.real / eps), round(w1.imag / eps), e1.target)

    def make_node(self, x, low, high):
        """make_level_node for the index label x."""
        return self.make_level_node(self.order.key(x), low, high)

    def _order_error(self, level, child):
        return StoreError("index %s does not precede child index %s"
                          % (self.order.label(level), self.order.label(self.nodes[child].level)))

    def make_level_node(self, level, low, high):
        """Canonicalizing node constructor over the integer level of an index.

        Returns an edge (w, n) with w * value(n) = xbar*w0*value(low) +
        x*w1*value(high), value(n) normal, and n unique in the store. The
        unique-table key rounds the child weights to the grid, but the node
        keeps the full-precision weights of its first insertion: weights that
        agree to within the grid pitch are interned to one representative, so
        arithmetic never sees a quantization step that could push two
        computations of the same quantity into different nodes.
        """
        eps = self.cfg.eps
        half = 0.5 * eps
        w0 = low.weight
        w1 = high.weight
        if -half <= w0.real <= half and -half <= w0.imag <= half:
            w0 = _ZERO
        if -half <= w1.real <= half and -half <= w1.imag <= half:
            w1 = _ZERO
        t0 = TERMINAL if w0 == 0 else low.target
        t1 = TERMINAL if w1 == 0 else high.target
        if t0 != TERMINAL and level >= self.nodes[t0].level:
            raise self._order_error(level, t0)
        if t1 != TERMINAL and level >= self.nodes[t1].level:
            raise self._order_error(level, t1)
        if w0 == 0 and w1 == 0:
            return _ZERO_EDGE
        # divide through by the dominant cofactor weight; near-ties keep the
        # 0-side, with a relative margin so the quotient stays within 1+2eps
        if w0 != 0 and (w1 == 0 or abs(w0) >= abs(w1) * (1.0 - eps)):
            w, n0, n1 = w0, _ONE, w1 / w0
        else:
            w, n0, n1 = w1, w0 / w1, _ONE
        if -half <= n0.real <= half and -half <= n0.imag <= half:
            n0, t0 = _ZERO, TERMINAL
        if -half <= n1.real <= half and -half <= n1.imag <= half:
            n1, t1 = _ZERO, TERMINAL
        e0 = _new(Edge, (n0, t0))
        e1 = _new(Edge, (n1, t1))
        if t0 == t1 and weights_equal(n0, n1, self.cfg):
            return _new(Edge, (w, t0))
        key = self.node_key(level, e0, e1)
        nid = self.unique.get(key)
        if nid is None:
            nid = self._next
            if (not nid % DEADLINE_CHECK_IDS and self.deadline is not None
                    and time.monotonic() > self.deadline):
                raise DeadlineExceeded("store deadline passed at node id %d" % nid)
            self._next += 1
            self.nodes[nid] = _new(Node, (level, e0, e1))
            self.unique[key] = nid
            if len(self.nodes) > self.peak_nodes:
                self.peak_nodes = len(self.nodes)
        else:
            self.unique_hits += 1
        return _new(Edge, (w, nid))

    def collect(self, roots, keep_below=1):
        """Drop every node unreachable from the given edge targets.

        Ids below keep_below survive unconditionally, so a caller can protect
        everything that existed before it started creating nodes (children
        always carry smaller ids than their parents, so survivors never
        reference a collected id). Node ids are never reused. The operation
        caches are cleared wholesale because entries may reference collected
        ids; they refill on the following operations. Only call between
        operations: an in-flight recursion holds edges the roots don't reach.
        """
        live = reachable(self, roots)
        self.nodes = {t: n for t, n in self.nodes.items() if t < keep_below or t in live}
        self.unique = {k: v for k, v in self.unique.items() if v < keep_below or v in live}
        self.add_cache.clear()
        self.cont_cache.clear()
        self.gc_runs += 1
        # raise the watermark when most nodes survive, so a mostly-live store
        # does not trigger a fruitless sweep on every following operation
        if len(self.nodes) * 2 > self.gc_limit:
            self.gc_limit = len(self.nodes) * 2
        return len(self.nodes)

    def stats(self):
        return {
            "live_nodes": len(self.nodes),
            "peak_nodes": self.peak_nodes,
            "unique_hits": self.unique_hits,
            "cache_hits_add": self.cache_hits_add,
            "cache_hits_cont": self.cache_hits_cont,
            "gc_runs": self.gc_runs,
        }


@dataclass
class Tdd:
    """A root edge into a store plus the labels the tensor is over.

    multiplicity counts tensor slots per label; a label occurring more than
    once marks a hyper edge (one decision level shared by several wire
    connections).
    """

    store: NodeStore
    root: Edge
    multiplicity: dict

    @property
    def labels(self):
        return self.store.order.sort(self.multiplicity)

    @property
    def weight(self):
        return self.root.weight


def _check_pair(F, G):
    if F.store is not G.store:
        raise StoreError("operands live in different stores")


def generate(store, phi, multiplicity=None):
    """Reduced diagram of a dense tensor whose indices are sorted for the store."""
    idx = list(phi.indices)
    if idx != store.order.sort(idx):
        raise StoreError("tensor indices not sorted for this store's order")
    root = _gen(store, phi)
    mult = dict(multiplicity) if multiplicity is not None else {x: 1 for x in idx}
    return Tdd(store, root, mult)


def _gen(store, phi):
    if phi.rank == 0:
        return store.terminal_edge(complex(phi.values))
    x = phi.indices[0]
    lo = _gen(store, slice_dense(phi, x, 0))
    hi = _gen(store, slice_dense(phi, x, 1))
    return store.make_node(x, lo, hi)


def _cofactors1(store, t, x):
    """Cofactors at level x of a weight-1 edge into t; reuses the stored child edges."""
    if t != TERMINAL:
        node = store.nodes[t]
        if node.level == x:
            return node.low, node.high
    e = _new(Edge, (_ONE, t))
    return e, e


def _top_level(store, ta, tb):
    """First level of the two roots; at most one of ta, tb is terminal."""
    if ta == TERMINAL:
        return store.nodes[tb].level
    xa = store.nodes[ta].level
    if tb == TERMINAL:
        return xa
    xb = store.nodes[tb].level
    return xa if xa <= xb else xb


def _add(store, ea, eb):
    if ea.weight == 0:
        return eb
    if eb.weight == 0:
        return ea
    if ea.target == eb.target:
        w = ea.weight + eb.weight
        return _ZERO_EDGE if is_zero(w, store.cfg) else _new(Edge, (w, ea.target))
    if eb.target < ea.target:
        ea, eb = eb, ea
    ta, tb = ea.target, eb.target
    # the cache key quantizes the weight ratio; the recursion itself uses the
    # full-precision ratio, so the first computation for a cell fixes the
    # cached edge that every later near-identical ratio re-uses
    ratio = eb.weight / ea.weight
    eps = store.cfg.eps
    key = (ta, tb, round(ratio.real / eps), round(ratio.imag / eps))
    hit = store.add_cache.get(key)
    if hit is not None:
        store.cache_hits_add += 1
        return store.scaled(hit, ea.weight)
    x = _top_level(store, ta, tb)
    a0, a1 = _cofactors1(store, ta, x)
    nb = store.nodes[tb] if tb != TERMINAL else None
    if nb is not None and nb.level == x:
        b0 = store.scaled(nb.low, ratio)
        b1 = store.scaled(nb.high, ratio)
    else:
        b0 = b1 = _new(Edge, (ratio, tb))
    res = store.make_level_node(x, _add(store, a0, b0), _add(store, a1, b1))
    store.add_cache[key] = res
    if len(store.add_cache) > store.cache_limit:
        store.add_cache.clear()
    return store.scaled(res, ea.weight)


def add(F, G):
    """Pointwise sum; operands must share one store."""
    _check_pair(F, G)
    mult = dict(F.multiplicity)
    for lab, m in G.multiplicity.items():
        mult[lab] = max(mult.get(lab, 0), m)
    return Tdd(F.store, _add(F.store, F.root, G.root), mult)


def _cont(store, ef, eg, var):
    """var: sorted tuple of the levels not yet summed on this branch."""
    wf = ef.weight
    if wf == 0:
        return _ZERO_EDGE
    wg = eg.weight
    if wg == 0:
        return _ZERO_EDGE
    tf, tg = ef.target, eg.target
    if tf == TERMINAL and tg == TERMINAL:
        w = wf * wg * (1 << len(var))
        return _ZERO_EDGE if is_zero(w, store.cfg) else _new(Edge, (w, TERMINAL))
    x = _top_level(store, tf, tg)
    # var levels preceding both roots can never be split below: each is a
    # constant dimension contributing a factor 2, so they peel off here
    k = 0
    while k < len(var) and var[k] < x:
        k += 1
    varkey = var[k:]
    scale = wf * wg * (1 << k)
    # nothing left to sum against a constant: the other operand is the answer
    if not varkey:
        if tf == TERMINAL:
            return store.scaled(_new(Edge, (_ONE, tg)), scale)
        if tg == TERMINAL:
            return store.scaled(_new(Edge, (_ONE, tf)), scale)
    key = (tf, tg, varkey)
    hit = store.cont_cache.get(key)
    if hit is not None:
        store.cache_hits_cont += 1
        return store.scaled(hit, scale)
    summing = bool(varkey) and varkey[0] == x
    rest = varkey[1:] if summing else varkey
    f0, f1 = _cofactors1(store, tf, x)
    g0, g1 = _cofactors1(store, tg, x)
    lo = _cont(store, f0, g0, rest)
    hi = _cont(store, f1, g1, rest)
    if summing:
        res = _add(store, lo, hi)
    else:
        res = store.make_level_node(x, lo, hi)
    store.cont_cache[key] = res
    # memoization only: dropping entries costs recomputation, never accuracy
    if len(store.cont_cache) > store.cache_limit:
        store.cont_cache.clear()
    return store.scaled(res, scale)


def contract(F, G, var):
    """Contract two diagrams over var; var may name labels absent from either."""
    _check_pair(F, G)
    store = F.store
    var = set(var)
    root = _cont(store, F.root, G.root, tuple(sorted(map(store.order.key, var))))
    mult = {}
    for src in (F.multiplicity, G.multiplicity):
        for lab, m in src.items():
            if lab not in var:
                mult[lab] = mult.get(lab, 0) + m
    return Tdd(store, root, mult)


def tensor_product(F, G):
    """Outer product: a contraction over no labels.

    Linear in the size of F when every F label precedes every G label: each
    F node is rebuilt once, and where F reaches its terminal, G's root is
    returned as it stands.
    """
    return contract(F, G, ())


def slice_tdd(F, x, c):
    """Fix index x of F to bit c; x must not lie below the root index."""
    store = F.store
    if F.root.target == TERMINAL:
        root = F.root
    else:
        node = store.nodes[F.root.target]
        level = store.order.key(x)
        if node.level == level:
            root = store.scaled(node.high if c else node.low, F.root.weight)
        elif level < node.level:
            root = F.root
        else:
            raise StoreError("cannot slice %s below the root index %s"
                             % (x, store.order.label(node.level)))
    mult = {l: m for l, m in F.multiplicity.items() if l != x}
    return Tdd(store, root, mult)


def evaluate(F, assignment):
    """Multiply the edge weights along the path the assignment selects.

    Indices with no node on the path contribute a factor 1; a hyper label is
    looked up once and applies to all its slots.
    """
    store = F.store
    w = F.root.weight
    t = F.root.target
    while t != TERMINAL and w != 0:
        node = store.nodes[t]
        x = store.order.label(node.level)
        if x not in assignment:
            raise KeyError("assignment missing %s" % (x,))
        e = node.high if assignment[x] else node.low
        w = w * e.weight
        t = e.target
    return canonical(w, store.cfg)


def to_dense(F, indices=None):
    """Evaluate F on every assignment of the given (or its own) label list."""
    labs = list(indices) if indices is not None else F.labels
    if len(labs) > MAX_RANK:
        raise ValueError("rank %d exceeds the dense cap" % len(labs))
    vals = np.empty((2,) * len(labs), dtype=complex)
    for bits in itertools.product((0, 1), repeat=len(labs)):
        vals[bits] = evaluate(F, dict(zip(labs, bits)))
    return DenseTensor(tuple(labs), vals)


def reachable(store, targets):
    """Set of non-terminal node ids reachable from the given edge targets."""
    seen = set()
    stack = [t for t in targets if t != TERMINAL]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        node = store.nodes[t]
        for e in (node.low, node.high):
            if e.target != TERMINAL and e.target not in seen:
                stack.append(e.target)
    return seen


def size(F):
    """Number of distinct non-terminal nodes reachable from the root."""
    return len(reachable(F.store, [F.root.target]))


def edge_count(F):
    return 1 + 2 * size(F)


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
        visit(store.nodes[t].low.target)
        visit(store.nodes[t].high.target)

    visit(F.root.target)
    lines = ["digraph tdd {"]
    lines.append('  start [shape=none, label=""];')
    for t in dfs_order:
        lines.append('  %s [label="%s"];' % (names[t], store.order.label(store.nodes[t].level)))
    lines.append('  t1 [shape=box, label="1"];')
    lines.append('  start -> %s [label="%s"];'
                 % (names.get(F.root.target, "t1"), fmt(F.root.weight)))
    for t in dfs_order:
        node = store.nodes[t]
        for e, style in ((node.low, "dashed"), (node.high, "solid")):
            lines.append('  %s -> %s [style=%s, label="%s"];'
                         % (names[t], names.get(e.target, "t1"), style, fmt(e.weight)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def relabel(F, mapping):
    """Rebuild F with indices renamed; mapping must be monotone for the order."""
    store = F.store
    okey = store.order.key
    levels = {okey(a): okey(b) for a, b in mapping.items()}
    old = sorted(set(map(okey, F.multiplicity))
                 | {store.nodes[t].level for t in reachable(store, [F.root.target])})
    mapped = [levels.get(k, k) for k in old]
    if mapped != sorted(set(mapped)):
        raise StoreError("relabel mapping is not monotone")
    memo = {TERMINAL: Edge(_ONE, TERMINAL)}

    def rb(t):
        e = memo.get(t)
        if e is None:
            n = store.nodes[t]
            e = store.make_level_node(
                levels.get(n.level, n.level),
                store.scaled(rb(n.low.target), n.low.weight),
                store.scaled(rb(n.high.target), n.high.weight),
            )
            memo[t] = e
        return e

    root = store.scaled(rb(F.root.target), F.root.weight)
    mult = {mapping.get(l, l): m for l, m in F.multiplicity.items()}
    return Tdd(store, root, mult)


def audit(store):
    """Return a list of invariant violations; an empty list means sound."""
    cfg = store.cfg
    problems = []
    for nid, node in store.nodes.items():
        w0, w1 = node.low.weight, node.high.weight
        if not (w0 == 1 or w1 == 1):
            problems.append("node %d: no unit edge weight" % nid)
        if abs(w0) > 1 + 2 * cfg.eps or abs(w1) > 1 + 2 * cfg.eps:
            problems.append("node %d: edge weight magnitude above 1" % nid)
        if is_zero(w0, cfg) and is_zero(w1, cfg):
            problems.append("node %d: represents the zero tensor" % nid)
        if node.low.target == node.high.target and weights_equal(w0, w1, cfg):
            problems.append("node %d: equal children, should have collapsed" % nid)
        for e in (node.low, node.high):
            if is_zero(e.weight, cfg) and e.target != TERMINAL:
                problems.append("node %d: zero-weight edge off the terminal" % nid)
            if e.target != TERMINAL:
                child = store.nodes.get(e.target)
                if child is None:
                    problems.append("node %d: dangling child" % nid)
                elif node.level >= child.level:
                    problems.append("node %d: index order violated" % nid)
        if store.unique.get(store.node_key(node.level, node.low, node.high)) != nid:
            problems.append("node %d: unique table mismatch" % nid)
    if len(store.unique) != len(store.nodes):
        problems.append("unique table size %d != node count %d" % (len(store.unique), len(store.nodes)))
    return problems
