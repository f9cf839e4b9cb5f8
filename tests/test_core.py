import cmath
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensordd import diagram
from tensordd.dense import DenseTensor, IndexLabel, IndexOrder, contract_dense
from tensordd.diagram import (
    TERMINAL,
    Edge,
    NodeStore,
    StoreError,
    Tdd,
    add,
    contract,
    evaluate,
    export_dot,
    generate,
    reachable,
    relabel,
    size,
    tensor_product,
    to_dense,
)

from util import audit

L = [IndexLabel(q, 0) for q in range(8)]


def rand_dense(rng, labels, boolean=False):
    n = 2 ** len(labels)
    if boolean:
        flat = [rng.randrange(2) for _ in range(n)]
    else:
        flat = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    return DenseTensor.from_flat(labels, flat)


def assert_matches(F, phi, tol=1e-9):
    got = to_dense(F, phi.indices)
    assert np.max(np.abs(got.values - phi.values)) <= tol


# --- store mechanics ---


def test_terminal_edge():
    store = NodeStore()
    assert store.terminal_edge(0.3j) == Edge(0.3j, TERMINAL)
    assert store.terminal_edge(1e-12) == Edge(0j, TERMINAL)
    assert store.terminal_edge(0) == Edge(0j, TERMINAL)


def test_make_node_zero_and_collapse():
    store = NodeStore()
    x0 = store.order.key(L[0])
    z = store.terminal_edge(0)
    one = store.terminal_edge(1)
    assert store.make_level_node(x0, *z, *z) == Edge(0j, TERMINAL)
    # equal cofactors: no node is created
    assert store.make_level_node(x0, *one, *one) == Edge(1 + 0j, TERMINAL)
    assert len(store.unique) == 0


def test_make_node_normalizes_dominant_weight():
    store = NodeStore()
    term = store.terminal_edge
    e = store.make_level_node(store.order.key(L[0]), *term(0.5), *term(-2j))
    assert e.weight == -2j
    _, w0, _, w1, _ = store.node(e.target)
    assert w1 == 1
    assert abs(w0) <= 1 + 2e-10
    assert not audit(store)


def test_make_node_hash_consing():
    store = NodeStore()
    x0, term = store.order.key(L[0]), store.terminal_edge
    a = store.make_level_node(x0, *term(1), *term(-1))
    b = store.make_level_node(x0, *term(2), *term(-2))
    assert a.target == b.target
    assert b.weight == 2
    assert store.unique_hits == 1
    assert len(store.unique) == 1


def test_make_node_interns_sub_grid_variants():
    store = NodeStore()
    x0, term = store.order.key(L[0]), store.terminal_edge
    a = store.make_level_node(x0, *term(1), *term(0.5))
    b = store.make_level_node(x0, *term(1), *term(0.5 + 1e-14))
    assert a.target == b.target
    assert len(store.unique) == 1


def test_make_node_rejects_order_violation():
    store = NodeStore()
    key, term = store.order.key, store.terminal_edge
    child = store.make_level_node(key(L[1]), *term(1), *term(-1))
    # the message names labels, not the integer levels nodes store
    with pytest.raises(StoreError, match=r"^index x2 does not precede child index x1$"):
        store.make_level_node(key(L[2]), *child, *term(1))


def test_generate_requires_sorted_indices():
    store = NodeStore()
    phi = DenseTensor.from_flat((L[1], L[0]), [1, 2, 3, 4])
    with pytest.raises(StoreError):
        generate(store, phi)


def test_cross_store_operations_rejected():
    s1, s2 = NodeStore(), NodeStore()
    F = generate(s1, rand_dense(random.Random(1), (L[0],)))
    G = generate(s2, rand_dense(random.Random(2), (L[0],)))
    with pytest.raises(StoreError):
        add(F, G)
    with pytest.raises(StoreError):
        contract(F, G, ())


def test_collect_drops_garbage_keeps_live():
    store = NodeStore()
    keep = generate(store, rand_dense(random.Random(3), tuple(L[:4])))
    base = len(store.level)
    for seed in range(5):
        generate(store, rand_dense(random.Random(10 + seed), tuple(L[:4])))
    dense_before = to_dense(keep)
    assert len(store.unique) > size(keep)
    survivors = store.collect(reachable(store, [keep.root.target]))
    assert survivors == size(keep)
    assert not audit(store)
    assert np.array_equal(to_dense(keep).values, dense_before.values)
    # keep_below protects earlier nodes even when unreachable from the roots
    generate(store, rand_dense(random.Random(30), tuple(L[:4])))
    store.collect([], keep_below=base)
    assert size(keep) == survivors
    assert not audit(store)


class RecordingCache(dict):
    """A computed table that records its insertions and its largest size, so
    a test can see what the kernel cached while a call ran."""

    def __init__(self):
        super().__init__()
        self.inserts = 0
        self.largest = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.inserts += 1
        self.largest = max(self.largest, len(self))


def recording_caches(store):
    store.add_cache = RecordingCache()
    store.cont_cache = RecordingCache()
    return store.add_cache, store.cont_cache


def test_bounded_caches(monkeypatch):
    monkeypatch.setattr(diagram, "CACHE_LIMIT", 50)
    store = NodeStore()
    caches = recording_caches(store)
    rng = random.Random(0)
    for seed in range(6):
        F = generate(store, rand_dense(rng, tuple(L[:5])))
        G = generate(store, rand_dense(rng, tuple(L[:5])))
        add(F, G)
        contract(F, G, (L[0], L[1]))
    for cache in caches:
        # the calls cached more than the limit, and no table ever held more
        assert cache.inserts > 50
        assert cache.largest <= 50


def test_caches_last_one_operation(monkeypatch):
    rng = random.Random(5)
    store = NodeStore()
    caches = recording_caches(store)
    F = generate(store, rand_dense(rng, tuple(L[:5])))
    G = generate(store, rand_dense(rng, tuple(L[:5])))
    H = generate(store, rand_dense(rng, tuple(L[5:8])))
    for op in (lambda: add(F, G), lambda: contract(F, G, (L[0], L[2])),
               lambda: tensor_product(F, H)):
        inserted = sum(c.inserts for c in caches)
        op()
        assert sum(c.inserts for c in caches) > inserted
        assert not any(caches)
    # a deadline that passes inside the contraction: the first deadline check
    # comes 8 new node ids into it, after entries were cached
    K = generate(store, rand_dense(rng, tuple(L[1:6])))
    monkeypatch.setattr(diagram, "DEADLINE_CHECK_IDS", len(store.level) + 8)
    store.deadline = 0.0
    inserted = sum(c.inserts for c in caches)
    with pytest.raises(diagram.PlanTimeout):
        contract(F, K, (L[1],))
    assert sum(c.inserts for c in caches) > inserted
    assert not any(caches)
    assert not audit(store)


# --- the flat store: packed unique key and recursion limit ---


class TupleKeyStore(NodeStore):
    """Reference store: the unique key as a 7-tuple of the level, both
    targets and the integer grid cells of both child weights."""

    def node_key(self, level, w0, t0, w1, t1):
        eps = self.cfg.eps
        return (level, round(w0.real / eps), round(w0.imag / eps), t0,
                round(w1.real / eps), round(w1.imag / eps), t1)


EPS = 1e-10


def _around(x):
    """x and its two floating-point neighbours."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# child weights: values on and next to grid-cell boundaries, several values
# in the grid cell of 1, and near-zero values on both sides of the snap
WEIGHTS = ([1, 1 + 0.3 * EPS, 1 - 0.3 * EPS, 0.5, 0.5 + 1e-14, -0.25, 0.25j,
            complex(0.6, -0.8), 0.7 * EPS, 0.4 * EPS, 0]
           + _around(1 + 0.5 * EPS) + _around(1 - 0.5 * EPS)
           + _around(0.5 + 0.5 * EPS) + [complex(0.5, x) for x in _around(0.5 * EPS)]
           + _around(-0.75 - 0.5 * EPS) + _around(0.5 * EPS))
SCALES = [1, 2, -1j, complex(0.6, 0.8), 1 + 0.2 * EPS]


def _key_fixture(store_cls):
    """A store over an inverse order (negative levels), its parent levels and
    its child targets: the terminal and three nodes."""
    order = IndexOrder(inverse=True)
    store = store_cls(order)
    key = lambda q, p: order.key(IndexLabel(q, p))
    one = (1 + 0j, TERMINAL)
    a = store.make_level_node(key(0, 5), *one, 0.5 + 0j, TERMINAL)
    b = store.make_level_node(key(0, 5), *one, -0.5j, TERMINAL)
    c = store.make_level_node(key(1, 0), 1 + 0j, a.target, 1 + 0j, b.target)
    return store, [key(2, 0), key(3, 7)], [TERMINAL, a.target, b.target, c.target]


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.integers(0, len(SCALES) - 1), st.integers(0, len(WEIGHTS) - 1),
                          st.integers(0, len(WEIGHTS) - 1), st.integers(0, 3),
                          st.integers(0, 3), st.integers(0, 1)),
                min_size=1, max_size=40))
def test_packed_key_interns_like_tuple_key(calls):
    # the same calls against the packed key and the reference key must give
    # the same edges: a node shares an id with an earlier one exactly when
    # their reference keys match
    packed, levels, targets = _key_fixture(NodeStore)
    ref, _, _ = _key_fixture(TupleKeyStore)
    for s, i, j, a, b, lv in calls:
        args = (levels[lv], SCALES[s] * WEIGHTS[i], targets[a], SCALES[s] * WEIGHTS[j], targets[b])
        got = packed.make_level_node(*args)
        want = ref.make_level_node(*args)
        assert (repr(got.weight), got.target) == (repr(want.weight), want.target)
    assert packed.unique_hits == ref.unique_hits
    assert len(packed.unique) == len(ref.unique)
    assert not audit(packed)


def test_packed_key_side_bit():
    # node_key takes the weights as stored: one of them exactly 1. Over every
    # such pair, including both weights in the cell of 1 on either side, the
    # packed keys are equal exactly when the reference keys are
    store, levels, targets = _key_fixture(NodeStore)
    ref = TupleKeyStore(store.order)
    cases = [(lv, w0, t0, w1, t1)
             for lv in levels for t0 in targets[:2] for t1 in targets[:2]
             for w in WEIGHTS for w0, w1 in ((1 + 0j, complex(w)), (complex(w), 1 + 0j))]
    packed_keys = [store.node_key(*c) for c in cases]
    ref_keys = [ref.node_key(*c) for c in cases]
    ids = {}
    for pk, rk in zip(packed_keys, ref_keys):
        assert ids.setdefault(rk, pk) == pk
    assert len(set(packed_keys)) == len(ids)


def test_audit_reports_unique_key_mismatch():
    store, _, targets = _key_fixture(NodeStore)
    t = targets[1]
    assert not audit(store)
    store.w1[t] += 3 * EPS  # moves the stored weight into another grid cell
    assert "node %d: unique table mismatch" % t in audit(store)


def test_recursion_limit_left_alone():
    before = sys.getrecursionlimit()
    store = NodeStore()
    assert sys.getrecursionlimit() == before
    F = generate(store, rand_dense(random.Random(8), tuple(L[:3])))
    contract(F, F, (L[1],))
    assert sys.getrecursionlimit() == before


def _phase_chain(store, depth, last):
    """A chain of depth nodes over qubit 0's first depth positions; at each
    the 0-child and 1-child are the next node, weighted 1 and exp(i/1000),
    or exp(i last) at the deepest position."""
    labels = [IndexLabel(0, p) for p in range(depth)]
    w, t = 1 + 0j, TERMINAL
    for x in reversed(labels):
        phase = last if x is labels[-1] else 1e-3
        w, t = store.make_level_node(store.order.key(x), w, t, w * cmath.exp(1j * phase), t)
    return Tdd(store, Edge(w, t), frozenset(labels))


def test_deep_chain_add_and_contract():
    # the kernel recurses one frame per level: 2,000 levels overflow a
    # limit of 1,000 unless the entry points raise it while they run. F and
    # G differ at the deepest level only, so add recurses all the way down
    depth = 2000
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        store = NodeStore()
        F = _phase_chain(store, depth, 1e-3)
        G = _phase_chain(store, depth, 0.5)
        S = add(F, G)
        P = contract(F, G, ())
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)
    assert size(F) == size(S) == size(P) == depth
    zeros = dict.fromkeys(F.labels, 0)
    ones = dict.fromkeys(F.labels, 1)
    f1, g1 = cmath.exp(2j), cmath.exp(2.499j)
    assert abs(evaluate(S, zeros) - 2) < 1e-9
    assert abs(evaluate(S, ones) - (f1 + g1)) < 1e-9
    assert abs(evaluate(P, zeros) - 1) < 1e-9
    assert abs(evaluate(P, ones) - f1 * g1) < 1e-9
    assert not audit(store)


# --- diagram/tensor agreement ---


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 9), st.integers(0, 5), st.booleans())
def test_generate_roundtrip(seed, rank, boolean):
    rng = random.Random(seed)
    phi = rand_dense(rng, tuple(L[:rank]), boolean)
    for order in (IndexOrder(), IndexOrder(True)):
        labels = tuple(order.sort(phi.indices))
        axes = [phi.indices.index(x) for x in labels]
        psi = DenseTensor(labels, np.transpose(phi.values, axes))
        store = NodeStore(order)
        F = generate(store, psi)
        assert_matches(F, phi)
        assert not audit(store)
        # the same nodes, ids and first-insertion weights as cofactoring one
        # label at a time with np.take
        ref = NodeStore(order)
        assert F.root == _slice_generate(ref, labels, psi.values)
        for name in ("level", "w0", "t0", "w1", "t1"):
            assert getattr(store, name) == getattr(ref, name)


def _slice_generate(store, labels, values):
    if not labels:
        return store.terminal_edge(complex(values))
    lo, hi = (_slice_generate(store, labels[1:], np.take(values, b, axis=0)) for b in (0, 1))
    return store.make_level_node(store.order.key(labels[0]), *lo, *hi)


def test_generate_zero_tensor():
    store = NodeStore()
    F = generate(store, DenseTensor.from_flat(tuple(L[:3]), [0] * 8))
    assert F.root == Edge(0j, TERMINAL)
    assert size(F) == 0


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 9))
def test_add_matches_dense(seed):
    rng = random.Random(seed)
    store = NodeStore()
    labs = tuple(L[:rng.randrange(1, 5)])
    pa, pb = rand_dense(rng, labs), rand_dense(rng, labs)
    F, G = generate(store, pa), generate(store, pb)
    H = add(F, G)
    assert_matches(H, DenseTensor(labs, pa.values + pb.values))
    assert not audit(store)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 9))
def test_contract_matches_dense(seed):
    rng = random.Random(seed)
    store = NodeStore()
    universe = L[:6]
    fl = tuple(sorted(rng.sample(range(6), rng.randrange(1, 5))))
    gl = tuple(sorted(rng.sample(range(6), rng.randrange(1, 5))))
    flabs = tuple(universe[i] for i in fl)
    glabs = tuple(universe[i] for i in gl)
    var = {universe[i] for i in range(6) if rng.random() < 0.4}
    pf, pg = rand_dense(rng, flabs), rand_dense(rng, glabs)
    F, G = generate(store, pf), generate(store, pg)
    H = contract(F, G, var)
    want = contract_dense(pf, pg, var)
    assert_matches(H, want, tol=1e-8)
    assert H.labels == set(want.indices)
    assert not audit(store)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 9))
def test_tensor_product_matches_dense(seed):
    rng = random.Random(seed)
    store = NodeStore()
    k = rng.randrange(1, 4)
    flabs = tuple(L[:k])
    glabs = tuple(L[k:k + rng.randrange(1, 3)])
    pf, pg = rand_dense(rng, flabs), rand_dense(rng, glabs)
    F, G = generate(store, pf), generate(store, pg)
    H = tensor_product(F, G)
    want = np.multiply.outer(pf.values, pg.values).reshape((2,) * (len(flabs) + len(glabs)))
    assert_matches(H, DenseTensor(flabs + glabs, want))
    assert not audit(store)


@pytest.mark.parametrize("var", [(), (L[0],)], ids=["no-var", "var-above-root"])
def test_contract_with_constant_returns_other_operand(var):
    # with one operand constant and nothing left to sum below the root, the
    # kernel returns the other operand as it stands: no node is looked up,
    # made or cached
    rng = random.Random(3)
    store = NodeStore()
    pf = rand_dense(rng, tuple(L[1:6]))
    F = generate(store, pf)
    pc = DenseTensor.constant(0.5j)
    c = generate(store, pc)
    caches = recording_caches(store)
    before = (store.unique_hits, len(store.unique))
    for a, b in ((F, c), (c, F)):
        H = contract(a, b, var)
        assert H.root.target == F.root.target
        assert (store.unique_hits, len(store.unique)) == before
        assert [table.inserts for table in caches] == [0, 0]
        assert_matches(H, contract_dense(pf, pc, set(var)))


def test_tensor_product_interleaved_falls_back():
    rng = random.Random(7)
    store = NodeStore()
    pf = rand_dense(rng, (L[0], L[2]))
    pg = rand_dense(rng, (L[1], L[3]))
    F, G = generate(store, pf), generate(store, pg)
    H = tensor_product(F, G)
    want = contract_dense(pf, pg, set())
    assert_matches(H, want)


def test_evaluate_requires_full_assignment():
    store = NodeStore()
    F = generate(store, rand_dense(random.Random(2), (L[0], L[1])))
    with pytest.raises(KeyError):
        evaluate(F, {L[0]: 1})


def test_evaluate_is_grid_rounded():
    store = NodeStore()
    F = generate(store, DenseTensor.from_flat((L[0],), [0.25 + 3e-11, 1]))
    assert evaluate(F, {L[0]: 0}) == 0.25


def test_relabel():
    store = NodeStore()
    phi = rand_dense(random.Random(4), (L[0], L[1]))
    F = generate(store, phi)
    mapping = {L[0]: IndexLabel(0, 1), L[1]: IndexLabel(5, 0)}
    G = relabel(F, mapping)
    assert_matches(G, DenseTensor((mapping[L[0]], mapping[L[1]]), phi.values))
    with pytest.raises(StoreError):
        relabel(F, {L[0]: L[7]})  # swaps the relative order


def test_reachable_and_size():
    store = NodeStore()
    F = generate(store, rand_dense(random.Random(5), tuple(L[:3])))
    live = reachable(store, [F.root.target])
    assert len(live) == size(F)
    # node() raises KeyError for an id that is not live
    assert all(store.node(t) for t in live)


def test_sum_cancellation_gives_zero_edge():
    store = NodeStore()
    phi = rand_dense(random.Random(6), (L[0], L[1]))
    F = generate(store, phi)
    G = generate(store, DenseTensor((L[0], L[1]), -phi.values))
    H = add(F, G)
    assert H.root == Edge(0j, TERMINAL)


def test_export_dot_shape():
    store = NodeStore()
    h = DenseTensor.from_flat((L[0], L[1]), np.array([1, 1, 1, -1]) / math.sqrt(2))
    text = export_dot(generate(store, h))
    assert text.startswith("digraph tdd {")
    assert text.rstrip().endswith("}")
    assert 'style=dashed' in text and 'style=solid' in text
    assert '"0.707107"' in text
    # deterministic output
    assert text == export_dot(generate(store, h))
