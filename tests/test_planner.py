import hashlib
import itertools
import math
import random
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from tensordd import diagram, planner
from tensordd.circuit import (Circuit, allocate_indices, inverse_gate, parse_qasm,
                              parse_qasm_file, unitary_as_dense)
from tensordd.dense import DenseTensor
from tensordd.diagram import NodeStore, to_dense
from tensordd.numerics import weights_equal
from tensordd.planner import (
    PartitionConfig,
    PlanError,
    PlanTimeout,
    execute_plan,
    partition,
    partition_miter,
    plan_circuit,
    plan_from_parts,
)

from util import audit, random_circuit

DEMO = "circuits/partition_demo.qasm"


def store_with_gc_limit(order, gc_limit):
    store = NodeStore(order)
    store.gc_limit = gc_limit
    return store


def build(circ, scheme="seq", store=None, **kw):
    net = allocate_indices(circ)
    plan = plan_circuit(net, PartitionConfig(scheme, **kw))
    if store is None:
        store = NodeStore(net.order)
    return net, store, execute_plan(plan, store)


# --- configuration ---


def test_resolve_defaults():
    cfg = PartitionConfig("p1").resolve(8)
    assert (cfg.k, cfg.k2) == (4, 5)
    cfg = PartitionConfig("p2").resolve(3)
    assert (cfg.k, cfg.k2) == (1, 2)


@pytest.mark.parametrize("cfg", [
    PartitionConfig("frobnicate"),
    PartitionConfig("p1", k=0),
    PartitionConfig("p2", k=0),
    PartitionConfig("p2", k2=1),
])
def test_resolve_rejects(cfg):
    with pytest.raises(PlanError):
        cfg.resolve(4)


# --- partitioning ---


def parts_cover_each_gate_once(parts, circ):
    roles = Counter()
    for p in parts:
        for pos, role in p.items:
            roles[pos, role] += 1
    for i, g in enumerate(circ.gates):
        if (i, "copy") in roles:
            assert roles[i, "copy"] == 1 and roles[i, "xor"] == 1
            assert (i, "whole") not in roles
        else:
            assert roles[i, "whole"] == 1


def test_partition_demo_part_counts():
    circ = parse_qasm_file(DEMO)
    assert len(partition(circ, PartitionConfig("seq"))) == 1
    p1a = partition(circ, PartitionConfig("p1", k=1))
    p1b = partition(circ, PartitionConfig("p1", k=2))
    p2 = partition(circ, PartitionConfig("p2", k=1, k2=2))
    assert len(p1a) == 4 and len(p1b) == 2 and len(p2) == 5
    for parts in (p1a, p1b, p2):
        parts_cover_each_gate_once(parts, circ)
    # both crossing CXs are split; control side takes the copy half
    a0 = next(p for p in p1a if (p.region, p.segment) == ("A", 0))
    b1 = next(p for p in p1a if (p.region, p.segment) == ("B", 1))
    assert (7, "copy") in a0.items and (8, "copy") in b1.items
    # scheme 2 keeps its second crossing CX whole inside the middle block
    c0 = next(p for p in p2 if p.region == "C")
    assert c0.items == [(8, "whole")]


def test_partition_non_cx_crossing_goes_with_last_wire():
    circ = parse_qasm("OPENQASM 2.0;\nqreg q[4];\nswap q[2],q[1];\ncz q[1],q[2];")
    parts = partition(circ, PartitionConfig("p1", k=1))
    sides = {pos: p.region for p in parts for pos, _ in p.items}
    assert sides[0] == "A"   # swap's last wire is q[1], above the cut
    assert sides[1] == "B"   # cz's last wire is q[2], below the cut


@pytest.mark.parametrize("seed", range(6))
def test_partition_random_covers(seed):
    rng = random.Random(seed)
    circ = random_circuit(rng, rng.randint(2, 7), rng.randint(0, 25))
    for cfg in (PartitionConfig("p1"), PartitionConfig("p2")):
        parts_cover_each_gate_once(partition(circ, cfg), circ)


# the parts of 200 seeded random circuits under each config below, hashed;
# recorded when p1 and p2 were still two separate passes
PINNED_PARTS_SHA256 = "a7beb3f78b78b7df598af01566a113e6d3f9c34574338e02657e362485ceb50f"


def test_partition_pinned():
    configs = ([PartitionConfig(s) for s in ("seq", "p1", "p2")]
               + [PartitionConfig("p1", k=k) for k in (1, 2, 3)]
               + [PartitionConfig("p2", k=k, k2=k2)
                  for k, k2 in ((1, 2), (1, 3), (2, 2), (2, 4), (3, 3))])
    rng = random.Random(2024)
    parts = []
    for _ in range(200):
        circ = random_circuit(rng, rng.randint(2, 9), rng.randint(0, 40))
        for cfg in configs:
            parts.append([(p.region, p.segment, p.items) for p in partition(circ, cfg)])
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == PINNED_PARTS_SHA256


# --- plan shape ---


# the steps of 60 seeded random circuits' plans under each config of
# test_partition_pinned, hashed: each operand as a leaf's labels and values or
# an earlier step's index, then var, mnr and tag; recorded when leaves still
# carried per-label slot counts
PINNED_PLAN_SHA256 = "a1d5b5a0cec4717e021cd4ab9e4bd60618ced43981f712e01b7fc10ad6e0d52c"


def test_plan_pinned():
    configs = ([PartitionConfig(s) for s in ("seq", "p1", "p2")]
               + [PartitionConfig("p1", k=k) for k in (1, 2, 3)]
               + [PartitionConfig("p2", k=k, k2=k2)
                  for k, k2 in ((1, 2), (1, 3), (2, 2), (2, 4), (3, 3))])
    rng = random.Random(2025)
    digest = hashlib.sha256()
    for _ in range(60):
        net = allocate_indices(random_circuit(rng, rng.randint(2, 9), rng.randint(0, 40)))
        for cfg in configs:
            steps = plan_circuit(net, cfg).steps
            index = {id(node): i for i, node in enumerate(steps)}

            def operand(x):
                if isinstance(x, DenseTensor):
                    return x.indices, x.values.tobytes()
                return index[id(x)]

            for node in steps:
                digest.update(repr((operand(node.left), operand(node.right),
                                    node.var, node.mnr, node.tag)).encode())
            digest.update(b";")
    assert digest.hexdigest() == PINNED_PLAN_SHA256


def leaves_in_order(x):
    if isinstance(x, DenseTensor):
        return [x]
    return leaves_in_order(x.left) + leaves_in_order(x.right)


def assert_ranks_match_brute_force(circ, plan, net):
    """Recount every step's (m, n, r) from the plain network: each wire
    segment (q, p) between the p-th and (p+1)-th gate on wire q, and one bond
    per split CX. An operand's label is open when it is a wire end or has a
    holder outside the operand."""
    items = [item for part in plan.parts for item in part.items]
    leaves = leaves_in_order(plan.root)
    assert len(leaves) == max(1, len(items))
    seen = Counter()
    wires = []   # per gate, {qubit: (segment before, segment after)}
    for g in circ.gates:
        wires.append({q: ((q, seen[q]), (q, seen[q] + 1)) for q in g.qubits})
        seen.update(g.qubits)
    ends = {(q, 0) for q in range(circ.n_qubits)} | {(q, seen[q]) for q in range(circ.n_qubits)}
    plain = {}   # id(leaf) -> its plain labels
    for leaf, (pos, role) in zip(leaves, items):
        g = circ.gates[pos]
        if role == "whole":
            assert leaf is net.tensors[pos]
            plain[id(leaf)] = {l for q in g.qubits for l in wires[pos][q]}
        else:
            assert leaf is net.tensors[pos] if role == "xor" else len(leaf.indices) == 0
            q = g.qubits[0] if role == "copy" else g.qubits[1]
            plain[id(leaf)] = set(wires[pos][q]) | {("bond", pos)}
    holders = {}
    for i, labels in plain.items():
        for l in labels:
            holders.setdefault(l, set()).add(i)

    def open_plain(x):
        under = {id(leaf) for leaf in leaves_in_order(x)}
        labels = set().union(*(plain[i] for i in under))
        return {l for l in labels if l in ends or holders[l] - under}

    for node in plan.steps:
        lp, rp = open_plain(node.left), open_plain(node.right)
        assert node.mnr == (len(lp), len(rp), len(lp & rp))


def test_plan_ranks_match_brute_force():
    rng = random.Random(2026)
    for _ in range(30):
        circ = random_circuit(rng, rng.randint(2, 6), rng.randint(0, 25))
        net = allocate_indices(circ)
        for cfg in (PartitionConfig("seq"), PartitionConfig("p1"), PartitionConfig("p2")):
            assert_ranks_match_brute_force(circ, plan_circuit(net, cfg), net)
        b = random_circuit(rng, circ.n_qubits, rng.randint(0, 25))
        miter = Circuit(circ.n_qubits, circ.gates + tuple(inverse_gate(g) for g in reversed(b.gates)))
        net = allocate_indices(miter)
        plan = plan_from_parts(net, partition_miter(len(circ.gates), len(b.gates)))
        assert_ranks_match_brute_force(miter, plan, net)


def test_plan_step_count_is_leaves_minus_one():
    circ = parse_qasm_file(DEMO)
    net = allocate_indices(circ)
    for cfg, cuts in [(PartitionConfig("seq"), 0),
                      (PartitionConfig("p1", k=1), 2),
                      (PartitionConfig("p2", k=1, k2=2), 1)]:
        plan = plan_circuit(net, cfg)
        assert len(plan.steps) == len(circ.gates) + cuts - 1


def test_partition_miter_runs_outward_in_proportion():
    # 3 gates of A (0-2), then 6 of B's inverse (3-8): B is taken twice as often
    def order(n_a, n_b):
        (part,) = partition_miter(n_a, n_b)
        assert {role for _, role in part.items} <= {"whole"}
        return [pos for pos, _ in part.items]

    assert order(3, 6) == [2, 3, 4, 1, 5, 6, 0, 7, 8]
    assert order(0, 2) == [0, 1]
    assert order(2, 0) == [1, 0]
    assert order(0, 0) == []


@pytest.mark.parametrize("seed", range(4))
def test_miter_plan_sums_every_label_once(seed):
    rng = random.Random(seed)
    a = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 15))
    b = random_circuit(rng, a.n_qubits, rng.randint(0, 15))
    miter = Circuit(a.n_qubits, a.gates + tuple(inverse_gate(g) for g in reversed(b.gates)))
    net = allocate_indices(miter)
    # plan_from_parts raises PlanError when a label is summed twice or never
    plan = plan_from_parts(net, partition_miter(len(a.gates), len(b.gates)))
    summed = [l for node in plan.steps for l in node.var]
    internal = {l for t in net.tensors for l in t.indices} - net.open_labels()
    assert len(summed) == len(set(summed)) and set(summed) == internal
    tdd, _ = execute_plan(plan, NodeStore(net.order))
    labels = tuple(net.order.sort(net.open_labels()))
    got = to_dense(tdd, labels).values
    assert np.max(np.abs(got - unitary_as_dense(miter, net).values)) <= 1e-9


# --- execution ---


def test_execute_empty_circuit():
    net, store, (tdd, stats) = build(parse_qasm("OPENQASM 2.0;\nqreg q[2];"))
    assert tdd.root.weight == 1 and tdd.root.target == 0
    assert stats["final_nodes"] == 0


# DENSE_RANK 0 runs every step on the diagram kernel
@pytest.mark.parametrize("scheme,dense_rank",
                         [pytest.param(s, r, id=s if r else s + "-diagram")
                          for r in (planner.DENSE_RANK, 0) for s in ("seq", "p1", "p2")])
def test_execute_matches_oracle(monkeypatch, scheme, dense_rank):
    monkeypatch.setattr(planner, "DENSE_RANK", dense_rank)
    rng = random.Random(31)
    for _ in range(8):
        circ = random_circuit(rng, rng.randint(2, 5), rng.randint(1, 20))
        net, store, (tdd, stats) = build(circ, scheme)
        if not dense_rank:
            assert not any(s.get("dense") for s in stats["steps"])
        labels = tuple(net.order.sort(net.open_labels()))
        ref = unitary_as_dense(circ, net)
        got = to_dense(tdd, labels)
        assert np.max(np.abs(got.values - ref.values)) < 1e-9
        assert not audit(store)
        assert stats["final_nodes"] >= 0 and stats["peak_nodes"] >= stats["final_nodes"]


def test_schemes_share_canonical_root():
    rng = random.Random(77)
    for _ in range(5):
        circ = random_circuit(rng, rng.randint(4, 6), rng.randint(5, 30))
        net = allocate_indices(circ)
        store = NodeStore(net.order)
        roots = []
        for scheme in ("seq", "p1", "p2"):
            tdd, _ = execute_plan(plan_circuit(net, PartitionConfig(scheme)), store)
            roots.append(tdd.root)
        assert len({r.target for r in roots}) == 1
        assert all(weights_equal(r.weight, roots[0].weight) for r in roots)
        assert not audit(store)


def test_audit_clean_after_builds_and_collect():
    rng = random.Random(57)
    first = allocate_indices(random_circuit(rng, 6, 40))
    store = NodeStore(first.order)
    kept, _ = execute_plan(plan_circuit(first, PartitionConfig("seq")), store)
    base = len(store.level)
    below = len(store.unique)
    net = allocate_indices(random_circuit(rng, 6, 40))
    roots = []
    for scheme in ("seq", "p1", "p2"):
        tdd, _ = execute_plan(plan_circuit(net, PartitionConfig(scheme)), store)
        roots.append(tdd.root)
        assert not audit(store)
    assert len({r.target for r in roots}) == 1
    # everything below base stays; above it, only what the last root reaches
    live = store.collect(diagram.reachable(store, [roots[-1].target]), keep_below=base)
    assert not audit(store)
    assert live == below + len({t for t in diagram.reachable(store, [roots[-1].target]) if t >= base})
    top = len(store.level)
    dead = store.level[base:].count(None)
    assert dead == top - base - (live - below)
    # a swept id is not reused: new nodes take ids from top on
    tdd, _ = execute_plan(plan_circuit(first, PartitionConfig("p1")), store)
    assert tdd.root.target == kept.root.target
    assert len(store.level) > top and store.level[base:top].count(None) == dead
    assert not audit(store)


def test_execute_deadline(monkeypatch):
    circ = random_circuit(random.Random(3), 5, 30)
    net = allocate_indices(circ)
    plan = plan_circuit(net, PartitionConfig("seq"))
    with pytest.raises(PlanTimeout):
        execute_plan(plan, NodeStore(net.order), deadline=time.monotonic() - 1.0)

    # a deadline that passes in the middle of one contraction step: the
    # store's clock jumps past it when that step starts, while the planner's
    # between-step check reads the real clock against a deadline an hour away
    store = NodeStore(net.order)
    now = [-math.inf]
    armed = sum(1 for node in plan.steps if node.var) // 2
    calls = []
    real_contract = planner.contract

    def contract(F, G, var):
        calls.append("start")
        if calls.count("start") == armed:
            now[0] = math.inf
        res = real_contract(F, G, var)
        calls.append("end")
        return res

    monkeypatch.setattr(planner, "contract", contract)
    monkeypatch.setattr(diagram, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(diagram, "DEADLINE_CHECK_IDS", 1)
    with pytest.raises(PlanTimeout) as info:
        execute_plan(plan, store, deadline=time.monotonic() + 3600.0)
    assert str(info.value).startswith("store deadline passed at node id ")
    assert calls.count("start") == armed and calls[-1] == "start"
    assert store.deadline is None
    assert not audit(store)

    # the store stays usable: the same plan now runs to the oracle's result
    monkeypatch.undo()
    tdd, _ = execute_plan(plan, store)
    got = to_dense(tdd, tuple(net.order.sort(net.open_labels())))
    assert np.max(np.abs(got.values - unitary_as_dense(circ, net).values)) < 1e-9
    assert not audit(store)


def test_execute_gc_between_steps():
    circ = random_circuit(random.Random(41), 6, 60)
    net = allocate_indices(circ)
    plan = plan_circuit(net, PartitionConfig("p1"))
    store = store_with_gc_limit(net.order, 200)
    tdd, stats = execute_plan(plan, store)
    assert store.gc_runs > 0
    assert not audit(store)
    ref = unitary_as_dense(circ, net)
    got = to_dense(tdd, tuple(net.order.sort(net.open_labels())))
    assert np.max(np.abs(got.values - ref.values)) < 1e-9


def test_default_gc_limit_bounds_a_long_build(monkeypatch):
    # a long 4-qubit build makes about twice GC_LIMIT nodes, almost all
    # garbage: it sweeps, and the store never holds more than GC_LIMIT plus
    # what one step makes
    monkeypatch.setattr(planner, "DENSE_RANK", 0)
    circ = random_circuit(random.Random(3), 4, 200)
    net = allocate_indices(circ)
    store = NodeStore(net.order)
    ends = []  # (ids ever made, nodes held) at the end of each step

    def recorded(op):
        def run(*args):
            res = op(*args)
            ends.append((len(store.level), len(store.unique)))
            return res
        return run

    for name in ("contract", "tensor_product"):
        monkeypatch.setattr(planner, name, recorded(getattr(planner, name)))
    tdd, _ = execute_plan(plan_circuit(net, PartitionConfig("seq")), store)
    made = max(b[0] - a[0] for a, b in zip([(1, 0)] + ends, ends))
    held = max(h for _, h in ends)
    assert store.gc_runs > 0 and store.gc_limit == diagram.GC_LIMIT
    assert held <= diagram.GC_LIMIT + made
    assert store.stats()["peak_nodes"] == held
    got = to_dense(tdd, tuple(net.order.sort(net.open_labels())))
    assert np.max(np.abs(got.values - unitary_as_dense(circ, net).values)) < 1e-9
    assert not audit(store)


def test_gc_protects_results_already_in_the_store():
    circ = random_circuit(random.Random(8), 5, 25)
    net = allocate_indices(circ)
    store = store_with_gc_limit(net.order, 200)
    first, _ = execute_plan(plan_circuit(net, PartitionConfig("seq")), store)
    dense_before = to_dense(first).values
    execute_plan(plan_circuit(net, PartitionConfig("p1")), store)
    assert store.gc_runs > 0
    assert np.array_equal(to_dense(first).values, dense_before)
    assert not audit(store)


def test_timeout_sweeps_what_the_plan_made(monkeypatch):
    circ = random_circuit(random.Random(0), 7, 40)
    net = allocate_indices(circ)
    plan = plan_circuit(net, PartitionConfig("p1"))
    earlier = plan_circuit(allocate_indices(random_circuit(random.Random(100), 7, 12)),
                           PartitionConfig("seq"))

    def store_with_earlier_result():
        store = store_with_gc_limit(net.order, 200)
        execute_plan(earlier, store)
        return store

    for check in ("store", "planner"):
        store = store_with_earlier_result()
        before = len(store.unique)
        # the clock passes the deadline when a late contraction step starts:
        # inside that step through the store, or at the next between-step
        # check through the planner
        now = [-math.inf]
        armed = sum(1 for node in plan.steps if node.var) * 3 // 4
        calls = []
        real_contract = planner.contract

        def contract(F, G, var):
            calls.append(var)
            if len(calls) == armed:
                now[0] = math.inf
            return real_contract(F, G, var)

        clock = SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(planner, "contract", contract)
        if check == "store":
            monkeypatch.setattr(diagram, "time", clock)
            monkeypatch.setattr(diagram, "DEADLINE_CHECK_IDS", 1)
        else:
            monkeypatch.setattr(planner, "time", SimpleNamespace(
                monotonic=clock.monotonic, perf_counter=time.perf_counter))
        with pytest.raises(PlanTimeout):
            execute_plan(plan, store, deadline=time.monotonic() + 3600.0)
        monkeypatch.undo()
        assert len(calls) == armed
        assert len(store.unique) == before
        assert not audit(store)

        # a rerun leaves the store as it leaves one that never timed out
        execute_plan(plan, store)
        fresh = store_with_earlier_result()
        execute_plan(plan, fresh)
        assert len(store.unique) == len(fresh.unique)
        assert not audit(store)


def brute_reachable(store, roots):
    seen = set()
    stack = [t for t in roots if t != diagram.TERMINAL]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            _, _, t0, _, t1 = store.node(t)
            stack.extend(c for c in (t0, t1) if c != diagram.TERMINAL)
    return seen


def run_recording_live_sets(monkeypatch, plan, store):
    """Execute plan with every step on the diagram path; returns (result,
    stats, expected peak, expected step nodes), the expectations counted by
    brute force while the plan runs."""
    live = []      # values made and not yet consumed, by identity
    samples = [0]  # live union sizes before and after every kernel step
    kernel = []    # node counts of the kernel results, in call order

    def union():
        samples.append(len(brute_reachable(store, [v.root.target for v in live])))

    def generate(s, dense):
        value = real_generate(s, dense)
        live.append(value)
        return value

    def step(fn):
        def run(F, G, *args):
            union()
            live[:] = [v for v in live if v is not F and v is not G]
            res = fn(F, G, *args)
            live.append(res)
            kernel.append(len(brute_reachable(store, [res.root.target])))
            union()
            return res
        return run

    real_generate = planner.generate
    monkeypatch.setattr(planner, "DENSE_RANK", 0)
    monkeypatch.setattr(planner, "generate", generate)
    monkeypatch.setattr(planner, "contract", step(planner.contract))
    monkeypatch.setattr(planner, "tensor_product", step(planner.tensor_product))
    result, stats = execute_plan(plan, store)
    monkeypatch.undo()
    final = len(brute_reachable(store, [result.root.target]))
    # every plan step is one kernel call
    assert len(kernel) == len(plan.steps)
    return result, stats, max(max(samples), final), kernel


@pytest.mark.parametrize("scheme", ["seq", "p1", "p2"])
def test_live_peak_is_exact(monkeypatch, scheme):
    rng = random.Random(53)
    cases = [(random_circuit(rng, rng.randint(4, 6), rng.randint(5, 30)), 1_000_000)
             for _ in range(4)]
    cases.append((random_circuit(random.Random(41), 6, 60), 200))
    for circ, gc_limit in cases:
        net = allocate_indices(circ)
        plan = plan_circuit(net, PartitionConfig(scheme))
        store = store_with_gc_limit(net.order, gc_limit)
        result, stats, peak, nodes = run_recording_live_sets(monkeypatch, plan, store)
        assert stats["peak_nodes"] == peak
        assert [s["nodes"] for s in stats["steps"]] == nodes
        assert stats["final_nodes"] == len(brute_reachable(store, [result.root.target]))
        if gc_limit == 200:
            assert store.gc_runs > 0


@pytest.mark.parametrize("text", ["qreg q[3];", "qreg q[3];\nh q[1];", "qreg q[2];\ncx q[0],q[1];"])
def test_live_peak_of_trivial_plans(monkeypatch, text):
    net = allocate_indices(parse_qasm("OPENQASM 2.0;\n" + text))
    plan = plan_circuit(net, PartitionConfig("seq"))
    assert plan.steps == [] and isinstance(plan.root, DenseTensor)
    store = NodeStore(net.order)
    result, stats, peak, nodes = run_recording_live_sets(monkeypatch, plan, store)
    assert stats["steps"] == [] and nodes == []
    assert stats["peak_nodes"] == stats["final_nodes"] == peak


# --- dense steps ---


def test_dense_and_diagram_paths_share_one_root(monkeypatch):
    rng = random.Random(61)
    for _ in range(12):
        net = allocate_indices(random_circuit(rng, rng.randint(2, 6), rng.randint(1, 30)))
        store = NodeStore(net.order)
        roots = [execute_plan(plan_circuit(net, PartitionConfig(s)), store)[0].root
                 for s in ("seq", "p1", "p2")]
        monkeypatch.setattr(planner, "DENSE_RANK", 0)
        roots.append(execute_plan(plan_circuit(net, PartitionConfig("seq")), store)[0].root)
        monkeypatch.undo()
        assert len({r.target for r in roots}) == 1
        assert all(weights_equal(r.weight, roots[0].weight) for r in roots)
        assert not audit(store)


def test_dense_steps_match_the_unitary():
    rng = random.Random(67)
    for scheme in ("seq", "p1", "p2"):
        for _ in range(3):
            circ = random_circuit(rng, rng.randint(3, 6), rng.randint(10, 30))
            net, store, (tdd, stats) = build(circ, scheme)
            assert any(s.get("dense") for s in stats["steps"])
            got = to_dense(tdd, tuple(net.order.sort(net.open_labels()))).values
            assert np.max(np.abs(got - unitary_as_dense(circ, net).values)) <= 1e-9
            assert not audit(store)


def test_dense_records_give_their_rank(monkeypatch):
    ranks = []
    real = planner.contract_dense

    def contract_dense(*args):
        res = real(*args)
        ranks.append(len(res.indices))
        return res

    monkeypatch.setattr(planner, "contract_dense", contract_dense)
    rng = random.Random(71)
    circuits = [parse_qasm_file(DEMO)] + [random_circuit(rng, 6, 30) for _ in range(3)]
    for circ, scheme in itertools.product(circuits, ("seq", "p1", "p2")):
        start = len(ranks)
        _, _, (_, stats) = build(circ, scheme)
        dense = [s for s in stats["steps"] if "dense" in s]
        assert all(s["dense"] is True and s["nodes"] is None for s in dense)
        assert [s["rank"] for s in dense] == ranks[start:]
        assert all(s["nodes"] >= 1 for s in stats["steps"] if "dense" not in s)
    # no dense result above the cap
    assert 0 < max(ranks) <= 8


def test_deadline_before_the_first_dense_step(monkeypatch):
    net = allocate_indices(parse_qasm_file(DEMO))
    store = NodeStore(net.order)
    execute_plan(plan_circuit(net, PartitionConfig("seq")), store)
    held = (len(store.level), dict(store.unique))
    calls = []
    monkeypatch.setattr(planner, "contract_dense", lambda *args: calls.append(args))
    with pytest.raises(PlanTimeout):
        execute_plan(plan_circuit(net, PartitionConfig("p1")), store,
                     deadline=time.monotonic() - 1.0)
    assert calls == []
    assert (len(store.level), store.unique) == held
    assert not audit(store)
