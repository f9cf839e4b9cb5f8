"""End-to-end checks of the package's headline guarantees.

Each test pins one user-visible property: the worked amplitude example,
oracle agreement, plan-independent canonical roots, store invariants,
known diagram shapes, Boolean closure, partition shapes and step
histograms, reference node counts, and a performance smoke bound.
"""

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from tensordd import planner
from tensordd.circuit import allocate_indices, parse_qasm_file, unitary_as_dense
from tensordd.cli import amplitude
from tensordd.dense import DenseTensor, IndexLabel, IndexOrder
from tensordd.diagram import (NodeStore, Tdd, add, contract, generate, reachable, size, to_dense)
from tensordd.numerics import canonical, weights_equal
from tensordd.planner import PartitionConfig, execute_plan, plan_circuit

from util import audit, random_circuit, random_circuit_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE = os.path.join(ROOT, "circuits", "example_2q.qasm")
DEMO = os.path.join(ROOT, "circuits", "partition_demo.qasm")


def build_circuit(circ, scheme="seq", store=None, **kw):
    net = allocate_indices(circ)
    plan = plan_circuit(net, PartitionConfig(scheme, **kw))
    if store is None:
        store = NodeStore(net.order)
    tdd, stats = execute_plan(plan, store)
    return net, store, tdd, stats


def test_amplitude_example():
    t0 = time.perf_counter()
    net, store, tdd, _ = build_circuit(parse_qasm_file(EXAMPLE))
    a = amplitude(net, tdd, (1, 1), (1, 1))
    assert abs(a - (-1j)) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


def oracle_equivalence():
    """Build 200 seeded circuits and compare each with its unitary; returns
    the number of dense and of diagram plan steps run."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    steps = Counter()
    for _ in range(200):
        circ = random_circuit(rng, rng.randint(1, 6), rng.randint(0, 40))
        net, store, tdd, stats = build_circuit(circ)
        steps.update("dense" if s.get("dense") else "diagram" for s in stats["steps"])
        labels = tuple(net.order.sort(net.open_labels()))
        ref = unitary_as_dense(circ, net)
        got = to_dense(tdd, labels)
        assert got.indices == ref.indices
        assert np.max(np.abs(got.values - ref.values)) <= 1e-9
        assert not audit(store)
    assert time.perf_counter() - t0 < 120.0
    return steps


def test_oracle_equivalence():
    oracle_equivalence()


def test_oracle_equivalence_on_diagram_steps(monkeypatch):
    # at the default DENSE_RANK most of these circuits run no diagram step
    monkeypatch.setattr(planner, "DENSE_RANK", 0)
    steps = oracle_equivalence()
    assert steps["dense"] == 0 and steps["diagram"] > 0


def test_canonicity_across_plans():
    rng = random.Random(0)
    mismatches = []
    for i in range(100):
        circ = random_circuit(rng, rng.randint(4, 8), rng.randint(0, 60))
        net = allocate_indices(circ)
        store = NodeStore(net.order)
        roots = []
        for scheme in ("seq", "p1", "p2"):
            tdd, _ = execute_plan(plan_circuit(net, PartitionConfig(scheme)), store)
            roots.append(tdd.root)
        same = (len({r.target for r in roots}) == 1
                and all(weights_equal(r.weight, roots[0].weight) for r in roots))
        if not same:
            mismatches.append((i, roots))
        assert not audit(store)
    assert mismatches == []


def test_rule_level_invariants():
    rng = random.Random(4)
    for _ in range(25):
        circ = random_circuit(rng, rng.randint(2, 5), rng.randint(1, 25))
        net = allocate_indices(circ)
        store = NodeStore(net.order)
        remaining = Counter()
        for t in net.tensors:
            remaining.update(t.indices)
        open_labels = net.open_labels()
        acc = Tdd(store, store.terminal_edge(1.0), frozenset())
        for t in net.tensors:
            F = generate(store, t)
            assert not audit(store)
            for lab in t.indices:
                remaining[lab] -= 1
            var = {lab for lab in acc.labels | F.labels
                   if lab not in open_labels and remaining[lab] == 0}
            acc = contract(acc, F, var)
            assert not audit(store)
        doubled = add(acc, acc)
        assert not audit(store)
        labels = tuple(net.order.sort(open_labels))
        ref = unitary_as_dense(circ, net)
        assert np.max(np.abs(to_dense(acc, labels).values - ref.values)) <= 1e-9
        assert np.max(np.abs(to_dense(doubled, labels).values - 2 * ref.values)) <= 2e-9


def test_structural_examples():
    store = NodeStore()
    h = DenseTensor.from_flat((IndexLabel(0, 0), IndexLabel(0, 1)),
                              np.array([1, 1, 1, -1]) / math.sqrt(2))
    H = generate(store, h)
    assert size(H) == 2
    assert abs(H.root.weight - 1 / math.sqrt(2)) <= 1e-10
    # edges: one into the root plus two out of each node
    assert 1 + 2 * size(H) == 5

    from tensordd.circuit import parse_qasm

    net = allocate_indices(parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];"))
    t = net.tensors[0]
    cnot = generate(NodeStore(net.order), t)
    assert len(t.indices) == 3          # the control wire is one shared hyper label
    assert size(cnot) == 5
    assert 1 + 2 * size(cnot) == 11



def test_boolean_closure():
    rng = random.Random(0)
    order = IndexOrder()
    for _ in range(100):
        rank = rng.randint(0, 8)
        labels = tuple(IndexLabel(i, 0) for i in range(rank))
        flat = [rng.randrange(2) for _ in range(2 ** rank)]
        store = NodeStore(order)
        F = generate(store, DenseTensor.from_flat(labels, flat))
        weights = [F.root.weight]
        for t in reachable(store, [F.root.target]):
            _, w0, _, w1, _ = store.node(t)
            weights.extend([w0, w1])
        assert all(canonical(w) in (0, 1) for w in weights)


def test_partition_fidelity():
    net = allocate_indices(parse_qasm_file(DEMO))

    def shape(scheme, **kw):
        plan = plan_circuit(net, PartitionConfig(scheme, **kw))
        hist = Counter(n.mnr for n in plan.steps)
        small = sum(c for (m, n, r), c in hist.items() if m <= 4 and n <= 4)
        big = {k: v for k, v in hist.items() if not (k[0] <= 4 and k[1] <= 4)}
        return len(plan.parts), big, small

    parts1, big1, small1 = shape("p1", k=1)
    parts1b, _, _ = shape("p1", k=2)
    parts2, big2, small2 = shape("p2", k=1, k2=2)
    _, bigs, smalls = shape("seq")

    assert parts1 == 4 and parts1b == 2 and parts2 == 5
    assert bigs == {(8, 2, 1): 8, (8, 4, 2): 5, (6, 2, 0): 1} and smalls == 2
    assert big1 == {(8, 8, 4): 1, (5, 5, 1): 2, (5, 2, 1): 5}
    assert big2 == {(8, 8, 4): 1, (8, 4, 2): 1, (5, 5, 1): 1} and small2 == 14
    # this plan has 19 leaves: the 15 unsplit gates plus the copy and xor
    # halves of the two crossing CXs it splits (gates 7 and 8). Any binary
    # contraction tree over 19 leaves has 18 steps; 8 are the large ones
    # above, leaving 10 in the small bucket. The p2 line counts the same way:
    # one split, 18 leaves, 17 steps = 3 large + 14 small.
    assert small1 == 10, "measured %d rank<=4 contractions, expected 10" % small1


BENCH_COUNTS = {"xor5_254": 22, "3_17_13": 20, "ham3_102": 20, "miller_11": 21}


def test_benchmark_node_counts():
    bench_dir = os.environ.get("TDD_BENCH_DIR", os.path.join(ROOT, "benchmarks"))
    paths = {name: os.path.join(bench_dir, name + ".qasm") for name in BENCH_COUNTS}
    missing = [n for n, p in paths.items() if not os.path.exists(p)]
    if missing:
        pytest.skip("benchmark circuits not available: %s" % ", ".join(sorted(missing)))
    for name, want in BENCH_COUNTS.items():
        counts = []
        for inverse in (False, True):
            circ = parse_qasm_file(paths[name])
            order = IndexOrder(inverse)
            net = allocate_indices(circ, order)
            tdd, stats = execute_plan(plan_circuit(net, PartitionConfig("seq")),
                                      NodeStore(order))
            counts.append(stats["final_nodes"])
        assert want in counts, "%s: final nodes %s, expected %d" % (name, counts, want)


def test_performance_smoke(tmp_path):
    circ_path = tmp_path / "rand_10q_200g.qasm"
    circ_path.write_text(random_circuit_text(random.Random(99), 10, 200) + "\n")
    out = tmp_path / "report.json"

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.RLIM_INFINITY))

    cmd = [sys.executable, "-m", "tensordd.cli", "bench", str(tmp_path),
           "--schemes", "p1", "--timeout-s", "60", "--json", str(out)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                              preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        pytest.fail("10-qubit 200-gate circuit still running after 150 s "
                    "(budget: 60 s, final diagram of 2^20 - 1 nodes)")
    elapsed = time.perf_counter() - t0
    unfinished = ("10-qubit 200-gate run ended after %.0f s under a 2 GB memory cap "
                  "without completing (budget: 60 s, final diagram of 2^20 - 1 nodes): %s")
    if proc.returncode != 0:
        if "MemoryError" in proc.stderr:
            tail = "memory exhausted (MemoryError)"
        else:
            lines = [l.strip() for l in proc.stderr.splitlines() if l.strip()]
            tail = lines[-1] if lines else "exit code %d" % proc.returncode
        pytest.fail(unfinished % (elapsed, tail))
    report = json.loads(out.read_text())[0]
    if report["timed_out"]:
        pytest.fail("10-qubit 200-gate circuit exceeded the 60 s budget")
    if "error" in report:
        # the build ran out of memory under the cap and reported it
        pytest.fail(unfinished % (elapsed, report["error"]))
    assert report["elapsed_ms"] / 1000.0 < 60.0
    # The final size is fixed by the circuit, whatever the engine. Counting
    # the distinct normalized sub-tensors of circuit_unitary that depend on
    # their top index, level by level in the store's qubit-major order (in
    # before out), gives 1, 2, 4, ..., 2^19: every level is full, so the
    # reduced diagram has 2^20 - 1 nodes, the most any 20-level diagram can
    # have. The same count gives exactly the engine's 189523 nodes on the
    # circuit's first 100 gates. peak_nodes >= final_nodes by definition, and
    # memory is bounded by the 2 GB cap above.
    assert report["final_nodes"] == 2**20 - 1, (
        "final diagram has %d nodes, expected 2^20 - 1" % report["final_nodes"])
