"""The benchmark hooks into the library by name: every name it wraps or
calls must resolve, and the stats it folds must carry every key it reads.
A store, planner or CLI change that breaks `perfbench/run.py` fails here."""

import sys
from pathlib import Path

from tensordd import circuit, cli, diagram, numerics, planner
from tensordd.circuit import allocate_indices, parse_qasm_file
from tensordd.diagram import NodeStore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

DEMO = "circuits/partition_demo.qasm"

# the keys Tracer._fold_counts reads from execute_plan's stats and from
# their "store" entry, store.stats()
PLAN_KEYS = {"steps", "final_nodes", "peak_nodes", "store"}
STORE_KEYS = {"peak_nodes", "unique_hits", "cache_hits_cont", "cache_hits_add", "gc_runs"}


def test_wrapped_names_resolve():
    for owner, attr, _ in tracing.WRAPPED:
        assert callable(getattr(owner, attr, None)), "%s.%s" % (owner.__name__, attr)


def test_untraced_names_resolve():
    # what perfbench/workloads.py reads besides the wrapped names
    for owner, attr in [(circuit, "unitary_as_dense"), (circuit.CircuitNet, "boundary_assignment"),
                        (circuit, "circuit_unitary"), (circuit, "parse_qasm_file"),
                        (diagram, "NodeStore"), (diagram, "to_dense"), (diagram, "evaluate"),
                        (numerics, "canonical"), (planner, "PartitionConfig")]:
        assert callable(getattr(owner, attr, None)), "%s.%s" % (owner.__name__, attr)
    args = cli.build_parser().parse_args(["equiv", DEMO, DEMO])
    assert args.scheme == "seq"


def test_stats_carry_the_folded_keys(monkeypatch):
    monkeypatch.setattr(diagram, "GC_LIMIT", 50)
    monkeypatch.setattr(planner, "DENSE_RANK", 0)
    net = allocate_indices(parse_qasm_file(DEMO))
    plan = planner.plan_circuit(net, planner.PartitionConfig("p1"))
    store = NodeStore(net.order)
    _, stats = planner.execute_plan(plan, store)
    assert PLAN_KEYS <= stats.keys()
    assert STORE_KEYS <= stats["store"].keys() == store.stats().keys()

    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.job("demo", "p1",
                   lambda: planner.execute_plan(plan, NodeStore(net.order)))
    counts = tracer.counts
    assert counts["planner.steps"] == len(stats["steps"])
    assert counts["diagram.final_nodes_total"] == stats["final_nodes"]
    assert counts["planner.live_peak_nodes"] == stats["peak_nodes"]
    assert counts["diagram.store_peak_nodes"] == stats["store"]["peak_nodes"]
    assert counts["diagram.gc_runs"] == stats["store"]["gc_runs"] > 0
    assert counts["diagram.unique_hits"] == stats["store"]["unique_hits"]
