"""Benchmark jobs: what each one times, and how its output is checked.

A sim job is one circuit built under one scheme through the public pipeline
`parse_qasm[_file] -> allocate_indices -> plan_circuit -> NodeStore ->
execute_plan`. An equivalence job is one `tensordd.cli.equivalent` query.
Only the call into the program is timed; every check runs outside it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import generators
from tensordd import circuit, cli, diagram, numerics, planner

SCHEMES = ("seq", "p1", "p2")

# the CLI's default --norm-eps: the largest oracle deviation accepted
NORM_EPS = 1e-9
# dense oracle up to this many qubits, seeded amplitudes above it
DENSE_MAX_QUBITS = 6
AMPLITUDES = 64
# per-job deadline, about 6x the slowest job at the seed commit
DEADLINE_S = 20.0


@dataclass
class SimJob:
    name: str
    circuit: str      # jobs of one circuit share this name
    n_qubits: int
    scheme: str
    qasm: str = None  # QASM text, or
    path: str = None  # a QASM file parsed through parse_qasm_file
    result: tuple = None  # (final_nodes, canonical root weight) of the first run
    amplitudes: list = field(default_factory=list)  # [(in_bits, out_bits, value)]

    def run(self):
        circ = (circuit.parse_qasm_file(self.path) if self.path is not None
                else circuit.parse_qasm(self.qasm))
        net = circuit.allocate_indices(circ)
        plan = planner.plan_circuit(net, planner.PartitionConfig(self.scheme))
        store = diagram.NodeStore(net.order)
        tdd, stats = planner.execute_plan(plan, store, time.monotonic() + DEADLINE_S)
        return circ, net, tdd, stats

    def check(self, output, seed, elapsed):
        """Check the output; returns an error string or None. The first run
        is compared with the dense oracle or records seeded amplitudes for
        check_amplitudes; later runs must reproduce the first exactly."""
        circ, net, tdd, stats = output
        result = (stats["final_nodes"], numerics.canonical(tdd.root.weight))
        if self.result is not None:
            return None if result == self.result else (
                "rerun gave %r, first run %r" % (result, self.result))
        self.result = result
        if self.n_qubits <= DENSE_MAX_QUBITS:
            labels = tuple(net.order.sort(net.open_labels()))
            got = diagram.to_dense(tdd, labels).values
            ref = circuit.unitary_as_dense(circ, net).values
            dev = float(np.max(np.abs(got - ref)))
            return None if dev <= NORM_EPS else "dense oracle deviation %.3g" % dev
        rng = random.Random("amplitudes/%d/%s" % (seed, self.circuit))
        for _ in range(AMPLITUDES):
            ins = tuple(rng.randrange(2) for _ in range(self.n_qubits))
            outs = tuple(rng.randrange(2) for _ in range(self.n_qubits))
            a = net.boundary_assignment(ins, outs)
            self.amplitudes.append((ins, outs, 0j if a is None else diagram.evaluate(tdd, a)))
        return None


def _index(bits):
    """Row/column of a basis state in circuit_unitary (qubit 0 most significant)."""
    i = 0
    for b in bits:
        i = (i << 1) | b
    return i


def check_amplitudes(jobs):
    """Compare the recorded amplitudes with circuit_unitary, one circuit at a
    time, after the timed phase; returns {job name: error}."""
    errors = {}
    by_circuit = {}
    for job in jobs:
        if job.amplitudes:
            by_circuit.setdefault(job.circuit, []).append(job)
    for group in by_circuit.values():
        U = circuit.circuit_unitary(circuit.parse_qasm(group[0].qasm))
        for job in group:
            dev = max(abs(v - U[_index(o), _index(i)]) for i, o, v in job.amplitudes)
            if dev > NORM_EPS:
                errors[job.name] = "amplitude deviation %.3g" % dev
    return errors


def check_canonicity(jobs):
    """The same circuit must give the same final node count under every
    scheme (canonicity across plans); returns {job name: error}."""
    errors = {}
    first = {}
    for job in jobs:
        if job.result is None:
            continue
        ref = first.setdefault(job.circuit, job)
        if job.result[0] != ref.result[0]:
            errors[job.name] = "final_nodes %d under %s, %d under %s" % (
                job.result[0], job.scheme, ref.result[0], ref.scheme)
    return errors


@dataclass
class EquivJob:
    name: str
    path_a: str
    path_b: str
    up_to_phase: bool
    expected: bool
    args: object = None
    scheme: str = "seq"  # the CLI default that equivalent() builds with

    def __post_init__(self):
        self.args = cli.build_parser().parse_args(["equiv", self.path_a, self.path_b])
        self.scheme = self.args.scheme

    def run(self):
        return cli.equivalent(self.path_a, self.path_b, self.args, up_to_phase=self.up_to_phase)

    def check(self, same, seed, elapsed):
        if elapsed > DEADLINE_S:
            # equivalent() takes no deadline, so it is applied afterwards
            return "missed the %.0f s deadline (%.1f s)" % (DEADLINE_S, elapsed)
        if same != self.expected:
            return "verdict %s, constructed as %s" % (same, self.expected)
        return None


def confirm_label(job):
    """Confirm a generated pair's label with circuit_unitary; returns an
    error string or None."""
    ua = circuit.circuit_unitary(circuit.parse_qasm_file(job.path_a))
    ub = circuit.circuit_unitary(circuit.parse_qasm_file(job.path_b))
    if job.up_to_phase:
        overlap = np.vdot(ub, ua)
        ub = ub * (overlap / abs(overlap))
    same = bool(np.max(np.abs(ua - ub)) <= NORM_EPS)
    return None if same == job.expected else (
        "generated pair is %s by circuit_unitary, labelled %s" % (same, job.expected))


def post_checks(jobs):
    """Checks that need an oracle too large to run while memory is being
    measured; returns {job name: error}."""
    sims = [j for j in jobs if isinstance(j, SimJob)]
    errors = check_amplitudes(sims)
    errors.update(check_canonicity(sims))
    for job in jobs:
        if isinstance(job, EquivJob):
            error = confirm_label(job)
            if error is not None:
                errors[job.name] = error
    return errors


def wide_random(seed, root, workdir):
    return [SimJob("%s/%s" % (name, s), name, n, s, qasm=q)
            for name, n, q in generators.wide_random(seed) for s in SCHEMES]


def long_narrow(seed, root, workdir):
    return [SimJob("%s/%s" % (name, s), name, n, s, qasm=q)
            for name, n, q in generators.long_narrow(seed) for s in ("seq", "p1")]


def small_batch(seed, root, workdir):
    demos = [Path(root) / "circuits" / f for f in ("example_2q.qasm", "partition_demo.qasm")]
    jobs = [SimJob(p.stem, p.stem, circuit.parse_qasm_file(p).n_qubits, "", path=str(p))
            for p in demos]
    jobs += [SimJob(name, name, n, "", qasm=q) for name, n, q in generators.small_batch(seed)]
    for i, job in enumerate(jobs):
        job.scheme = SCHEMES[i % len(SCHEMES)]
        job.name += "/" + job.scheme
    return jobs


def equiv_pairs(seed, root, workdir):
    jobs = []
    for i, (name, qa, qb, up_to_phase, expected) in enumerate(generators.equiv_pairs(seed)):
        pa = Path(workdir) / ("%02d-a.qasm" % i)
        pb = Path(workdir) / ("%02d-b.qasm" % i)
        pa.write_text(qa)
        pb.write_text(qb)
        jobs.append(EquivJob(name, str(pa), str(pb), up_to_phase, expected))
    return jobs


WORKLOADS = {
    "wide-random": wide_random,
    "long-narrow": long_narrow,
    "equiv-pairs": equiv_pairs,
    "small-batch": small_batch,
}
