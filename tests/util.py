"""Shared helpers for the test suite."""

import itertools
import math

from tensordd.circuit import GATE_PARAMS, parse_qasm
from tensordd.diagram import TERMINAL
from tensordd.numerics import is_zero, weights_equal

KINDS1 = ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1", "u2", "u3"]


def random_circuit_text(rng, n, m):
    """A random n-qubit, m-gate OpenQASM program drawn from the full gate set."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[%d];" % n]
    for _ in range(m):
        r = rng.random()
        if r < 0.55 or n == 1:
            g = rng.choice(KINDS1)
            np_ = GATE_PARAMS.get(g, 0)
            if np_:
                ps = ",".join("%.6f" % rng.uniform(0, 2 * math.pi) for _ in range(np_))
                lines.append("%s(%s) q[%d];" % (g, ps, rng.randrange(n)))
            else:
                lines.append("%s q[%d];" % (g, rng.randrange(n)))
        elif r < 0.9 or n == 2:
            g = rng.choice(["cx", "cz", "swap"])
            a, b = rng.sample(range(n), 2)
            lines.append("%s q[%d],q[%d];" % (g, a, b))
        else:
            a, b, c = rng.sample(range(n), 3)
            lines.append("ccx q[%d],q[%d],q[%d];" % (a, b, c))
    return "\n".join(lines)


def random_circuit(rng, n, m):
    return parse_qasm(random_circuit_text(rng, n, m))


def audit(store):
    """Return a list of invariant violations; an empty list means sound."""
    cfg = store.cfg
    levels, unique = store.level, store.unique
    bound = 1 + 2 * cfg.eps
    problems = []
    live = 0
    nodes = zip(levels, store.w0, store.t0, store.w1, store.t1)
    for nid, (level, w0, t0, w1, t1) in enumerate(itertools.islice(nodes, 1, None), 1):
        if level is None:
            continue
        live += 1
        z0 = is_zero(w0, cfg)
        z1 = is_zero(w1, cfg)
        if not (w0 == 1 or w1 == 1):
            problems.append("node %d: no unit edge weight" % nid)
        if abs(w0) > bound or abs(w1) > bound:
            problems.append("node %d: edge weight magnitude above 1" % nid)
        if z0 and z1:
            problems.append("node %d: represents the zero tensor" % nid)
        if t0 == t1 and weights_equal(w0, w1, cfg):
            problems.append("node %d: equal children, should have collapsed" % nid)
        for z, t in ((z0, t0), (z1, t1)):
            if t == TERMINAL:
                continue
            if z:
                problems.append("node %d: zero-weight edge off the terminal" % nid)
            child = levels[t] if t < len(levels) else None
            if child is None:
                problems.append("node %d: dangling child" % nid)
            elif level >= child:
                problems.append("node %d: index order violated" % nid)
        if unique.get(store.node_key(level, w0, t0, w1, t1)) != nid:
            problems.append("node %d: unique table mismatch" % nid)
    if len(unique) != live:
        problems.append("unique table size %d != node count %d" % (len(unique), live))
    return problems
