"""Seeded OpenQASM generators for the benchmark workloads.

Every generator takes the seed as an argument and returns QASM text (or pairs
of texts), so the program under test only ever sees QASM. A gate is the tuple
(kind, qubits, params) with params kept as the QASM strings that are printed,
so the same seed always gives byte-identical text.
"""

from __future__ import annotations

import math
import random

ONE_QUBIT = ["x", "y", "z", "h", "s", "sdg", "t", "tdg",
             "rx", "ry", "rz", "u1", "u2", "u3"]
N_PARAMS = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3}

# wide-random circuit skeletons as (qubits, gates, skeleton seed). Gate kinds
# and qubits come from the skeleton seed, picked once and kept fixed, because
# build time varies up to 40x across skeletons of one size; --seed draws every
# rotation angle, which leaves the diagram sizes as they are. Each pick's three
# builds take 0.5-3.5 s together at the seed commit, so a pass over all of
# them fits four to five times into a run.
WIDE_SKELETONS = [(8, 50, 4), (9, 55, 4), (10, 50, 2)]

# equiv-pairs base circuits, fixed the same way, as are the gates each
# rewrite touches; --seed draws every angle
EQUIV_SKELETONS = [(8, 40, 0), (9, 36, 1), (10, 30, 0)]

# long-narrow circuit sizes as (qubits, gates); --seed draws every gate. At
# 5-6 qubits one 600-gate build already takes 10-40 s at the seed commit.
# Three circuits, because build time moves by up to a fifth with one
# circuit's draw.
NARROW_SIZES = [(4, 600)] * 3

SMALL_BATCH_CIRCUITS = 300


def _angle(rng):
    return "%.10f" % rng.uniform(0.0, 2.0 * math.pi)


def to_qasm(n_qubits, gates):
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[%d];" % n_qubits]
    for kind, qubits, params in gates:
        head = "%s(%s)" % (kind, ",".join(params)) if params else kind
        lines.append("%s %s;" % (head, ",".join("q[%d]" % q for q in qubits)))
    return "\n".join(lines) + "\n"


def skeleton(skel_seed, n_qubits, n_gates):
    """Gate kinds and qubits of a random circuit over the full gate set:
    55% one-qubit gates, 35% cx/cz/swap, 10% ccx."""
    rng = random.Random(skel_seed)
    out = []
    for _ in range(n_gates):
        r = rng.random()
        if r < 0.55 or n_qubits == 1:
            out.append((rng.choice(ONE_QUBIT), (rng.randrange(n_qubits),)))
        elif r < 0.9 or n_qubits == 2:
            out.append((rng.choice(["cx", "cz", "swap"]), tuple(rng.sample(range(n_qubits), 2))))
        else:
            out.append(("ccx", tuple(rng.sample(range(n_qubits), 3))))
    return out


def with_angles(skel, rng):
    return [(kind, qubits, tuple(_angle(rng) for _ in range(N_PARAMS.get(kind, 0))))
            for kind, qubits in skel]


def wide_random(seed):
    """[(name, n_qubits, qasm)] for the wide-random workload."""
    rng = random.Random("wide-random/%d" % seed)
    return [("w%dq%dg-s%d" % (n, m, s), n, to_qasm(n, with_angles(skeleton(s, n, m), rng)))
            for n, m, s in WIDE_SKELETONS]


def reversible_circuit(rng, n_qubits, n_gates):
    """Clifford+T reversible-style circuit: x/cx/ccx plus 10% h/t/tdg.

    Every tenth gate is h, t or tdg in turn; the rest is a shuffled pool with
    fixed shares of x (2/9), cx and ccx (7/18 each). Only the order of the pool
    and the qubits are drawn: the count and spacing of the h gates set most of
    the build time and of the garbage the store collects.
    """
    special = ["h", "t", "tdg"]
    n_pool = n_gates - len(range(5, n_gates, 10))
    n_x = round(n_pool * 2 / 9)
    n_cx = (n_pool - n_x) // 2
    pool = ["x"] * n_x + ["cx"] * n_cx + ["ccx"] * (n_pool - n_x - n_cx)
    rng.shuffle(pool)
    arity = {"cx": 2, "ccx": 3}
    gates = []
    for i in range(n_gates):
        kind = special[(i // 10) % 3] if i % 10 == 5 else pool.pop()
        gates.append((kind, tuple(rng.sample(range(n_qubits), arity.get(kind, 1))), ()))
    return gates


def long_narrow(seed):
    rng = random.Random("long-narrow/%d" % seed)
    return [("r%dq%dg-%d" % (n, m, i), n, to_qasm(n, reversible_circuit(rng, n, m)))
            for i, (n, m) in enumerate(NARROW_SIZES)]


def small_batch(seed):
    """Small circuits over the full gate set. Sizes and skeletons are fixed
    (skeleton seed = position); --seed draws every rotation angle. The memory
    peak of this workload is its single largest store, which swings by a
    third across skeleton draws."""
    sizes = random.Random("small-batch")
    rng = random.Random("small-batch/%d" % seed)
    out = []
    for i in range(SMALL_BATCH_CIRCUITS):
        n = sizes.randint(2, 6)
        m = sizes.randint(5, 40)
        out.append(("b%03d-%dq%dg" % (i, n, m), n, to_qasm(n, with_angles(skeleton(i, n, m), rng))))
    return out


# ---------------------------------------------------------------- equivalence

SELF_INVERSE = {1: ["h", "x", "y", "z"], 2: ["cx", "cz", "swap"], 3: ["ccx"]}

# diagonal gates and the rz angle that equals them up to a global phase
PHASE_AS_RZ = {"z": "pi", "s": "pi/2", "sdg": "-pi/2", "t": "pi/4", "tdg": "-pi/4"}


def _insert_pair(gates, rng, n_qubits):
    arity = rng.choice([a for a in (1, 2, 3) if a <= n_qubits])
    g = (rng.choice(SELF_INVERSE[arity]), tuple(rng.sample(range(n_qubits), arity)), ())
    i = rng.randrange(len(gates) + 1)
    return gates[:i] + [g, g] + gates[i:]


def _expand_cz(gates, rng, n_qubits):
    sites = [i for i, g in enumerate(gates) if g[0] == "cz"]
    if not sites:
        return None
    i = rng.choice(sites)
    a, b = gates[i][1]
    return gates[:i] + [("h", (b,), ()), ("cx", (a, b), ()), ("h", (b,), ())] + gates[i + 1:]


def _split_s(gates, rng, n_qubits):
    # B holds t t where A holds s
    sites = [i for i, g in enumerate(gates) if g[0] == "s"]
    if not sites:
        return None
    i = rng.choice(sites)
    t = ("t", gates[i][1], ())
    return gates[:i] + [t, t] + gates[i + 1:]


def _commute(gates, rng, n_qubits):
    sites = [i for i in range(len(gates) - 1)
             if not set(gates[i][1]) & set(gates[i + 1][1])]
    if not sites:
        return None
    i = rng.choice(sites)
    return gates[:i] + [gates[i + 1], gates[i]] + gates[i + 2:]


REWRITES = [_insert_pair, _expand_cz, _split_s, _commute]


def equivalent_rewrite(gates, rng, n_qubits, count=4):
    out = list(gates)
    done = 0
    while done < count:
        res = rng.choice(REWRITES)(out, rng, n_qubits)
        if res is not None:
            out = res
            done += 1
    return out


def break_one_gate(gates, rng):
    """Drop one gate, or perturb one angle by 0.25 rad."""
    params = [i for i, g in enumerate(gates) if g[2]]
    i = rng.randrange(len(gates))
    if params and rng.random() < 0.5:
        i = rng.choice(params)
        kind, qubits, ps = gates[i]
        j = rng.randrange(len(ps))
        ps = ps[:j] + ("%.10f" % (float(ps[j]) + 0.25),) + ps[j + 1:]
        return gates[:i] + [(kind, qubits, ps)] + gates[i + 1:]
    return gates[:i] + gates[i + 1:]


def phase_rewrite(gates, rng, n_qubits):
    """Replace one diagonal gate by the rz equal to it up to a global phase;
    without one, insert x y z on one wire (the product Z*Y*X is -i*I)."""
    sites = [i for i, g in enumerate(gates) if g[0] in PHASE_AS_RZ or g[0] == "u1"]
    if not sites:
        q = (rng.randrange(n_qubits),)
        i = rng.randrange(len(gates) + 1)
        return gates[:i] + [("x", q, ()), ("y", q, ()), ("z", q, ())] + gates[i:]
    i = rng.choice(sites)
    kind, qubits, ps = gates[i]
    angle = ps[0] if kind == "u1" else PHASE_AS_RZ[kind]
    return gates[:i] + [("rz", qubits, (angle,))] + gates[i + 1:]


def equiv_pairs(seed):
    """[(name, qasm_a, qasm_b, up_to_phase, expected)] for the equiv-pairs workload.

    Per base circuit A: A against an equivalent rewrite (True), A against A
    with one gate dropped or one angle perturbed (False), and A against a
    global-phase rewrite queried exactly (False) and up to phase (True).
    """
    rng = random.Random("equiv-pairs/%d" % seed)
    out = []
    for n, m, s in EQUIV_SKELETONS:
        a = with_angles(skeleton(s, n, m), rng)
        qa = to_qasm(n, a)
        name = "e%dq%dg-s%d" % (n, m, s)
        # which gates the rewrites and the break touch is fixed per skeleton
        # like the skeleton itself: a store holds both builds, and its size
        # swings 2x with where B first departs from A
        where = random.Random(name)
        phase = to_qasm(n, phase_rewrite(a, where, n))
        out.append((name + "-rewrite", qa, to_qasm(n, equivalent_rewrite(a, where, n)), False, True))
        out.append((name + "-broken", qa, to_qasm(n, break_one_gate(a, where)), False, False))
        out.append((name + "-phase-exact", qa, phase, False, False))
        out.append((name + "-phase-up-to", qa, phase, True, True))
    return out
