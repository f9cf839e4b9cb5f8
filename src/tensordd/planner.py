"""Circuit partitioning, contraction planning and plan execution."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

from .dense import DenseTensor, contract_dense
from .diagram import PlanTimeout, contract, generate, reachable, size, tensor_product

SEQUENTIAL = "seq"
SCHEME1 = "p1"
SCHEME2 = "p2"

# a step whose operands are both dense and whose result has at most this many
# labels runs as one einsum: its array of at most 2^8 entries (4 KB) is
# smaller than the largest diagram of that rank (255 nodes)
DENSE_RANK = 8


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionConfig:
    scheme: str = SEQUENTIAL
    k: int = None
    k2: int = None

    def resolve(self, n_qubits):
        """Fill in the qubit-count-dependent defaults and validate."""
        if self.scheme not in (SEQUENTIAL, SCHEME1, SCHEME2):
            raise PlanError("unknown scheme %r" % (self.scheme,))
        k = self.k if self.k is not None else max(1, n_qubits // 2)
        k2 = self.k2 if self.k2 is not None else max(2, n_qubits // 2 + 1)
        if k < 1:
            raise PlanError("k must be at least 1")
        if k2 < 2:
            raise PlanError("k2 must be at least 2")
        if self.scheme != SEQUENTIAL and n_qubits < 2:
            raise PlanError("horizontal cut %d leaves an empty half" % (n_qubits // 2))
        return replace(self, k=k, k2=k2)


@dataclass
class Part:
    """Gate slots assigned to one region of one vertical segment."""

    region: str   # 'A' top, 'B' bottom, 'C' middle block, 'M' miter
    segment: int
    items: list   # (gate position, role) with role in {'whole', 'copy', 'xor'},
                  # folded in list order


def partition(circ, cfg):
    """Cut the circuit into parts under cfg's scheme.

    seq gives one part. p1 and p2 cut the qubits at n // 2 into a top half A
    and a bottom half B. A CX crossing the cut is split, up to a budget per
    vertical segment, into a copy half on its control's side and an xor half
    on its target's side; any other crossing gate stays whole on the side of
    its last wire. The budget is k, the paper's k for scheme 1 and its k1 for
    scheme 2. At the budget, p1 closes the segment, while p2 puts the
    crossing CX whole into a middle block C, which also takes every later
    gate on C's qubits, and closes the segment once C spans k2 qubits.
    """
    cfg = cfg.resolve(circ.n_qubits)
    if cfg.scheme == SEQUENTIAL:
        return [Part("A", 0, [(i, "whole") for i in range(len(circ.gates))])]
    cut = circ.n_qubits // 2
    parts = []
    seg = {"A": [], "B": [], "C": []}
    splits = 0
    c_qubits = set()

    def close():
        nonlocal splits
        segment = parts[-1].segment + 1 if parts else 0
        parts.extend(Part(r, segment, seg[r]) for r in "ABC" if r != "C" or seg[r])
        seg.update(A=[], B=[], C=[])
        c_qubits.clear()
        splits = 0

    for i, g in enumerate(circ.gates):
        if c_qubits and c_qubits.issuperset(g.qubits):
            seg["C"].append((i, "whole"))
            continue
        tops = [q < cut for q in g.qubits]
        if g.kind == "cx" and any(tops) and not all(tops):
            if splits == cfg.k and cfg.scheme == SCHEME1:
                close()
            if splits < cfg.k:
                splits += 1
                seg["A"].append((i, "copy" if tops[0] else "xor"))
                seg["B"].append((i, "xor" if tops[0] else "copy"))
            else:
                seg["C"].append((i, "whole"))
                c_qubits.update(g.qubits)
                if len(c_qubits) >= cfg.k2:
                    close()
        else:
            # a crossing gate goes with its last wire, any other with all of them
            seg["A" if tops[-1] else "B"].append((i, "whole"))
    if seg["A"] or seg["B"] or seg["C"] or not parts:
        close()
    return parts


def partition_miter(n_a, n_b):
    """One part over a miter circuit (n_a gates of A, then n_b gates of B's
    inverse) whose items run outward from the A/B junction, each time from
    the side that has used the smaller fraction of its gates, A on a tie."""
    items = []
    i = j = 0
    while i < n_a or j < n_b:
        if i < n_a and (j == n_b or i * n_b <= j * n_a):
            items.append((n_a - 1 - i, "whole"))
            i += 1
        else:
            items.append((n_a + j, "whole"))
            j += 1
    return [Part("M", 0, items)]


@dataclass
class PlanNode:
    left: object   # a leaf (the DenseTensor it generates) or an earlier PlanNode
    right: object
    var: tuple   # labels summed out at this step
    mnr: tuple   # plain ranks (left, right, common)
    tag: str


@dataclass
class Plan:
    parts: list
    root: object   # PlanNode, or the one leaf (the constant 1 for an empty circuit)
    steps: list    # PlanNodes in execution (postorder) order


def _plain_walk(circ):
    """Per gate, its wires' segments in the plain network, where every gate
    advances each wire it touches (no diagonal-gate label sharing)."""
    pos = {q: 0 for q in range(circ.n_qubits)}
    per_gate = []
    for g in circ.gates:
        wires = {}
        for q in g.qubits:
            wires[q] = (("w", q, pos[q]), ("w", q, pos[q] + 1))
            pos[q] += 1
        per_gate.append(wires)
    return per_gate


def _leaf(net, per_gate, pos, role):
    """A part item's leaf tensor and its labels in the plain network."""
    g = net.circuit.gates[pos]
    if role == "whole":
        return net.tensors[pos], frozenset(l for q in g.qubits for l in per_gate[pos][q])
    # split CX: the copy half keeps the control wire and carries the constant
    # 1 (the control label just extends across the cut); the xor half carries
    # the whole gate tensor on the target side
    bond = ("bond", pos)
    if role == "copy":
        return DenseTensor.constant(1), frozenset(per_gate[pos][g.qubits[0]] + (bond,))
    return net.tensors[pos], frozenset(per_gate[pos][g.qubits[1]] + (bond,))


def plan_from_parts(net, parts):
    """Build the contraction tree: per-part left fold in item order, then
    A*B(*C) per segment, then a left fold over segments."""
    per_gate = _plain_walk(net.circuit)
    boundary = net.open_labels()
    part_leaves = [[_leaf(net, per_gate, p, role) for p, role in part.items]
                   for part in parts]
    # per label, its holders: the leaves whose indices hold it, plus the
    # outside for an open label, so that one never reaches its total. A
    # label is summed at the merge where its count reaches the total
    total = Counter(boundary)
    for leaves in part_leaves:
        for leaf, _ in leaves:
            total.update(leaf.indices)

    steps = []

    # every plan entry carries the counts of its open labels only: a label
    # whose holders have all joined can be in no later step. A plain label
    # has at most two holders (a wire segment's gates or a split CX's
    # halves), so an entry's open plain labels are a set
    def open_counts(counts):
        return Counter({l: c for l, c in counts.items() if c < total[l]})

    def merge(left, right, tag):
        ln, lc, lp = left
        rn, rc, rp = right
        held = lc + rc
        var = sorted((l for l, c in held.items() if c == total[l]), key=net.order.key)
        node = PlanNode(ln, rn, tuple(var), (len(lp), len(rp), len(lp & rp)), tag)
        steps.append(node)
        return node, open_counts(held), lp ^ rp

    def fold(entries, tag):
        acc = None
        for e in entries:
            acc = e if acc is None else merge(acc, e, tag)
        return acc

    by_segment = {}
    for part, leaves in zip(parts, part_leaves):
        if not leaves:
            continue
        tag = "%s%d" % (part.region, part.segment)
        acc = fold([(lf, open_counts(Counter(lf.indices)), plain) for lf, plain in leaves], tag)
        by_segment.setdefault(part.segment, []).append(acc)
    seg_accs = [fold(by_segment[s], "S%d" % s) for s in sorted(by_segment)]
    root = fold(seg_accs, "join")

    summed = Counter(l for node in steps for l in node.var)
    if set(summed) != set(total) - boundary or any(c != 1 for c in summed.values()):
        raise PlanError("label accounting mismatch between plan steps and circuit")
    return Plan(parts, DenseTensor.constant(1) if root is None else root[0], steps)


def plan_circuit(net, cfg=None):
    return plan_from_parts(net, partition(net.circuit, cfg if cfg is not None else PartitionConfig()))


def execute_plan(plan, store, deadline=None):
    """Run the plan bottom-up in the given store; returns (Tdd, stats).

    stats["peak_nodes"] is the largest number of distinct nodes reachable
    from the plan's live values (leaves made and step results not yet
    consumed), taken before and after every step and never below
    stats["final_nodes"]; each step's "nodes" is the size of its result.
    store.stats()["peak_nodes"] is another figure: the most nodes the store
    has held, garbage included.

    A step whose operands are both dense (leaves, or earlier dense results)
    and whose result has at most DENSE_RANK labels runs as contract_dense
    and holds no nodes: its record has "dense": True, its "rank", and
    "nodes" None. A dense value is generated into the store only when a
    diagram step takes it as an operand, or when it is the plan's root.

    deadline is an absolute time.monotonic() value. It is checked between
    steps and, through the store, inside a step as new nodes are made;
    exceeding it raises PlanTimeout. Before it is raised, every node this
    plan made is swept from the store (none of its values has reached the
    caller), so the store is sound and holds what it held before the call.
    The store's deadline is cleared again when this function returns or
    raises.
    """
    base = len(store.level)
    store.deadline = deadline
    try:
        return _execute(plan, store, deadline, base)
    except PlanTimeout:
        store.collect((), keep_below=base)
        raise
    finally:
        store.deadline = None


def _execute(plan, store, deadline, base):
    t0 = time.perf_counter()
    # the exact live peak is kept incrementally, at the cost of walking each
    # value once: live maps id(plan entry) to (value, the node ids it
    # reaches), and refs counts the live values reaching each node id
    live = {}
    refs = {}
    peak = 0

    def put(key, value):
        """Make value live; returns its node count."""
        ids = reachable(store, [value.root.target])
        live[key] = (value, ids)
        for t in ids:
            refs[t] = refs.get(t, 0) + 1
        return len(ids)

    def take(key):
        value, ids = live.pop(key)
        for t in ids:
            c = refs[t] - 1
            if c:
                refs[t] = c
            else:
                del refs[t]
        return value

    # the results of dense steps not yet consumed, by id(plan entry)
    dense = {}

    def take_dense(entry):
        return entry if isinstance(entry, DenseTensor) else dense.pop(id(entry), None)

    step_log = []
    for node in plan.steps:
        if deadline is not None and time.monotonic() > deadline:
            raise PlanTimeout("plan deadline passed before step %s" % node.tag)
        record = {"tag": node.tag, "m": node.mnr[0], "n": node.mnr[1],
                  "r": node.mnr[2], "var": len(node.var)}
        step_log.append(record)
        ld, rd = take_dense(node.left), take_dense(node.right)
        if ld is not None and rd is not None:
            rank = len(set(ld.indices).union(rd.indices).difference(node.var))
            if rank <= DENSE_RANK:
                dense[id(node)] = contract_dense(ld, rd, node.var, store.order)
                record.update(dense=True, rank=rank, nodes=None)
                continue
        for side, value in ((node.left, ld), (node.right, rd)):
            if value is not None:
                put(id(side), generate(store, value))
        # sampled before each diagram step only: the live set after a step
        # is contained in the one before the next (only generated dense
        # values join in between) or is the final result
        peak = max(peak, len(refs))
        lv = take(id(node.left))
        rv = take(id(node.right))
        if node.var:
            res = contract(lv, rv, node.var)
        else:
            res = tensor_product(lv, rv)
        record["nodes"] = put(id(node), res)
        # the store only grows during contraction; sweep dead nodes
        # between steps so long runs stay within memory (anything that
        # existed before this plan started is left alone). refs holds
        # exactly the ids the live values reach
        if len(store.unique) > store.gc_limit:
            store.collect(refs, keep_below=base)
    root = take_dense(plan.root)
    if root is not None:
        put(id(plan.root), generate(store, root))
    result = take(id(plan.root))
    final = size(result)
    stats = {
        "final_nodes": final,
        "peak_nodes": max(peak, final),
        "steps": step_log,
        "elapsed_s": time.perf_counter() - t0,
        "store": store.stats(),
    }
    return result, stats
