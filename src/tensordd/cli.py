"""Command line tools: simulate, amplitude, equivalence, DOT export, bench."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .circuit import (Circuit, QasmError, allocate_indices, functionality_dense, inverse_gate,
                      parse_qasm_file)
from .dense import DenseTensor, IndexLabel, IndexOrder
from .diagram import (NodeStore, PlanTimeout, contract, evaluate, export_dot, generate,
                      relabel, tensor_product, to_dense)
from .numerics import ToleranceConfig, format_weight, is_one
from .planner import (PartitionConfig, PlanError, execute_plan,
                      partition_miter, plan_circuit, plan_from_parts)

SCHEMES = ("seq", "p1", "p2")

# comparison-grid position for output labels; far above any real wire segment
SPLIT_POS = 1_000_000

# --verify builds the dense oracle, 2^(2n) entries for n qubits
VERIFY_MAX_QUBITS = 10

TIMEOUT_HELP = ("wall-clock budget in seconds for building each diagram; checked "
                "between plan steps and inside a step as new nodes are made")


class CliError(ValueError):
    pass


def _order(args):
    return IndexOrder(getattr(args, "inverse_order", False))


def _tolerance(args):
    try:
        return ToleranceConfig(eps=args.eps, norm_eps=args.norm_eps)
    except ValueError as exc:
        raise CliError("--eps/--norm-eps: %s" % exc) from None


def _partition_config(args, scheme=None):
    return PartitionConfig(scheme if scheme is not None else args.scheme,
                           k=args.k, k1=args.k1, k2=args.k2)


def _plan(path, args, scheme=None):
    circ = parse_qasm_file(path)
    net = allocate_indices(circ, _order(args))
    cfg = _partition_config(args, scheme).resolve(circ.n_qubits)
    return circ, net, cfg, plan_circuit(net, cfg)


def _deadline(timeout_s):
    return None if timeout_s is None else time.monotonic() + timeout_s


def _run_circuit(path, args, scheme=None, timeout_s=None, verify=False):
    """Parse, plan and build one circuit; returns its report.

    With verify, a circuit of at most VERIFY_MAX_QUBITS qubits is compared
    with the dense oracle; a larger one is left unverified (None). Running
    past timeout_s gives a timed-out report, and running out of memory one
    with an error; both still have the circuit's size and plan.
    """
    name = Path(path).stem
    circ, net, cfg, plan = _plan(path, args, scheme)
    store = NodeStore(net.order, _tolerance(args))
    try:
        tdd, stats = execute_plan(plan, store, _deadline(timeout_s))
    except PlanTimeout:
        return _report(name, circ, cfg, plan, None, timeout_s=timeout_s, timed_out=True)
    except MemoryError:
        # the store goes with this frame and is not swept: a node append cut
        # short can leave its parallel lists misaligned
        return _report(name, circ, cfg, plan, None, error="out of memory building the diagram")
    verified = None
    max_dev = None
    if verify and circ.n_qubits <= VERIFY_MAX_QUBITS:
        got = to_dense(tdd, net.order.sort(net.open_labels())).values
        max_dev = float(np.max(np.abs(got - functionality_dense(net).values)))
        verified = max_dev <= args.norm_eps
    return _report(name, circ, cfg, plan, stats, verified=verified, max_deviation=max_dev)


def _report(name, circ, cfg, plan, stats, timeout_s=None, timed_out=False,
            verified=None, max_deviation=None, error=None):
    report = {
        "circuit": name,
        "n_qubits": circ.n_qubits if circ is not None else None,
        "gates": len(circ.gates) if circ is not None else None,
        "scheme": cfg.scheme,
        "params": {"k": cfg.k, "k1": cfg.k1, "k2": cfg.k2,
                   "horizontal_cut": circ.n_qubits // 2 if circ is not None else None},
        "parts": len(plan.parts) if plan is not None else None,
        "elapsed_ms": None if stats is None else stats["elapsed_s"] * 1000.0,
        "time_s": (">%.2f" % timeout_s) if timed_out
                  else (None if stats is None else "%.2f" % stats["elapsed_s"]),
        "final_nodes": None if stats is None else stats["final_nodes"],
        "peak_nodes": None if stats is None else stats["peak_nodes"],
        "cache": None if stats is None else stats["store"],
        "timed_out": timed_out,
        "verified": verified,
        "max_deviation": max_deviation,
    }
    if error is not None:
        report["error"] = error
    return report


def _emit_json(obj, dest):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        Path(dest).write_text(text + "\n")


def cmd_sim(args):
    report = _run_circuit(args.file, args, timeout_s=args.timeout_s, verify=args.verify)
    if args.verify and not report["timed_out"] and report["n_qubits"] > VERIFY_MAX_QUBITS:
        raise CliError("--verify supports at most %d qubits, got %d"
                       % (VERIFY_MAX_QUBITS, report["n_qubits"]))
    if args.json:
        _emit_json(report, args.json)
    if report["timed_out"]:
        print("timed out after %.2f s" % args.timeout_s, file=sys.stderr)
        return 1
    if "error" in report:
        print("error: %s" % report["error"], file=sys.stderr)
        return 1
    if not args.json:
        print("circuit: %s (%d qubits, %d gates)"
              % (report["circuit"], report["n_qubits"], report["gates"]))
        print("scheme: %s  parts: %d" % (report["scheme"], report["parts"]))
        print("final nodes: %d  peak nodes: %d" % (report["final_nodes"], report["peak_nodes"]))
        print("time: %.1f ms" % report["elapsed_ms"])
        if report["verified"] is not None:
            print("verify: max deviation %.3g (%s %g)"
                  % (report["max_deviation"], "<=" if report["verified"] else ">",
                     args.norm_eps))
    return 0 if report["verified"] in (None, True) else 1


def _parse_bits(text, n, what):
    if len(text) != n or set(text) - {"0", "1"}:
        raise CliError("%s must be %d bits of 0/1, got %r" % (what, n, text))
    return tuple(int(c) for c in text)


def amplitude(net, tdd, in_bits, out_bits):
    """<out|U|in> for one basis pair, bit 0 belonging to qubit 0."""
    assignment = net.boundary_assignment(in_bits, out_bits)
    if assignment is None:
        return 0j
    return evaluate(tdd, assignment)


def cmd_amp(args):
    circ, net, _, plan = _plan(args.file, args)
    in_bits = _parse_bits(args.in_bits, circ.n_qubits, "input bitstring")
    out_bits = _parse_bits(args.out_bits, circ.n_qubits, "output bitstring")
    try:
        tdd, _ = execute_plan(plan, NodeStore(net.order, _tolerance(args)),
                              _deadline(args.timeout_s))
    except PlanTimeout:
        print("timed out after %.2f s" % args.timeout_s, file=sys.stderr)
        return 1
    a = amplitude(net, tdd, in_bits, out_bits)
    print(format_weight(a))
    return 0


def boundary_normalized(tdd, net):
    """Rewrite a circuit TDD onto the comparison grid: inputs at (q, 0),
    outputs at (q, SPLIT_POS), diagonal wires embedded via an identity factor."""
    store = tdd.store
    out = tdd
    mapping = {}
    for q in range(net.circuit.n_qubits):
        lin, lout = net.in_label[q], net.out_label[q]
        if lin == lout:
            ident = DenseTensor.from_flat((lin, IndexLabel(q, SPLIT_POS)), [1, 0, 0, 1])
            out = contract(out, generate(store, ident), ())
        else:
            mapping[lout] = IndexLabel(q, SPLIT_POS)
    if mapping:
        out = relabel(out, mapping)
    return out


def _identity(store, n_qubits):
    """The n-qubit identity on the comparison grid of boundary_normalized."""
    out = None
    for q in range(n_qubits):
        delta = generate(store, DenseTensor.from_flat(
            (IndexLabel(q, 0), IndexLabel(q, SPLIT_POS)), [1, 0, 0, 1]))
        out = delta if out is None else tensor_product(out, delta)
    return out


def equivalent(path_a, path_b, args, up_to_phase=False):
    """Whether circuits A and B have the same functionality (up to a global
    phase if asked). Builds the miter B^-1 * A, contracting from the A/B
    junction outward (Burgholzer & Wille, "Advanced equivalence checking for
    quantum circuits", IEEE TCAD 2021), and compares it with the identity;
    neither circuit's own functionality is built. Building the miter raises
    PlanTimeout once args.timeout_s (None: no limit) has passed."""
    circ_a = parse_qasm_file(path_a)
    circ_b = parse_qasm_file(path_b)
    n = circ_a.n_qubits
    if n != circ_b.n_qubits:
        raise CliError("qubit counts differ: %d vs %d" % (n, circ_b.n_qubits))
    order = _order(args)
    tol = _tolerance(args)
    miter = Circuit(n, circ_a.gates + tuple(inverse_gate(g) for g in reversed(circ_b.gates)))
    net = allocate_indices(miter, order)
    plan = plan_from_parts(net, partition_miter(len(circ_a.gates), len(circ_b.gates)))
    store = NodeStore(order, tol)
    tdd, _ = execute_plan(plan, store, _deadline(args.timeout_s))
    root = boundary_normalized(tdd, net).root
    if root.target != _identity(store, n).root.target:
        return False
    if up_to_phase:
        return abs(abs(root.weight) - 1) <= tol.eps
    return is_one(root.weight, tol)


def cmd_equiv(args):
    try:
        same = equivalent(args.file_a, args.file_b, args, up_to_phase=args.up_to_phase)
    except PlanTimeout:
        print("undecided: timed out after %.2f s" % args.timeout_s)
        return 1
    mode = "up to global phase" if args.up_to_phase else "exactly"
    print("equivalent (%s)" % mode if same else "not equivalent (%s)" % mode)
    return 0 if same else 1


def cmd_dot(args):
    net = allocate_indices(parse_qasm_file(args.file), _order(args))
    tdd, _ = execute_plan(plan_circuit(net), NodeStore(net.order, _tolerance(args)))
    Path(args.out).write_text(export_dot(tdd))
    return 0


def cmd_bench(args):
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for s in schemes:
        if s not in SCHEMES:
            raise CliError("unknown scheme %r in --schemes" % s)
        # options no circuit can satisfy exit before any file runs; every
        # scheme can cut 2 qubits, so only the options are checked here
        _partition_config(args, s).resolve(2)
    reports = []
    for path in sorted(Path(args.directory).glob("*.qasm")):
        for scheme in schemes:
            try:
                reports.append(_run_circuit(str(path), args, scheme=scheme,
                                            timeout_s=args.timeout_s, verify=args.verify))
            except (QasmError, PlanError, OSError) as exc:
                reports.append(_report(path.stem, None, _partition_config(args, scheme),
                                       None, None, error=str(exc)))
    _emit_json(reports, args.json)
    return 0


def _add_common(sp, partition=True, scheme=True):
    """Options shared by the commands: index order and tolerances, then the
    partition options unless partition=False."""
    sp.add_argument("--inverse-order", action="store_true",
                    help="reverse the qubit-major index order")
    sp.add_argument("--eps", type=float, default=1e-10,
                    help="weight canonicalization grid (default 1e-10)")
    sp.add_argument("--norm-eps", type=float, default=1e-9,
                    help="comparison tolerance (default 1e-9)")
    if not partition:
        return
    if scheme:
        sp.add_argument("--scheme", choices=SCHEMES, default="seq",
                        help="contraction strategy (default seq)")
    sp.add_argument("--k", type=int, default=None, help="scheme p1 crossing-CX budget")
    sp.add_argument("--k1", type=int, default=None, help="scheme p2 CX-cut budget")
    sp.add_argument("--k2", type=int, default=None, help="scheme p2 C-block qubit cap")


def build_parser():
    p = argparse.ArgumentParser(
        prog="tdd",
        description="Decision-diagram toolkit for quantum circuit tensors.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sim", help="build a circuit's diagram and report sizes")
    sp.add_argument("file")
    _add_common(sp)
    sp.add_argument("--verify", action="store_true",
                    help="compare against dense contraction (<= 10 qubits)")
    sp.add_argument("--json", metavar="PATH", default=None,
                    help="write the run report as JSON ('-' for stdout)")
    sp.add_argument("--timeout-s", type=float, default=None, help=TIMEOUT_HELP)
    sp.set_defaults(func=cmd_sim)

    sp = sub.add_parser("amp", help="print one transition amplitude")
    sp.add_argument("file")
    sp.add_argument("in_bits", help="input basis bitstring, qubit 0 first")
    sp.add_argument("out_bits", help="output basis bitstring, qubit 0 first")
    _add_common(sp)
    sp.add_argument("--timeout-s", type=float, default=None, help=TIMEOUT_HELP)
    sp.set_defaults(func=cmd_amp)

    sp = sub.add_parser("equiv", help="check two circuits for equivalence",
                        description="Check B^-1 * A against the identity, contracting "
                        "from the A/B junction outward; neither circuit's own "
                        "diagram is built.")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--up-to-phase", action="store_true",
                    help="ignore a global phase difference")
    _add_common(sp, partition=False)
    sp.add_argument("--scheme", choices=SCHEMES, default="seq",
                    help="accepted but not used: equiv plans its own miter")
    sp.add_argument("--timeout-s", type=float, default=None, help=TIMEOUT_HELP)
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("dot", help="export a circuit's diagram as Graphviz DOT")
    sp.add_argument("file")
    sp.add_argument("out")
    _add_common(sp, partition=False)
    sp.set_defaults(func=cmd_dot)

    sp = sub.add_parser("bench", help="run every .qasm in a directory, JSON report")
    sp.add_argument("directory")
    sp.add_argument("--schemes", default="seq,p1,p2",
                    help="comma separated subset of seq,p1,p2")
    sp.add_argument("--timeout-s", type=float, default=3600.0,
                    help=TIMEOUT_HELP + " (default 3600)")
    sp.add_argument("--json", metavar="PATH", default="-")
    sp.add_argument("--verify", action="store_true")
    _add_common(sp, scheme=False)
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, QasmError, PlanError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
