"""OpenQASM 2 front end: parsing, gate tensors and wire-label allocation."""

from __future__ import annotations

import ast
import cmath
import math
import operator
import re
import string
import warnings
from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor, IndexLabel, IndexOrder

GATE_QUBITS = {
    "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 1, "u3": 1,
    "cx": 2, "cz": 2, "swap": 2, "ccx": 3,
}
GATE_PARAMS = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3}

# gates acting diagonally on every wire they touch
DIAGONAL = {"z", "s", "sdg", "t", "tdg", "rz", "u1", "cz"}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple
    params: tuple = ()


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple


class QasmError(ValueError):
    pass


# a qubit gives at least one decision level, usually two; the kernel recurses
# one frame per level, under diagram.RECURSION_LIMIT (30000) while it runs
MAX_QUBITS = 10_000

# checked as gates are parsed, so a longer file stops before it is planned
MAX_GATES = 100_000

# "u3(-1.2345678901234568e-05,<same>,<same>) q[9999];\n", three full-precision
# angles on a 4-digit qubit, is 85 bytes, the longest gate statement a
# generator writes; a file gets three times that per gate for comments and
# indentation, and a larger one is refused after MAX_BYTES + 1 bytes are read
MAX_BYTES = MAX_GATES * 256


_PARAM_CHARS = re.compile(r"^[0-9eE.+\-*/() pi]*$")
_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d{1,9})\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\(([^()]*(?:\([^()]*\)[^()]*)*)\))?\s*(.*)$")
_ARG_RE = re.compile(r"^([A-Za-z_]\w*)\s*\[\s*(\d{1,9})\s*\]$")

_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval_ast(node):
    """Value of a parameter expression: numbers, pi, unary +/-, + - * /."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_eval_ast(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_eval_ast(node.left), _eval_ast(node.right))
    raise ValueError("unsupported expression")


def _eval_param(text, line):
    """A gate parameter's value; QasmError unless it is a finite number."""
    expr = text.strip()
    if _PARAM_CHARS.match(expr):
        try:
            value = _eval_ast(ast.parse(expr, mode="eval").body)
            if math.isfinite(value):
                return value
        # the parser reports nesting too deep for it as MemoryError or
        # RecursionError
        except (SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError):
            pass
    raise QasmError("line %d: bad parameter %r" % (line, text))


def _statements(text):
    """Split into ';'-terminated statements, remembering the starting line."""
    out = []
    buf = []
    start = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        for ch in raw.split("//")[0]:
            if ch == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    out.append((stmt, start))
                buf = []
                start = None
            else:
                if start is None and not ch.isspace():
                    start = lineno
                buf.append(ch)
        buf.append(" ")
    tail = "".join(buf).strip()
    if tail:
        raise QasmError("line %d: statement missing ';': %r" % (start, tail[:40]))
    return out


def parse_qasm(text):
    """Parse an OpenQASM 2.0 string with a single qreg and a fixed gate set."""
    n_qubits = None
    reg = None
    gates = []
    warned = set()
    for stmt, line in _statements(text):
        head = stmt.split(None, 1)[0]
        if head == "OPENQASM":
            parts = stmt.split(None, 1)
            if len(parts) != 2 or parts[1].strip() != "2.0":
                raise QasmError("line %d: only OPENQASM 2.0 is supported" % line)
            continue
        if head == "include":
            continue
        if head == "qreg":
            m = _QREG_RE.match(stmt)
            if not m:
                raise QasmError("line %d: bad qreg statement" % line)
            if reg is not None:
                raise QasmError("line %d: multiple qregs are not supported" % line)
            reg, n_qubits = m.group(1), int(m.group(2))
            if n_qubits < 1:
                raise QasmError("line %d: empty qreg" % line)
            if n_qubits > MAX_QUBITS:
                raise QasmError("line %d: qreg of %d qubits exceeds the cap of %d"
                                % (line, n_qubits, MAX_QUBITS))
            continue
        if head in ("creg", "measure", "barrier"):
            if head not in warned:
                warnings.warn("ignoring %s statements" % head, stacklevel=2)
                warned.add(head)
            continue
        if head in ("gate", "opaque", "if"):
            raise QasmError("line %d: %r statements are not supported" % (line, head))
        m = _GATE_RE.match(stmt)
        if not m:
            raise QasmError("line %d: cannot parse statement %r" % (line, stmt[:40]))
        name, params_text, args_text = m.group(1), m.group(2), m.group(3)
        kind = name.lower()
        if kind not in GATE_QUBITS:
            raise QasmError("line %d: unsupported gate %r" % (line, name))
        if reg is None:
            raise QasmError("line %d: gate before qreg" % line)
        want_params = GATE_PARAMS.get(kind, 0)
        params = tuple(_eval_param(p, line) for p in params_text.split(",")) if params_text else ()
        if len(params) != want_params:
            raise QasmError("line %d: %s takes %d parameter(s), got %d"
                            % (line, kind, want_params, len(params)))
        qubits = []
        for arg in args_text.split(","):
            am = _ARG_RE.match(arg.strip())
            if not am:
                raise QasmError("line %d: bad qubit argument %r" % (line, arg.strip()))
            if am.group(1) != reg:
                raise QasmError("line %d: unknown register %r" % (line, am.group(1)))
            q = int(am.group(2))
            if q >= n_qubits:
                raise QasmError("line %d: qubit %d out of range" % (line, q))
            qubits.append(q)
        if len(qubits) != GATE_QUBITS[kind]:
            raise QasmError("line %d: %s takes %d qubit(s), got %d"
                            % (line, kind, GATE_QUBITS[kind], len(qubits)))
        if len(set(qubits)) != len(qubits):
            raise QasmError("line %d: repeated qubit in %s" % (line, kind))
        if len(gates) == MAX_GATES:
            raise QasmError("line %d: more than %d gates" % (line, MAX_GATES))
        gates.append(Gate(kind, tuple(qubits), params))
    if n_qubits is None:
        raise QasmError("no qreg declared")
    return Circuit(n_qubits, tuple(gates))


def parse_qasm_file(path):
    with open(path, "rb") as fh:
        data = fh.read(MAX_BYTES + 1)
    if len(data) > MAX_BYTES:
        raise QasmError("file is larger than %d bytes" % MAX_BYTES)
    try:
        return parse_qasm(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise QasmError("file is not UTF-8 text: %s" % exc) from None


_SQ2 = 1.0 / math.sqrt(2.0)


def gate_matrix(kind, params=()):
    """Unitary matrix of a gate, first listed qubit most significant."""
    if kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if kind == "z":
        return np.diag([1, -1]).astype(complex)
    if kind == "h":
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
    if kind == "s":
        return np.diag([1, 1j]).astype(complex)
    if kind == "sdg":
        return np.diag([1, -1j]).astype(complex)
    if kind == "t":
        return np.diag([1, cmath.exp(0.25j * math.pi)]).astype(complex)
    if kind == "tdg":
        return np.diag([1, cmath.exp(-0.25j * math.pi)]).astype(complex)
    if kind == "rx":
        th = params[0] / 2
        return np.array([[math.cos(th), -1j * math.sin(th)],
                         [-1j * math.sin(th), math.cos(th)]], dtype=complex)
    if kind == "ry":
        th = params[0] / 2
        return np.array([[math.cos(th), -math.sin(th)],
                         [math.sin(th), math.cos(th)]], dtype=complex)
    if kind == "rz":
        th = params[0] / 2
        return np.diag([cmath.exp(-1j * th), cmath.exp(1j * th)]).astype(complex)
    if kind == "u1":
        return np.diag([1, cmath.exp(1j * params[0])]).astype(complex)
    if kind == "u2":
        ph, lam = params
        return _SQ2 * np.array([[1, -cmath.exp(1j * lam)],
                                [cmath.exp(1j * ph), cmath.exp(1j * (ph + lam))]], dtype=complex)
    if kind == "u3":
        th, ph, lam = params
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -cmath.exp(1j * lam) * s],
                         [cmath.exp(1j * ph) * s, cmath.exp(1j * (ph + lam)) * c]], dtype=complex)
    if kind == "cx":
        m = np.eye(4, dtype=complex)
        m[[2, 3]] = m[[3, 2]]
        return m
    if kind == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "swap":
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    if kind == "ccx":
        m = np.eye(8, dtype=complex)
        m[[6, 7]] = m[[7, 6]]
        return m
    raise ValueError("unknown gate kind %r" % (kind,))


def diagonal_wires(gate):
    """Per listed qubit, True when the gate acts diagonally on that wire."""
    if gate.kind in DIAGONAL:
        return (True,) * len(gate.qubits)
    if gate.kind == "cx":
        return (True, False)
    if gate.kind == "ccx":
        return (True, True, False)
    return (False,) * len(gate.qubits)


@dataclass
class CircuitNet:
    """A circuit's gate tensors plus the wire-boundary bookkeeping."""

    circuit: Circuit
    order: IndexOrder
    tensors: list   # DenseTensor of circuit.gates[i], over its order-sorted labels
    in_label: dict
    out_label: dict

    def open_labels(self):
        return set(self.in_label.values()) | set(self.out_label.values())

    def boundary_assignment(self, in_bits, out_bits):
        """Label assignment for an amplitude query, or None when a shared
        in/out label is asked to take two different bits (the wire is
        diagonal, so such an amplitude is 0)."""
        a = {}
        for q in range(self.circuit.n_qubits):
            lin, lout = self.in_label[q], self.out_label[q]
            if lin == lout and in_bits[q] != out_bits[q]:
                return None
            a[lin] = in_bits[q]
            a[lout] = out_bits[q]
        return a


def _matrix_dense(U, wires, order):
    """The matrix U[out, in] as a tensor over the wires' distinct labels.

    wires holds one (in_label, out_label) pair per qubit of U, most
    significant first; a wire with one shared label reads U's diagonal on it.
    """
    labels = tuple(order.sort({lab for w in wires for lab in w}))
    letter = {lab: string.ascii_letters[i] for i, lab in enumerate(labels)}
    # one gather: U's axes are the out wires then the in wires, and a letter
    # repeated on a shared label takes the diagonal. einsum may return a view
    # of U, so the tensor keeps a copy
    spec = "%s%s->%s" % ("".join(letter[lout] for _, lout in wires),
                         "".join(letter[lin] for lin, _ in wires),
                         "".join(letter[lab] for lab in labels))
    vals = np.einsum(spec, U.reshape((2,) * (2 * len(wires))))
    return DenseTensor(labels, vals.copy())


def allocate_indices(circ, order=None):
    """Scan the circuit qubit-wise, labeling wire segments left to right.

    A wire the gate acts on diagonally keeps its current label (the input
    and output share it, forming a hyper edge); only non-diagonal touches
    advance the position counter.
    """
    order = order if order is not None else IndexOrder()
    pos = {q: 0 for q in range(circ.n_qubits)}
    tensors = []
    for gate in circ.gates:
        wires = []
        for q, diag in zip(gate.qubits, diagonal_wires(gate)):
            lin = IndexLabel(q, pos[q])
            if diag:
                wires.append((lin, lin))
            else:
                pos[q] += 1
                wires.append((lin, IndexLabel(q, pos[q])))
        tensors.append(_matrix_dense(gate_matrix(gate.kind, gate.params), wires, order))
    in_label = {q: IndexLabel(q, 0) for q in range(circ.n_qubits)}
    out_label = {q: IndexLabel(q, pos[q]) for q in range(circ.n_qubits)}
    return CircuitNet(circ, order, tensors, in_label, out_label)


_SELF_INVERSE = {"x", "y", "z", "h", "cx", "cz", "swap", "ccx"}
_DAGGER = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


def inverse_gate(gate):
    """The gate whose matrix is the inverse of gate's, on the same qubits."""
    kind, params = gate.kind, gate.params
    if kind in _SELF_INVERSE:
        return gate
    if kind in _DAGGER:
        return Gate(_DAGGER[kind], gate.qubits)
    if kind in ("rx", "ry", "rz", "u1"):
        return Gate(kind, gate.qubits, (-params[0],))
    if kind == "u2":
        phi, lam = params
        return Gate("u3", gate.qubits, (-math.pi / 2, -lam, -phi))
    if kind == "u3":
        theta, phi, lam = params
        return Gate("u3", gate.qubits, (-theta, -lam, -phi))
    raise ValueError("unknown gate kind %r" % (kind,))


def circuit_unitary(circ):
    """Brute-force 2^n x 2^n matrix, qubit 0 most significant, gates left to right."""
    n = circ.n_qubits
    if n > 12:
        raise ValueError("unitary oracle capped at 12 qubits")
    U = np.eye(2 ** n, dtype=complex).reshape((2,) * (2 * n))
    for gate in circ.gates:
        a = len(gate.qubits)
        G = gate_matrix(gate.kind, gate.params).reshape((2,) * (2 * a))
        U = np.tensordot(G, U, axes=(tuple(range(a, 2 * a)), tuple(gate.qubits)))
        U = np.moveaxis(U, tuple(range(a)), tuple(gate.qubits))
    return U.reshape(2 ** n, 2 ** n)


def unitary_as_dense(circ, net):
    """The unitary oracle reshaped onto the net's (possibly shared) open labels."""
    wires = [(net.in_label[q], net.out_label[q]) for q in range(circ.n_qubits)]
    return _matrix_dense(circuit_unitary(circ), wires, net.order)
