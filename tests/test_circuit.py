import itertools
import math
import random

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensordd.circuit import (
    GATE_PARAMS,
    GATE_QUBITS,
    MAX_BYTES,
    MAX_GATES,
    MAX_QUBITS,
    Circuit,
    Gate,
    QasmError,
    allocate_indices,
    circuit_unitary,
    diagonal_wires,
    gate_matrix,
    inverse_gate,
    parse_qasm,
    parse_qasm_file,
    unitary_as_dense,
)
from tensordd.dense import IndexLabel

from util import random_circuit

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'


# --- parsing ---


def test_parse_basic():
    circ = parse_qasm(HEADER + "h q[0];\ncx q[0],q[1];\nrz(pi/2) q[2];")
    assert circ.n_qubits == 3
    assert [g.kind for g in circ.gates] == ["h", "cx", "rz"]
    assert circ.gates[1].qubits == (0, 1)
    assert circ.gates[2].params == (math.pi / 2,)


def test_parse_param_expressions():
    circ = parse_qasm(HEADER + "u3(pi/4, 2*pi, -0.5) q[1];")
    th, ph, lam = circ.gates[0].params
    assert th == math.pi / 4 and ph == 2 * math.pi and lam == -0.5


def test_parse_comments_and_multiline():
    circ = parse_qasm(HEADER + "// full line comment\nh\n  q[0]; x q[1]; // trailing")
    assert [g.kind for g in circ.gates] == ["h", "x"]


def test_parse_ignores_measure_with_warning():
    with pytest.warns(UserWarning):
        circ = parse_qasm(HEADER + "creg c[3];\nh q[0];\nmeasure q[0] -> c[0];")
    assert [g.kind for g in circ.gates] == ["h"]


@pytest.mark.parametrize("text", [
    "qreg q[2]; h q[0];",                      # missing version is fine? no: version optional
])
def test_parse_version_optional(text):
    assert parse_qasm(text).n_qubits == 2


@pytest.mark.parametrize("bad", [
    "OPENQASM 3.0;\nqreg q[1];",
    HEADER + "h q[0]",                          # missing semicolon
    HEADER + "frobnicate q[0];",                # unknown gate
    HEADER + "h q[3];",                         # out of range
    HEADER + "cx q[1],q[1];",                   # repeated qubit
    HEADER + "rz q[0];",                        # missing parameter
    HEADER + "h(0.5) q[0];",                    # unexpected parameter
    HEADER + "h r[0];",                         # unknown register
    HEADER + "qreg r[2];",                      # second register
    HEADER + "rz(import) q[0];",                # bad parameter text
    HEADER + "rz(2**10) q[0];",                 # power is not in the grammar
    HEADER + "rz(1e999) q[0];",                 # non-finite value
    HEADER + "rz(1e308*10) q[0];",              # overflows to inf
    HEADER + "rz(1/0) q[0];",                   # division by zero
    HEADER + "rz(0x10) q[0];",                  # hex literal
    HEADER + "rz(pi pi) q[0];",                 # two operands, no operator
    pytest.param(HEADER + "rz(%s1) q[0];" % ("-" * 100000), id="nested-too-deep"),
    pytest.param("OPENQASM 2.0;\nqreg q[%s];" % ("9" * 5000), id="5000-digit-qreg"),
    pytest.param("OPENQASM 2.0;\nqreg q[%d];" % (MAX_QUBITS + 1), id="over-cap-qreg"),
    pytest.param(HEADER + "h q[0];\n" * (MAX_GATES + 1), id="over-cap-gates"),
    HEADER + "gate foo a { h a; };",            # user-defined gates unsupported
    "h q[0];",                                  # gate before qreg
    "OPENQASM 2.0;\nqreg q[0];",                # empty register
    "OPENQASM 2.0;\nh q[0];\n",                 # no qreg at all
])
def test_parse_errors(bad):
    with pytest.raises(QasmError):
        parse_qasm(bad)


def test_parse_qreg_at_cap():
    assert parse_qasm("OPENQASM 2.0;\nqreg q[%d];" % MAX_QUBITS).n_qubits == MAX_QUBITS


def test_parse_gates_at_cap():
    circ = parse_qasm(HEADER + "cx q[0],q[1];\n" * MAX_GATES)
    assert len(circ.gates) == MAX_GATES


def test_parse_file_at_byte_cap(tmp_path):
    # a long comment fills the file to the cap without making the parse slow
    text = HEADER + "h q[0];\n//"
    path = tmp_path / "cap.qasm"
    path.write_text(text + "x" * (MAX_BYTES - len(text)))
    assert path.stat().st_size == MAX_BYTES
    assert len(parse_qasm_file(path).gates) == 1
    with open(path, "a") as fh:
        fh.write("x")
    with pytest.raises(QasmError, match="larger than"):
        parse_qasm_file(path)


def test_parse_param_grammar():
    circ = parse_qasm(HEADER + "u3(-(pi+1)*2/3, +.5e-3, 3.) q[0];")
    assert circ.gates[0].params == (-(math.pi + 1) * 2 / 3, 0.5e-3, 3.0)


QASM_TOKENS = ["OPENQASM 2.0;", "OPENQASM 3.0;", 'include "qelib1.inc";', "qreg q[3];",
               "qreg q[0];", "qreg r[2];", "creg c[3];", "measure q[0] -> c[0];",
               "barrier q;", "gate g a { h a; }", "if", ";", "\n", " ", "//", "(", ")",
               ",", "[", "]", "q[0]", "q[1]", "q[2]", "q[7]", "r[0]", "pi", "1e999",
               "2**10", "-", "/", "*", "0.5"] + sorted(GATE_QUBITS)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(max_size=80),
                 st.lists(st.sampled_from(QASM_TOKENS), max_size=30).map(" ".join)))
def test_parse_returns_circuit_or_qasm_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            assert isinstance(parse_qasm(text), Circuit)
        except QasmError:
            pass


# --- gate matrices ---


ALL_GATES = [
    ("x", ()), ("y", ()), ("z", ()), ("h", ()), ("s", ()), ("sdg", ()),
    ("t", ()), ("tdg", ()), ("rx", (0.7,)), ("ry", (1.1,)), ("rz", (-0.4,)),
    ("u1", (0.3,)), ("u2", (0.2, 1.5)), ("u3", (0.9, -0.8, 2.2)),
    ("cx", ()), ("cz", ()), ("swap", ()), ("ccx", ()),
]


@pytest.mark.parametrize("kind,params", ALL_GATES)
def test_gate_matrix_unitary(kind, params):
    U = gate_matrix(kind, params)
    assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]))


def test_gate_matrix_values():
    assert np.array_equal(gate_matrix("x"), [[0, 1], [1, 0]])
    assert np.allclose(gate_matrix("h") @ [1, 0], np.array([1, 1]) / math.sqrt(2))
    cx = gate_matrix("cx")
    # first listed qubit (the control) is the most significant bit
    assert np.array_equal(cx @ np.eye(4)[2], np.eye(4)[3])
    assert np.array_equal(cx @ np.eye(4)[1], np.eye(4)[1])
    t = gate_matrix("t")
    assert abs(t[1, 1] - np.exp(0.25j * math.pi)) < 1e-15
    assert gate_matrix("s")[1, 1] == 1j


def test_u_gates_relate_to_rotations():
    th = 0.77
    # u1(a) == rz(a) up to global phase
    assert np.allclose(gate_matrix("u1", (th,)),
                       np.exp(0.5j * th) * gate_matrix("rz", (th,)))
    # u3(th, -pi/2, pi/2) == rx(th)
    assert np.allclose(gate_matrix("u3", (th, -math.pi / 2, math.pi / 2)),
                       gate_matrix("rx", (th,)))
    assert np.allclose(gate_matrix("u2", (0.2, 1.5)),
                       gate_matrix("u3", (math.pi / 2, 0.2, 1.5)))


@pytest.mark.parametrize("kind", sorted(GATE_QUBITS))
def test_inverse_gate_undoes_gate(kind):
    rng = random.Random("inverse/" + kind)
    for _ in range(5):
        params = tuple(rng.uniform(-2 * math.pi, 2 * math.pi)
                       for _ in range(GATE_PARAMS.get(kind, 0)))
        g = Gate(kind, tuple(range(GATE_QUBITS[kind])), params)
        inv = inverse_gate(g)
        assert inv.qubits == g.qubits
        product = gate_matrix(inv.kind, inv.params) @ gate_matrix(kind, params)
        assert np.allclose(product, np.eye(product.shape[0]), atol=1e-12)


def test_gate_matrix_unknown():
    with pytest.raises(ValueError):
        gate_matrix("nope")


def test_diagonal_wires():
    assert diagonal_wires(Gate("z", (0,))) == (True,)
    assert diagonal_wires(Gate("h", (0,))) == (False,)
    assert diagonal_wires(Gate("cz", (0, 1))) == (True, True)
    assert diagonal_wires(Gate("cx", (0, 1))) == (True, False)
    assert diagonal_wires(Gate("ccx", (0, 1, 2))) == (True, True, False)
    assert diagonal_wires(Gate("swap", (0, 1))) == (False, False)


# --- wire allocation ---


def test_allocate_indices_positions():
    circ = parse_qasm(HEADER + "h q[0];\nt q[0];\ncx q[0],q[1];\nh q[0];")
    net = allocate_indices(circ)
    assert net.in_label == {0: IndexLabel(0, 0), 1: IndexLabel(1, 0), 2: IndexLabel(2, 0)}
    # h advances, t is diagonal (keeps the label), cx control is diagonal
    assert net.out_label[0] == IndexLabel(0, 2)
    assert net.out_label[1] == IndexLabel(1, 1)
    assert net.out_label[2] == IndexLabel(2, 0)   # untouched wire
    assert net.tensors[1].indices == (IndexLabel(0, 1),)  # t's hyper edge: in = out
    # cx: one shared label on the diagonal control, then the target's in and out
    assert net.tensors[2].indices == (IndexLabel(0, 1), IndexLabel(1, 0), IndexLabel(1, 1))


def test_boundary_assignment_diagonal_conflict():
    net = allocate_indices(parse_qasm(HEADER + "z q[0];"))
    assert net.boundary_assignment((1, 0, 0), (0, 0, 0)) is None
    a = net.boundary_assignment((1, 0, 1), (1, 0, 1))
    assert a[IndexLabel(0, 0)] == 1


# --- oracles agree ---


def test_circuit_unitary_bell():
    circ = parse_qasm('OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];')
    U = circuit_unitary(circ)
    want = gate_matrix("cx") @ np.kron(gate_matrix("h"), np.eye(2))
    assert np.allclose(U, want)
    s = 1 / math.sqrt(2)
    # |00> -> (|00> + |11>)/sqrt(2) with qubit 0 most significant
    assert np.allclose(U[:, 0], [s, 0, 0, s])


def test_circuit_unitary_applies_left_to_right():
    circ = parse_qasm('OPENQASM 2.0;\nqreg q[1];\nt q[0];\nh q[0];')
    assert np.allclose(circuit_unitary(circ), gate_matrix("h") @ gate_matrix("t"))


def test_unitary_as_dense_reads_circuit_unitary():
    # _matrix_dense builds both the reference and every gate leaf, so a
    # consistent slip in it (in and out swapped, say) would cancel in every
    # engine-vs-reference test; here each entry is read against U[out, in]
    rng = random.Random(12)
    for _ in range(15):
        circ = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 12))
        n = circ.n_qubits
        net = allocate_indices(circ)
        U = circuit_unitary(circ)
        ref = unitary_as_dense(circ, net)
        assert ref.indices == tuple(net.order.sort(net.open_labels()))
        seen = set()
        for in_bits, out_bits in itertools.product(itertools.product((0, 1), repeat=n), repeat=2):
            # qubit 0 most significant
            row = int("".join(map(str, out_bits)), 2)
            col = int("".join(map(str, in_bits)), 2)
            a = net.boundary_assignment(in_bits, out_bits)
            if a is None:
                assert U[row, col] == 0
                continue
            entry = tuple(a[lab] for lab in ref.indices)
            assert ref.values[entry] == U[row, col]
            seen.add(entry)
        assert len(seen) == 2 ** len(ref.indices)
