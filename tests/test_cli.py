import argparse
import json
import os
import random
import time

import numpy as np
import pytest

from tensordd import circuit, cli, planner
from tensordd.circuit import MAX_QUBITS, circuit_unitary, parse_qasm
from tensordd.cli import build_parser, equivalent, main
from tensordd.dense import DenseTensor
from tensordd.diagram import NodeStore

from util import random_circuit_text

EXAMPLE = "circuits/example_2q.qasm"
DEMO = "circuits/partition_demo.qasm"


def write(tmp_path, name, body):
    """A 1-qubit file; a surrogate escape in body writes that raw byte."""
    p = tmp_path / name
    p.write_bytes(("OPENQASM 2.0;\nqreg q[1];\n" + body).encode("utf-8", "surrogateescape"))
    return str(p)


def test_sim_human_output(capsys):
    assert main(["sim", EXAMPLE, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "2 qubits, 5 gates" in out
    assert "final nodes: 5" in out
    assert "verify: max deviation" in out


def test_sim_json_report(tmp_path):
    dest = tmp_path / "report.json"
    assert main(["sim", EXAMPLE, "--scheme", "p1", "--verify", "--json", str(dest)]) == 0
    report = json.loads(dest.read_text())
    assert report["circuit"] == "example_2q"
    assert report["scheme"] == "p1"
    assert report["final_nodes"] == 5
    assert report["verified"] is True
    assert report["max_deviation"] <= 1e-9
    assert not report["timed_out"]


def test_sim_timeout(tmp_path, capsys):
    assert main(["sim", DEMO, "--timeout-s", "inf"]) == 0
    assert main(["sim", DEMO, "--timeout-s", "0"]) == 1
    assert "timed out" in capsys.readouterr().err
    # parsing and planning finished, so the report still describes them
    dest = tmp_path / "report.json"
    assert main(["sim", DEMO, "--scheme", "p1", "--timeout-s", "0", "--json", str(dest)]) == 1
    report = json.loads(dest.read_text())
    assert report["timed_out"] and report["time_s"] == ">0.00"
    assert (report["n_qubits"], report["gates"], report["parts"]) == (4, 17, 2)
    assert report["params"] == {"k": 2, "k2": 3, "horizontal_cut": 2}
    assert report["final_nodes"] is None and report["verified"] is None


def test_amp_example(capsys):
    assert main(["amp", EXAMPLE, "11", "11"]) == 0
    assert capsys.readouterr().out.strip() == "-1i"


def test_amp_diagonal_wire_conflict_is_zero(tmp_path, capsys):
    path = write(tmp_path, "z.qasm", "z q[0];")
    assert main(["amp", path, "1", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_amp_bad_bits(tmp_path, capsys):
    assert main(["amp", EXAMPLE, "1", "11"]) == 2
    assert "bits" in capsys.readouterr().err


def test_amp_checks_bits_before_building(capsys, monkeypatch):
    def execute_plan(*args, **kwargs):
        raise AssertionError("built before the bitstrings were checked")

    monkeypatch.setattr(cli, "execute_plan", execute_plan)
    assert main(["amp", EXAMPLE, "1", "11"]) == 2
    assert "bits" in capsys.readouterr().err


def test_amp_timeout(capsys):
    assert main(["amp", DEMO, "0000", "0000", "--timeout-s", "1e-9"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == "timed out after 0.00 s" and captured.out == ""


def test_equiv_timeout_is_undecided(capsys):
    assert build_parser().parse_args(["equiv", DEMO, DEMO]).timeout_s is None
    assert main(["equiv", DEMO, DEMO, "--timeout-s", "1e-9"]) == 1
    assert capsys.readouterr().out.strip() == "undecided: timed out after 0.00 s"
    # a budget the build fits in decides as before
    assert main(["equiv", DEMO, DEMO, "--timeout-s", "60"]) == 0
    assert "equivalent (exactly)" in capsys.readouterr().out


def test_equiv_identities(tmp_path, capsys):
    hzh = write(tmp_path, "hzh.qasm", "h q[0];\nz q[0];\nh q[0];")
    x = write(tmp_path, "x.qasm", "x q[0];")
    assert main(["equiv", hzh, x]) == 0
    assert "equivalent (exactly)" in capsys.readouterr().out
    hh = write(tmp_path, "hh.qasm", "h q[0];\nh q[0];")
    empty = write(tmp_path, "empty.qasm", "")
    assert main(["equiv", hh, empty]) == 0


def test_equiv_distinguishes(tmp_path, capsys):
    x = write(tmp_path, "x.qasm", "x q[0];")
    empty = write(tmp_path, "empty.qasm", "")
    assert main(["equiv", x, empty]) == 1
    assert "not equivalent" in capsys.readouterr().out


def test_equiv_up_to_phase(tmp_path):
    rz = write(tmp_path, "rz.qasm", "rz(0.7) q[0];")
    u1 = write(tmp_path, "u1.qasm", "u1(0.7) q[0];")
    assert main(["equiv", rz, u1]) == 1          # differ by global phase
    assert main(["equiv", rz, u1, "--up-to-phase"]) == 0


def test_equiv_qubit_mismatch(tmp_path, capsys):
    x = write(tmp_path, "x.qasm", "x q[0];")
    assert main(["equiv", x, EXAMPLE]) == 2
    assert "qubit counts differ" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--k", "--k1", "--k2"])
def test_equiv_takes_no_partition_budgets(flag):
    # equiv plans its own miter; only --scheme is still accepted, unused
    assert build_parser().parse_args(["equiv", EXAMPLE, EXAMPLE, "--scheme", "p1"]).scheme == "p1"
    with pytest.raises(SystemExit) as info:
        main(["equiv", EXAMPLE, EXAMPLE, flag, "1"])
    assert info.value.code == 2


def _variants(rng, n, lines):
    """(name, B's gate lines) for A's gate lines: an equivalent rewrite, a
    dropped gate, a perturbed angle and a global-phase rewrite."""
    i = rng.randrange(len(lines) + 1)
    pair = ["%s q[%d];" % (rng.choice("hxyz"), rng.randrange(n))] * 2
    yield "rewrite", lines[:i] + pair + lines[i:]
    if lines:
        i = rng.randrange(len(lines))
        yield "drop", lines[:i] + lines[i + 1:]
    angled = [i for i, line in enumerate(lines) if "(" in line]
    if angled:
        i = rng.choice(angled)
        cut = lines[i].index("(") + 1
        yield "perturb", lines[:i] + [lines[i][:cut] + "0.25+" + lines[i][cut:]] + lines[i + 1:]
    # Z*Y*X = -i*I
    yield "phase", lines + ["x q[0];", "y q[0];", "z q[0];"]


def _oracle_equivalent(text_a, text_b, up_to_phase):
    ua = circuit_unitary(parse_qasm(text_a))
    ub = circuit_unitary(parse_qasm(text_b))
    if up_to_phase:
        overlap = np.vdot(ub, ua)
        if abs(overlap) < 1e-6:
            return False
        ub = ub * (overlap / abs(overlap))
    return bool(np.max(np.abs(ua - ub)) <= 1e-9)


def test_equiv_agrees_with_unitary_oracle(tmp_path):
    rng = random.Random(7)
    args = build_parser().parse_args(["equiv", "a", "b"])
    verdicts = set()
    for _ in range(30):
        n = rng.randint(1, 5)
        text_a = random_circuit_text(rng, n, rng.randint(0, 20))
        head, lines = text_a.split("\n")[:3], text_a.split("\n")[3:]
        pa = tmp_path / "a.qasm"
        pa.write_text(text_a)
        for name, body in _variants(rng, n, lines):
            text_b = "\n".join(head + body)
            pb = tmp_path / "b.qasm"
            pb.write_text(text_b)
            for up_to_phase in (False, True):
                want = _oracle_equivalent(text_a, text_b, up_to_phase)
                got = equivalent(str(pa), str(pb), args, up_to_phase=up_to_phase)
                assert got == want, (name, up_to_phase, text_a, text_b)
                verdicts.add((name, up_to_phase, got))
    # every kind of pair met the verdict its construction gives
    for up_to_phase in (False, True):
        assert ("rewrite", up_to_phase, True) in verdicts
        assert ("drop", up_to_phase, False) in verdicts
        assert ("perturb", up_to_phase, False) in verdicts
    assert ("phase", False, False) in verdicts and ("phase", True, True) in verdicts


def test_equiv_10_qubits_200_gates(tmp_path):
    # the performance smoke circuit, whose own diagram has 2^20 - 1 nodes
    text = random_circuit_text(random.Random(99), 10, 200)
    a = tmp_path / "a.qasm"
    a.write_text(text + "\n")
    # an equivalent rewrite: five self-inverse pairs inserted after the header
    rng = random.Random(1)
    lines = text.split("\n")
    for _ in range(5):
        i = rng.randrange(3, len(lines) + 1)
        pair = rng.choice(["h q[%d];" % rng.randrange(10),
                           "cx q[%d],q[%d];" % tuple(rng.sample(range(10), 2))])
        lines[i:i] = [pair, pair]
    b = tmp_path / "b.qasm"
    b.write_text("\n".join(lines) + "\n")
    for other in (a, b):
        t0 = time.perf_counter()
        assert main(["equiv", str(a), str(other)]) == 0
        assert time.perf_counter() - t0 < 20.0


def test_dot_golden(tmp_path):
    dest = tmp_path / "out.dot"
    assert main(["dot", EXAMPLE, str(dest)]) == 0
    golden = os.path.join(os.path.dirname(__file__), "golden_example_2q.dot")
    with open(golden) as fh:
        assert dest.read_text() == fh.read()


def test_dot_takes_no_partition_options(tmp_path):
    # dot always builds under seq
    with pytest.raises(SystemExit) as info:
        main(["dot", EXAMPLE, str(tmp_path / "out.dot"), "--k", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sim", EXAMPLE, "--k1", "1"],
    ["amp", EXAMPLE, "00", "00", "--k1", "1"],
    ["bench", "circuits", "--k1", "1"],
    ["amp", EXAMPLE, "00", "00", "--norm-eps", "1e-9"],
    ["equiv", EXAMPLE, EXAMPLE, "--norm-eps", "1e-9"],
    ["dot", EXAMPLE, "never.dot", "--norm-eps", "1e-9"],
], ids=lambda argv: "%s %s" % (argv[0], argv[-2]))
def test_removed_options_exit_2(argv):
    # p2's budget is --k, and only the commands that verify take --norm-eps
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_norm_eps_below_eps_exits_2(tmp_path, capsys):
    sub = tmp_path / "circs"
    sub.mkdir()
    (sub / "a.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];")
    empty = tmp_path / "empty"
    empty.mkdir()
    dest = tmp_path / "bench.json"
    for argv in (["sim", EXAMPLE], ["bench", str(sub), "--json", str(dest)],
                 ["bench", str(empty), "--json", str(dest)]):
        assert main(argv + ["--eps", "1e-6", "--norm-eps", "1e-9"]) == 2
        assert "--norm-eps must be at least --eps" in capsys.readouterr().err
    assert not dest.exists()


BAD_TOLERANCES = [["--eps", "0"], ["--eps", "1e-6", "--norm-eps", "1e-9"],
                  ["--norm-eps", "nan"]]


@pytest.mark.parametrize("argv", [["sim", EXAMPLE], ["amp", EXAMPLE, "00", "00"],
                                  ["equiv", EXAMPLE, EXAMPLE], ["dot", EXAMPLE, "out.dot"],
                                  ["bench", "circuits"]], ids=lambda argv: argv[0])
def test_tolerance_checked_before_parsing(capsys, monkeypatch, argv):
    def parse_qasm_file(path):
        raise AssertionError("parsed before the tolerance was checked")

    monkeypatch.setattr(cli, "parse_qasm_file", parse_qasm_file)
    # only the commands with --verify take --norm-eps
    for bad in BAD_TOLERANCES if argv[0] in ("sim", "bench") else BAD_TOLERANCES[:1]:
        assert main(argv + bad) == 2
        assert capsys.readouterr().err.startswith("error: --")


@pytest.mark.parametrize("argv", [["sim", EXAMPLE], ["amp", EXAMPLE, "00", "00"],
                                  ["equiv", EXAMPLE, EXAMPLE], ["bench", "circuits"]],
                         ids=lambda argv: argv[0])
def test_timeout_checked_before_parsing(capsys, monkeypatch, argv):
    def parse_qasm_file(path):
        raise AssertionError("parsed before the budget was checked")

    monkeypatch.setattr(cli, "parse_qasm_file", parse_qasm_file)
    for bad in ("nan", "-1", "-inf"):
        assert main(argv + ["--timeout-s=" + bad]) == 2
        assert capsys.readouterr().err.startswith("error: --timeout-s")


@pytest.mark.parametrize("argv", [["sim", "/nonexistent.qasm"],
                                  ["amp", "/nonexistent.qasm", "00", "00"],
                                  ["bench", "circuits"]], ids=lambda argv: argv[0])
def test_partition_options_checked_before_parsing(capsys, monkeypatch, argv):
    def parse_qasm_file(path):
        raise AssertionError("parsed before the partition options were checked")

    monkeypatch.setattr(cli, "parse_qasm_file", parse_qasm_file)
    for bad, message in ((["--k", "0"], "k must be at least 1"),
                         (["--k2", "1"], "k2 must be at least 2")):
        assert main(argv + bad) == 2
        assert capsys.readouterr().err.strip() == "error: " + message


def test_verify_is_independent_of_dense_steps(capsys, monkeypatch):
    # dense plan steps run contract_dense, so --verify compares with the
    # tensordot unitary
    for argv in (["sim", EXAMPLE], ["sim", DEMO, "--scheme", "p1"]):
        assert main(argv + ["--verify"]) == 0
        assert "verify: max deviation" in capsys.readouterr().out
    # and a wrong dense step fails it
    real = planner.contract_dense

    def doubled(*args):
        res = real(*args)
        return DenseTensor(res.indices, 2 * res.values)

    monkeypatch.setattr(planner, "contract_dense", doubled)
    assert main(["sim", DEMO, "--verify"]) == 1
    assert "verify: max deviation" in capsys.readouterr().out


def test_option_strings():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in sp._actions for s in a.option_strings
                            if s.startswith("--"))
               for name, sp in sub.choices.items()}
    common = ["--eps", "--help", "--inverse-order"]
    assert options == {
        "sim": sorted(common + ["--json", "--k", "--k2", "--norm-eps", "--scheme",
                                "--timeout-s", "--verify"]),
        "amp": sorted(common + ["--k", "--k2", "--scheme", "--timeout-s"]),
        "equiv": sorted(common + ["--scheme", "--timeout-s", "--up-to-phase"]),
        "dot": common,
        "bench": sorted(common + ["--json", "--k", "--k2", "--norm-eps", "--schemes",
                                  "--timeout-s", "--verify"]),
    }


def test_bench_directory(tmp_path, capsys):
    sub = tmp_path / "circs"
    sub.mkdir()
    for name, body in [("a.qasm", "h q[0];"), ("b.qasm", "x q[0];\nt q[0];")]:
        (sub / name).write_text("OPENQASM 2.0;\nqreg q[2];\n" + body)
    dest = tmp_path / "bench.json"
    assert main(["bench", str(sub), "--schemes", "seq,p1", "--verify",
                 "--json", str(dest)]) == 0
    reports = json.loads(dest.read_text())
    assert len(reports) == 4
    assert {r["scheme"] for r in reports} == {"seq", "p1"}
    assert all(r["verified"] for r in reports)
    assert all(not r["timed_out"] for r in reports)


def test_bench_records_unpartitionable_file(tmp_path, capsys):
    sub = tmp_path / "circs"
    sub.mkdir()
    (sub / "one.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];")
    (sub / "two.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];")
    dest = tmp_path / "bench.json"
    assert main(["bench", str(sub), "--json", str(dest)]) == 0
    rows = {(r["circuit"], r["scheme"]): r for r in json.loads(dest.read_text())}
    assert len(rows) == 6
    for scheme in ("p1", "p2"):
        assert "empty half" in rows["one", scheme]["error"]
    assert all("error" not in r and r["final_nodes"] is not None
               for key, r in rows.items() if key[0] == "two" or key[1] == "seq")
    # options that no circuit can satisfy stop before any file runs
    for bad in (["--k", "0"], ["--k2", "1"]):
        out = tmp_path / "never.json"
        assert main(["bench", str(sub), "--json", str(out)] + bad) == 2
        assert "must be at least" in capsys.readouterr().err
        assert not out.exists()


def out_of_memory_after(monkeypatch, n_nodes):
    """Every store raises MemoryError once it has made n_nodes nodes."""
    real = NodeStore.make_level_node

    def make_level_node(self, *args):
        if len(self.level) > n_nodes:
            raise MemoryError
        return real(self, *args)

    monkeypatch.setattr(NodeStore, "make_level_node", make_level_node)


def test_out_of_memory_is_a_clear_error(tmp_path, capsys, monkeypatch):
    # the demo's diagram-path build makes about 170 nodes, one H gate two
    monkeypatch.setattr(planner, "DENSE_RANK", 0)
    out_of_memory_after(monkeypatch, 50)
    dest = tmp_path / "report.json"
    assert main(["sim", DEMO, "--scheme", "p1", "--json", str(dest)]) == 1
    report = json.loads(dest.read_text())
    assert report["error"] == "out of memory building the diagram"
    assert (report["n_qubits"], report["gates"], report["parts"]) == (4, 17, 2)
    assert report["final_nodes"] is None and not report["timed_out"]
    assert capsys.readouterr().err.strip() == "error: out of memory building the diagram"

    # bench records the row and goes on with the next file
    sub = tmp_path / "circs"
    sub.mkdir()
    (sub / "a.qasm").write_text(open(DEMO).read())
    (sub / "b.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];")
    assert main(["bench", str(sub), "--json", str(dest)]) == 0
    rows = json.loads(dest.read_text())
    assert [r["circuit"] for r in rows] == ["a"] * 3 + ["b"] * 3
    assert all(r["error"] == report["error"] and r["final_nodes"] is None for r in rows[:3])
    assert all("error" not in r and r["final_nodes"] == 2 for r in rows[3:])

    # any other command: one line, exit 1
    assert main(["equiv", DEMO, DEMO]) == 1
    assert capsys.readouterr().err.strip() == "error: out of memory"


def test_verify_above_10_qubits(tmp_path, capsys, monkeypatch):
    # sim refuses to verify such a circuit before building it; bench leaves
    # it unverified
    sub = tmp_path / "circs"
    sub.mkdir()
    path = sub / "wide.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[11];\nh q[0];")

    def execute_plan(*args, **kwargs):
        raise AssertionError("built before --verify's qubit cap was checked")

    with monkeypatch.context() as m:
        m.setattr(cli, "execute_plan", execute_plan)
        assert main(["sim", str(path), "--verify"]) == 2
    assert "at most 10 qubits" in capsys.readouterr().err
    dest = tmp_path / "bench.json"
    assert main(["bench", str(sub), "--schemes", "seq", "--verify", "--json", str(dest)]) == 0
    [row] = json.loads(dest.read_text())
    assert row["n_qubits"] == 11 and row["final_nodes"] is not None
    assert row["verified"] is None and row["max_deviation"] is None


def test_bench_rejects_unknown_scheme(tmp_path, capsys):
    assert main(["bench", str(tmp_path), "--schemes", "seq,warp"]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_missing_file_is_error(capsys):
    assert main(["sim", "/does/not/exist.qasm"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_qasm_is_error(tmp_path, capsys):
    p = tmp_path / "bad.qasm"
    p.write_text("OPENQASM 2.0;\nqreg q[1];\nwarp q[0];")
    assert main(["sim", str(p)]) == 2


# the table runs under these caps, so the over-the-cap files stay small;
# every other row has fewer gates and bytes
SMALL_GATE_CAP = 4
SMALL_BYTE_CAP = 200

# (case, gate lines of a 1-qubit file, a whole file, or None for a missing
# file, extra options)
MALFORMED = [
    ("qreg over the cap", "OPENQASM 2.0;\nqreg q[%d];" % (MAX_QUBITS + 1), []),
    ("gates over the cap", "h q[0];\n" * (SMALL_GATE_CAP + 1), []),
    ("bytes over the cap", "h q[0];\n//" + "x" * SMALL_BYTE_CAP, []),
    ("not UTF-8", "h q[0]; // \udcff", []),
    ("infinite angle", "rx(1e999) q[0];", []),
    ("power in angle", "rx(2**10) q[0];", []),
    ("unknown gate", "warp q[0];", []),
    ("missing semicolon", "h q[0]", []),
    ("qubit out of range", "h q[3];", []),
    ("missing file", None, []),
    ("zero eps", "h q[0];", ["--eps", "0"]),
    ("norm-eps below eps", "h q[0];", ["--eps", "1e-6", "--norm-eps", "1e-9"]),
]

# each row under sim and equiv, but --norm-eps under sim only: equiv has no
# --verify, so argparse rejects the flag before main runs
MALFORMED_RUNS = [(command,) + row for row in MALFORMED for command in ("sim", "equiv")
                  if command == "sim" or "--norm-eps" not in row[2]]


@pytest.mark.parametrize("command,case,body,extra", MALFORMED_RUNS,
                         ids=["%s-%s" % (row[1], row[0]) for row in MALFORMED_RUNS])
def test_malformed_input_exits_2(tmp_path, capsys, monkeypatch, command, case, body, extra):
    monkeypatch.setattr(circuit, "MAX_GATES", SMALL_GATE_CAP)
    monkeypatch.setattr(circuit, "MAX_BYTES", SMALL_BYTE_CAP)
    path = str(tmp_path / "bad.qasm")
    if body is not None and body.startswith("OPENQASM"):
        (tmp_path / "bad.qasm").write_text(body)
    elif body is not None:
        write(tmp_path, "bad.qasm", body)
    files = [path] if command == "sim" else [path, write(tmp_path, "good.qasm", "h q[0];")]
    assert main([command] + files + extra) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_inverse_order_still_verifies(capsys):
    assert main(["sim", EXAMPLE, "--inverse-order", "--verify"]) == 0
    assert "verify: max deviation" in capsys.readouterr().out


def test_parser_prog():
    assert build_parser().prog == "tdd"
