"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import generators  # noqa: E402
import run  # noqa: E402
from tensordd.circuit import circuit_unitary, parse_qasm  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _texts(seed):
    """Every QASM text the four workloads generate for one seed."""
    out = [q for _, _, q in generators.wide_random(seed)]
    out += [q for _, _, q in generators.long_narrow(seed)]
    out += [q for _, _, q in generators.small_batch(seed)]
    for _, qa, qb, _, _ in generators.equiv_pairs(seed):
        out += [qa, qb]
    return out


def test_same_seed_gives_identical_qasm():
    assert _texts(3) == _texts(3)
    assert _texts(3) != _texts(4)


def test_every_generated_circuit_parses():
    for text in _texts(0):
        circ = parse_qasm(text)
        assert circ.gates


def _unitary(gates, n):
    return circuit_unitary(parse_qasm(generators.to_qasm(n, gates)))


def _equal(a, b, up_to_phase=False):
    if up_to_phase:
        overlap = np.vdot(b, a)
        b = b * (overlap / abs(overlap))
    return bool(np.max(np.abs(a - b)) <= 1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_rewrites_keep_their_labels(seed):
    rng = random.Random(seed)
    n = 3
    gates = generators.with_angles(generators.skeleton(seed, n, 14), rng)
    u = _unitary(gates, n)
    assert _equal(u, _unitary(generators.equivalent_rewrite(gates, rng, n), n))
    broken = _unitary(generators.break_one_gate(gates, rng), n)
    assert not _equal(u, broken)
    phase = _unitary(generators.phase_rewrite(gates, rng, n), n)
    assert not _equal(u, phase)
    assert _equal(u, phase, up_to_phase=True)


def test_equiv_pair_labels_on_a_small_seed():
    for name, qa, qb, up_to_phase, expected in generators.equiv_pairs(0):
        ua = circuit_unitary(parse_qasm(qa))
        ub = circuit_unitary(parse_qasm(qb))
        assert _equal(ua, ub, up_to_phase) == expected, name


def test_names_match_benchmark_json():
    import workloads
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_host_speed_samples_along_a_job_and_scales_by_the_median():
    speed = run.HostSpeed()
    speed.start()
    start = perf_counter()
    while perf_counter() - start < 3.5 * run.PROBE_EVERY_S:
        pass
    speed.stop()
    assert len(speed.samples) >= 4  # before, at least two during, after
    speed.samples = [0.01, 0.002, 0.01, 0.01]
    # the 0.012 s sampled during the job is taken out; the median sample is
    # twice REFERENCE_S, so the job's own second counts as half a second
    assert speed.adjust(1.012) == pytest.approx(run.REFERENCE_S / 0.01)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-narrow", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
