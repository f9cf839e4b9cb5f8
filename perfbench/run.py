"""tensordd benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's job list from the seed, runs passes over the whole list
until S seconds of job time are measured, checks every output outside the
timed region, and prints as the last line of standard output one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, measured with tracing off and given at a
fixed reference speed (see REFERENCE_S); with --trace 1
every job runs once untraced and once traced per pass, and the metrics are
the per-layer ones, including the tracing overhead. Exits 0 only when every
job ran and every check passed; exits 2 without a result when the
repository's sources are missing.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXAMPLE = ROOT / "circuits" / "example_2q.qasm"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("wide-random", "long-narrow", "equiv-pairs", "small-batch")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
}

# span name -> metric names for its inclusive seconds and its call count
SPAN_METRICS = {
    "circuit.parse": ("circuit.parse_s", None),
    "circuit.allocate": ("circuit.allocate_s", None),
    "planner.plan": ("planner.plan_s", None),
    "planner.execute": ("planner.execute_s", None),
    "planner.peak_sample": ("planner.peak_sample_s", None),
    "planner.size": ("planner.size_s", None),
    "diagram.generate": ("diagram.generate_s", "diagram.generate_calls"),
    "diagram.contract": ("diagram.contract_s", "diagram.contract_calls"),
    "diagram.tensor_product": ("diagram.tensor_product_s", "diagram.tensor_product_calls"),
    "diagram.collect": ("diagram.collect_s", None),
    "diagram.relabel": ("diagram.relabel_s", None),
    "cli.equivalent": ("cli.equivalent_s", None),
    "cli.boundary_normalize": ("cli.boundary_normalize_s", None),
}

PER_LAYER = {}
for _time, _calls in SPAN_METRICS.values():
    PER_LAYER[_time] = "s"
    if _calls:
        PER_LAYER[_calls] = "count"
PER_LAYER.update({
    "planner.execute_self_s": "s",
    "planner.steps": "count",
    "planner.live_peak_nodes": "count",
    "diagram.final_nodes_total": "count",
    "diagram.unique_hits": "count",
    "diagram.cont_cache_hits": "count",
    "diagram.add_cache_hits": "count",
    "diagram.store_peak_nodes": "count",
    "diagram.gc_runs": "count",
    "diagram.bytes_per_node": "B",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
})

# fresh interpreter starts per setup_s figure, after one unmeasured start
SETUP_STARTS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from tensordd.cli import main; "
              "sys.exit(main(['sim', sys.argv[2], '--json', '-']))")

# Every end-to-end time is given at a fixed reference speed: the speed at
# which reference() takes REFERENCE_S seconds. On a shared virtual machine a
# core's speed can swing by a third over seconds to minutes with the other
# tenants' load, which no number of repeats averages out. So reference() is
# timed right before and after each measured piece of work, and every
# PROBE_EVERY_S during a job, and the work's own time is scaled by
# REFERENCE_S over the median of those samples.
REFERENCE_S = 0.005
PROBE_EVERY_S = 0.1


class _Node:
    __slots__ = ("level", "lo", "hi", "weight")

    def __init__(self, level, lo, hi, weight):
        self.level, self.lo, self.hi, self.weight = level, lo, hi, weight


def reference():
    """Fixed pure-Python work in the style of the diagram kernel: a unique
    table of small node objects under tuple keys, filled and hit in a
    scattered order, with complex arithmetic on the weights. It takes
    3.5-13 ms on one core of a shared 2.1 GHz Xeon VM, with the load."""
    table = {}
    x = 1
    acc = 0j
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = ((x >> 4) & 7, (x >> 7) & 31, (x >> 12) & 31, ((x >> 17) & 1) * 0.5)
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key[0], key[1], key[2], complex(key[3], 1.0))
        acc += node.weight * (0.5 + 0.25j)
    return acc


def reference_s():
    start = perf_counter()
    reference()
    return perf_counter() - start


class HostSpeed:
    """Samples the speed of the core a job runs on: reference() is timed at
    start(), at stop(), and every PROBE_EVERY_S in between from a timer
    signal."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.samples.append(reference_s())

    def start(self):
        self.samples = [reference_s()]
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(reference_s())

    def adjust(self, elapsed):
        """`elapsed`, timed between start() and stop(), less the samples
        taken in it, at the reference speed."""
        work = elapsed - sum(self.samples[1:-1])
        # the median, because one sample in a few runs into a stall of its
        # own and reads several times the others
        return work * REFERENCE_S / statistics.median(self.samples)


def rss_mb():
    """Resident high-water mark of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(expected_final_nodes):
    """Median seconds, at the reference speed, from a fresh interpreter's
    start to `tdd sim` of circuits/example_2q.qasm returning, as a CLI user
    pays on every call."""
    times = []
    for i in range(SETUP_STARTS + 1):
        before = reference_s()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(EXAMPLE)],
                              capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        after = reference_s()
        if proc.returncode != 0:
            raise RuntimeError("tdd sim exited %d: %s" % (proc.returncode, proc.stderr.strip()))
        final = json.loads(proc.stdout)["final_nodes"]
        if expected_final_nodes is not None and final != expected_final_nodes:
            raise RuntimeError("tdd sim reported %d final nodes, expected %d"
                               % (final, expected_final_nodes))
        if i:
            times.append(elapsed * REFERENCE_S / ((before + after) / 2))
    return statistics.median(times)


def run_job(job, seed, tracer, speed=None):
    """Time one job, then check its output outside the timed region.
    Returns (seconds, error or None); with a HostSpeed, (seconds, seconds of
    the job alone at the reference speed, error or None)."""
    # every job starts from a collected heap, so a job's cyclic-GC work does
    # not depend on the garbage the jobs before it left behind
    gc.collect()
    if speed is not None:
        speed.start()
    start = perf_counter()
    try:
        out = job.run() if tracer is None else tracer.job(job.name, job.scheme, job.run)
        error = None
    except Exception as exc:  # PlanTimeout, MemoryError and any other failure
        traceback.print_exc(file=sys.stderr)
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        elapsed = perf_counter() - start
        if speed is not None:
            speed.stop()
    if error is None:
        error = job.check(out, seed, elapsed)
    if speed is None:
        return elapsed, error
    return elapsed, speed.adjust(elapsed), error


def layer_metrics(tracer):
    """(seconds metrics, call-count metrics) of the pass just traced."""
    totals = tracer.totals()
    seconds, calls = {}, {}
    for span, (time_name, calls_name) in SPAN_METRICS.items():
        incl, _, n = totals.get(span, (0.0, 0.0, 0))
        seconds[time_name] = incl
        if calls_name:
            calls[calls_name] = n
    seconds["planner.execute_self_s"] = totals.get("planner.execute", (0.0, 0.0, 0))[1]
    return seconds, calls


def scheme_shares(tracer):
    """Per scheme and over all jobs, the shares that show what each workload
    stresses."""
    by_scheme = tracer.totals_by_scheme()
    merged = {}
    for t in by_scheme.values():
        for k, v in t.items():
            merged[k] = merged.get(k, 0.0) + v
    out = {}
    for scheme, t in sorted(by_scheme.items()) + [("all", merged)]:
        wall = t.get("job", 0.0)
        execute = t.get("planner.execute", 0.0)
        front = t.get("circuit.parse", 0.0) + t.get("circuit.allocate", 0.0)
        out[scheme] = {
            "job_s": wall,
            "kernel_of_execute": (t.get("diagram.contract", 0.0)
                                  + t.get("diagram.tensor_product", 0.0)) / execute if execute else 0.0,
            "peak_sample_of_execute": t.get("planner.peak_sample", 0.0) / execute if execute else 0.0,
            "plan_of_wall": t.get("planner.plan", 0.0) / wall if wall else 0.0,
            "front_and_plan_of_wall": (front + t.get("planner.plan", 0.0)) / wall if wall else 0.0,
        }
    return out


def run_workload(name, seed, seconds, trace, workdir):
    """Run passes over the job list until `seconds` of job time are
    measured. Without trace, the job times are also taken at the reference
    speed. With trace, every job runs twice per pass, untraced and traced
    back to back in alternating order, so the overhead compares neighbouring
    runs."""
    import tracing
    import workloads

    jobs = workloads.WORKLOADS[name](seed, ROOT, workdir)
    tracer = tracing.Tracer() if trace else None
    modes = (False, True) if trace else (False,)
    passes = []         # {traced: [seconds per job]}
    adjusted = []       # per untraced pass: [seconds per job at the reference speed]
    speed = None if trace else HostSpeed()
    failed = set()      # (pass index, job index, traced)
    errors = {}         # job name -> first error
    layer_passes = []   # per pass: span-derived seconds
    counts = shares = None   # from the first pass; counts repeat exactly

    rss_before = rss_mb()
    while True:
        if trace:
            tracer.reset()
        times = {mode: [] for mode in modes}
        at_reference = []
        for j, job in enumerate(jobs):
            order = modes if (j + len(passes)) % 2 == 0 else modes[::-1]
            for traced in order:
                if traced:
                    with tracer.installed():
                        elapsed, error = run_job(job, seed, tracer)
                elif trace:
                    elapsed, error = run_job(job, seed, None)
                else:
                    elapsed, seconds_at_reference, error = run_job(job, seed, None, speed)
                    at_reference.append(seconds_at_reference)
                times[traced].append(elapsed)
                if error is not None:
                    failed.add((len(passes), j, traced))
                    errors.setdefault(job.name, error)
        if trace:
            seconds_metrics, calls = layer_metrics(tracer)
            layer_passes.append(seconds_metrics)
            if counts is None:
                counts = dict(tracer.counts, **calls)
                shares = scheme_shares(tracer)
                tracer.write(RESULTS / ("trace-%s-seed%d.jsonl" % (name, seed)),
                             {"workload": name, "seed": seed, "scheme_shares": shares})
        passes.append(times)
        if not trace:
            adjusted.append(at_reference)
        # the budget counts measured job time only, so the first pass's oracle
        # checks do not cost the workload a pass; no new pass once one more
        # would overrun it
        measured = sum(sum(map(sum, p.values())) for p in passes)
        if measured + measured / len(passes) > seconds:
            break
    peak = rss_mb()

    post = workloads.post_checks(jobs)
    for j, job in enumerate(jobs):
        if job.name in post:
            errors.setdefault(job.name, post[job.name])
            failed.update((p, j, mode) for p in range(len(passes)) for mode in modes)
    for job_name, error in sorted(errors.items()):
        print("FAILED %s: %s" % (job_name, error), file=sys.stderr)

    walls = {mode: [sum(p[mode]) for p in passes] for mode in modes}
    if trace:
        metrics = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        metrics.update(counts)
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.untraced_wall_s"] = statistics.median(walls[False])
        metrics["trace.overhead_pct"] = 100.0 * (sum(walls[True]) / sum(walls[False]) - 1.0)
        store_peak = counts["diagram.store_peak_nodes"]
        metrics["diagram.bytes_per_node"] = ((peak - rss_before) * 1024 * 1024 / store_peak
                                             if store_peak else 0.0)
        for scheme, s in shares.items():
            print("scheme %s: %s" % (scheme, " ".join("%s=%.4g" % kv for kv in s.items())))
    else:
        per_job = [statistics.median(p[j] for p in adjusted) for j in range(len(jobs))]
        metrics = {
            "wall_s": sum(per_job),
            "job_s_p50": statistics.median(per_job),
            "peak_rss_mb": peak,
        }
    print("%s seed %d: %d passes of %d jobs, %d failed; pass seconds %s"
          % (name, seed, len(passes), len(jobs), len(failed),
             " ".join("/".join("%.3f" % w for w in ws) for ws in zip(*walls.values()))))
    return metrics, len(passes) * len(jobs) * len(modes), len(failed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tensordd" / "__init__.py").is_file() or not EXAMPLE.is_file():
        print("error: run from a tensordd checkout: %s or %s is missing"
              % (SRC / "tensordd", EXAMPLE), file=sys.stderr)
        return 2
    # one thread per workload: pin BLAS/OpenMP pools before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # one core for the jobs, the set-up starts and the reference measurements
    # around them, so that the reference times the core the work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    metrics = {}
    setup_failed = 0
    if not args.trace:
        import workloads
        # the set-up call, built in-process and checked like any job; the
        # fresh starts must report the same final node count
        example = workloads.SimJob("example_2q", "example_2q", 2, "seq", path=str(EXAMPLE))
        _, error = run_job(example, args.seed, None)
        if error is not None:
            print("FAILED example_2q: %s" % error, file=sys.stderr)
            setup_failed = 1
        metrics["setup_s"] = measure_setup(example.result and example.result[0])

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir()
    try:
        run_metrics, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics.update(run_metrics)
    if not args.trace:
        attempted += 1
        failed += setup_failed

    units = PER_LAYER if args.trace else END_TO_END
    for key, unit in units.items():
        print("%-28s %.6g %s" % (key, metrics[key], unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
