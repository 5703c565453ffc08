#!/usr/bin/env python3
"""Benchmark of the fedmm simulator: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quad-federation --seed 7 --seconds 40 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
With ``--trace 0`` the run times the workload's operation sequence with no
instrumentation and reports the end-to-end metrics; with ``--trace 1`` it
runs the sequence once untraced and once traced, replays the algorithms
through the library, times single public calls and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans, the
environment record and the raw samples go to ``.perfbench_out/``.

The benchmark runs in one process and one thread: OpenBLAS is pinned to one
thread through this process's environment before numpy is imported.

End-to-end times are medians over the run, in normalized seconds: each
measured time is scaled by REF_SECONDS over the time of fixed reference
kernels sampled around and during it (see ``Reference``). The machine's
speed changes the kernels and the operations alike, so the scaling removes
it; a change in the program changes only the operations.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("quad-federation", "rlr-robust", "scalar-fixed-point")
MIN_SEQUENCES = 2  # timed repeats of the sequence, after one warm-up
SETUP_MAX_REPS, SETUP_CHUNK_S = 1000, 0.1
REF_SECONDS = 0.001  # normalized seconds are scaled so the kernels take this
REF_INTERVAL_S = 0.03  # reference-kernel samples during a timed item
REF_WINDOW_S = 0.5  # samples this close to an item set its speed

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "rounds_per_s": "rounds/s",
             "time_to_tol_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's documented seed)")
    parser.add_argument("--seconds", type=int, default=40,
                        help="how long the untraced run repeats the operation sequence")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Pin the BLAS threads, then import fedmm from this checkout's sources."""
    source = ROOT / "src" / "fedmm" / "__init__.py"
    if not source.is_file():
        sys.exit(f"error: {source} not found; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FEDMM_SEED", None)  # it would override the generated configs
    sys.path.insert(0, str(ROOT / "src"))
    import fedmm

    if Path(fedmm.__file__).resolve() != source.resolve():
        sys.exit(f"error: imported fedmm from {fedmm.__file__}, not {source}")


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.reasons += errors


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def run_sequence(workload, tally: Tally, run=None, timer=timed) -> tuple[dict, dict]:
    """Run every operation once under ``timer``, checking each output right
    after it. Returns per-operation seconds and outputs; check time is not
    counted."""
    run = run or (lambda op: op.run())
    times, outputs = {}, {}
    for op in workload.ops:
        start = time.perf_counter()
        try:
            out, times[op.name] = timer(lambda: run(op))
        except Exception:  # the program crashed: a failed operation
            times[op.name] = time.perf_counter() - start
            tally.record([f"{op.name}: {traceback.format_exc(limit=-3)}"])
            continue
        try:
            errors = op.check(out)
        except Exception:
            errors = [f"{op.name} check: {traceback.format_exc(limit=-3)}"]
        tally.record(errors)
        outputs[op.name] = out
    return times, outputs


def measure_setup(workload) -> int:
    """One chunk of set-up repeats: at least one, for at least SETUP_CHUNK_S.
    Returns the number of repeats."""
    reps = 0
    start = time.perf_counter()
    while reps < SETUP_MAX_REPS:
        workload.setup_once()
        reps += 1
        if time.perf_counter() - start >= SETUP_CHUNK_S:
            break
    return reps


class Reference:
    """Samples the machine's speed during every timed item.

    Two fixed kernels stand for the two kinds of work the operations do, on
    inputs of their own, so no change to the program touches them:

    * an imitation of the workload's hot loop: rounds of a Python loop over
      agents, each taking two gradient steps with d x d numpy products, then
      an average;
    * large numpy calls: a fresh sign matrix times a table, the way the
      Rademacher estimate and the stepsize search's eigensolves spend time.

    Contention on a shared host slows the two kinds by different factors, so
    the speed of an item is taken as the geometric mean of both, or of the
    loop kernel alone for a workload with no large array calls. The kernels
    run once before and once after the item and, from a timer signal, every
    REF_INTERVAL_S during it; the time spent in them is taken out of the
    item's time. The item's time in normalized seconds is its time scaled by
    REF_SECONDS over the geometric mean of the kernels' median times within
    REF_WINDOW_S of the item: the machine's speed changes the kernels and
    the item alike, a change in the program only the item."""

    def __init__(self, agents: int, dim: int, rounds: int, arrays: bool):
        import numpy as np

        rng = np.random.default_rng(0)
        self.agents = []
        for _ in range(agents):
            a = rng.normal(size=(dim, dim))
            self.agents.append(((a + a.T) / (4 * dim) + np.eye(dim), rng.normal(size=dim)))
        self.zero = np.zeros(dim)
        self.rounds = rounds
        self.table = rng.random((40, 500))
        self.kernels = [self.loop_kernel] + ([self.array_kernel] if arrays else [])
        self.samples: list[tuple[float, list[float]]] = []  # (when, seconds per kernel)
        self.busy = 0.0  # seconds spent sampling during the current item
        self.items: list[tuple[float, float, float]] = []  # (start, end, seconds)

    def loop_kernel(self) -> float:
        import numpy as np

        x = y = self.zero
        for _ in range(self.rounds):
            xs, ys = [], []
            for Q, c in self.agents:
                xi, yi = x, y
                for _ in range(2):
                    gx, gy = Q @ xi + c, -(Q @ yi) - c
                    xi, yi = xi - 0.01 * gx, yi + 0.01 * gy
                xs.append(xi)
                ys.append(yi)
            x, y = np.mean(xs, axis=0), np.mean(ys, axis=0)
        return float(x[0])

    def array_kernel(self) -> float:
        import numpy as np

        signs = np.random.default_rng(0).integers(0, 2, size=(200, 500)) * 2 - 1
        return float((signs.astype(np.float64) @ self.table.T).max(axis=1).mean())

    def sample(self, *_) -> None:
        at, took = time.perf_counter(), []
        for kernel in self.kernels:
            start = time.perf_counter()
            kernel()
            took.append(time.perf_counter() - start)
        self.samples.append((at, took))
        self.busy += sum(took)

    def measure(self, fn):
        """Run ``fn``; return its result and its seconds, sampling excluded.
        Every call adds one item, also when ``fn`` raises."""
        self.busy = 0.0
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.items.append((start, end, end - start - self.busy))
            self.sample()
        return out, self.items[-1][2]

    def normalized(self, index: int) -> float:
        """Item ``index``'s time in normalized seconds, from the samples
        taken within REF_WINDOW_S of it: the machine's speed holds for a
        second or more, so the neighbours' samples steady a short item's."""
        start, end, seconds = self.items[index]
        times = [at for at, _ in self.samples]
        near = self.samples[bisect.bisect_left(times, start - REF_WINDOW_S):
                            bisect.bisect_right(times, end + REF_WINDOW_S)]
        speeds = [statistics.median(calls) for calls in zip(*(took for _, took in near))]
        return seconds * REF_SECONDS / statistics.geometric_mean(speeds)


def untraced(workload, seconds: int, tally: Tally) -> tuple[dict, dict]:
    """One checked warm-up sequence, then repeat (set-up chunk, operation
    sequence) until one more repeat would pass the deadline. Each metric is
    a median over the repeats of normalized times."""
    reference = Reference(*workload.reference_kernel, workload.array_kernel)
    deadline = time.perf_counter() + seconds
    run_sequence(workload, tally)
    setup_reps, sequences = [], []
    while True:
        start = time.perf_counter()
        setup_reps.append(reference.measure(lambda: measure_setup(workload))[0])
        sequences.append(run_sequence(workload, tally, timer=reference.measure)[0])
        took = time.perf_counter() - start
        if len(sequences) >= MIN_SEQUENCES and time.perf_counter() + took > deadline:
            break

    # items in order: per repeat the set-up chunk, then each operation
    per_repeat = 1 + len(workload.ops)
    normalized = [reference.normalized(i) for i in range(len(reference.items))]
    setup = [normalized[i * per_repeat] / reps for i, reps in enumerate(setup_reps)]
    median = {op.name: statistics.median(normalized[i * per_repeat + 1 + k]
                                         for i in range(len(sequences)))
              for k, op in enumerate(workload.ops)}
    sim = [op for op in workload.ops if op.rounds]
    metrics = {
        "wall_s": sum(median.values()),
        "setup_s": statistics.median(setup),
        "rounds_per_s": sum(op.rounds for op in sim) / sum(median[op.name] for op in sim),
        "time_to_tol_s": statistics.median(
            normalized[i * per_repeat + 1 + k] for i in range(len(sequences))
            for k, op in enumerate(workload.ops) if op.to_tol),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"items": reference.items, "kernel_samples": reference.samples,
               "setup_reps": setup_reps, "ops": [op.name for op in workload.ops]}
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, samples


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def per_call_us(fn, *args) -> float:
    """Median over 25 batches of the time of one call, batches of >= 0.2 ms."""
    calls = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn(*args)
        if time.perf_counter_ns() - start >= 200_000 or calls >= 1 << 16:
            break
        calls *= 2
    batches = []
    for _ in range(25):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn(*args)
        batches.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(batches) / 1e3


def micro_metrics(workload) -> dict:
    import numpy as np
    from fedmm import core, genbounds

    problem = workload.micro_problem
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=problem.p) for _ in range(problem.m)]
    x, y = rng.normal(size=problem.p), rng.normal(size=problem.q)
    outside = 2.0 * y / np.linalg.norm(y)  # outside the unit ball, if there is one
    z = core.Iterate(x, y)
    bound_us = 0.0
    if workload.bound_inputs is not None:
        bound_us = per_call_us(genbounds.bound_terms, workload.bound_inputs)
    return {
        "core.average_us": per_call_us(core.average_vectors, vectors),
        "core.project_us": per_call_us(problem.sets.set_y.project, outside),
        "core.iterate_us": per_call_us(core.Iterate, x, y),
        "problems.global_grad_us_p50": per_call_us(problem.global_grad, z),
        "genbounds.bound_terms_us": bound_us,
    }


def _pct(values, q: float, scale: float = 1.0) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def traced(workload, tally: Tally) -> tuple[dict, dict]:
    from tracing import LAYERS, Tracer

    plain_times, outputs = run_sequence(workload, tally)
    tracer = Tracer()
    with tracer.installed():
        traced_times, _ = run_sequence(
            workload, tally, run=lambda op: tracer.operation(op.name, op.run))

    samples = defaultdict(list)
    for op in workload.ops:
        if op.name in outputs:
            try:
                errors = workload.replay(op, outputs[op.name], samples)
            except Exception:
                errors = [f"{op.name} replay: {traceback.format_exc(limit=-3)}"]
            tally.record(errors)

    def span_ms(*names):
        durations = [d for n in names for d in tracer.samples(n)]
        return _pct(durations, 50, 1e-6)

    grad = tracer.stats.get("grad")
    rl = samples["robust_loss_ns"]
    limit_rounds = sum(samples["limit_rounds"])
    container = getattr(workload, "container", None)
    plain, with_spans = sum(plain_times.values()), sum(traced_times.values())
    metrics = {
        "datagen.gen_ms": span_ms("gen_quadratic", "gen_rlr"),
        "datagen.save_ms": span_ms("save_dataset"),
        "datagen.load_ms": span_ms("load_dataset"),
        "datagen.container_bytes": container.stat().st_size if container else 0,
        "problems.closed_form_ms": span_ms("closed_form_minimax"),
        "problems.grad_calls": grad.count if grad else 0,
        "problems.grad_us_p50": _pct(grad.samples, 50, 1e-3) if grad else 0.0,
        "algorithms.auto_eta_ms": span_ms("auto_eta_fedgda"),
        "algorithms.round_map_norm_ms": span_ms("fedgda_round_map_norm"),
        "analysis.robust_loss_us_p50": _pct(rl, 50, 1e-3),
        "analysis.robust_loss_us_p90": _pct(rl, 90, 1e-3),
        "analysis.robust_loss_iters_mean": (
            statistics.fmean(samples["robust_loss_iters"]) if rl else 0.0),
        "analysis.limit_rounds": limit_rounds,
        "analysis.limit_us_per_round": (
            sum(samples["limit_ns"]) / limit_rounds / 1e3 if limit_rounds else 0.0),
        "genbounds.rademacher_ms": span_ms("estimate_rademacher"),
        "cli.write_trace_ms": sum(tracer.samples("write_trace_csv")) / 1e6,
        "cli.trace_bytes": sum(op.trace_path.stat().st_size
                               for op in workload.ops if op.trace_path),
        "bench.trace_overhead_pct": 100.0 * (with_spans - plain) / plain,
    }
    for short, algo in (("gda", "GDA"), ("lsgda", "LocalSGDA"), ("gt", "FedGDAGT")):
        rounds = samples[f"{algo}_round_ns"]
        metrics[f"algorithms.{short}_round_us_p50"] = _pct(rounds, 50, 1e-3)
        metrics[f"algorithms.{short}_round_us_p90"] = _pct(rounds, 90, 1e-3)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = tracer.self_ns[layer] / 1e6
    metrics.update(micro_metrics(workload))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    raw = {"untraced_s": plain_times, "traced_s": traced_times,
           "round_ns": {k: v for k, v in samples.items() if k.endswith("_round_ns")}}
    return {k: (v, _unit(k)) for k, v in metrics.items()}, raw


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_pct", "%"), ("_bytes", "bytes"),
                         ("_calls", "count"), ("_rounds", "count"),
                         ("_iters_mean", "count")):
        if name.endswith(suffix):
            return unit
    return "us"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_one(args) -> int:
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from envinfo import environment
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        workload = cls(workdir, seed)
        if args.trace:
            metrics, raw = traced(workload, tally)
        else:
            metrics, raw = untraced(workload, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(ROOT)
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "failures": tally.reasons,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "raw": raw}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    print("environment: " + json.dumps(env))
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<34} {tally.failed:>7d} / {tally.attempted} operations")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
