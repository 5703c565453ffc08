"""The three workloads: inputs made from the seed, set-up calls, operations
and the checks on every operation's output.

Every operation is a real ``fedmm`` command called in-process through
``fedmm.cli.main(argv)`` (plus, where the pipeline needs it, the library
call that feeds or reads it). The program only sees the generated config
files; the seed stays in the benchmark.
"""

from __future__ import annotations

import io
import math
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fedmm import algorithms, analysis, cli, core, datagen, genbounds, problems

FIXED_POINT_ROUNDS = 1_046  # LimitResult.rounds of `fixed-point --K 10 --eta 5e-4`


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    traces: list  # RunTrace objects returned by run_algorithm, in call order


def call_cli(argv: list[str]) -> CliResult:
    """``fedmm.cli.main(argv)`` with its output captured and the RunTrace of
    every algorithm kept, so checks can read final iterates."""
    traces = []
    inner = cli.run_algorithm

    def keep(problem, config, **kwargs):
        trace = inner(problem, config, **kwargs)
        traces.append(trace)
        return trace

    out, err = io.StringIO(), io.StringIO()
    cli.run_algorithm = keep
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli.run_algorithm = inner
    return CliResult(code, out.getvalue(), err.getvalue(), traces)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]  # returns the reasons the output is wrong
    rounds: int = 0  # communication rounds the operation simulates
    to_tol: bool = False  # the operation that ends at a stated accuracy
    # for `run` / `compare`: what the library replay needs; each algorithm is
    # (label, name, K, rounds, eta), with eta None for the CLI's auto stepsize
    algos: list = field(default_factory=list)
    problem: object = None
    trace_path: Path | None = None


def _ini(path: Path, sections: dict) -> Path:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _algo_sections(algos) -> dict:
    sections = {}
    for label, name, K, rounds, eta in algos:
        keys = {"name": name, "K": K, "rounds": rounds}
        if eta is not None:
            keys["eta"] = repr(eta)
        sections[f"algo:{label}"] = keys
    return sections


def _final_rows(csv_text: str) -> dict:
    """algorithm label -> the fields of its last CSV row."""
    header, *rows = csv_text.strip().split("\n")
    keys = header.split(",")
    last = {}
    for row in rows:
        fields = dict(zip(keys, row.split(",")))
        last[fields["algorithm"]] = fields
    return last


class Workload:
    name = ""
    replays = 1  # library replays of each operation in the traced run
    array_kernel = True  # whether the run's speed sample includes large array calls

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.first_output: dict[str, bytes] = {}
        self.ops: list[Op] = []
        self.micro_problem = None  # the problem the per-call micro timings use
        self.bound_inputs = None  # BoundInputs of the last bounds operation

    def setup_once(self) -> None:
        """The set-up calls the CLI makes before round 1, through the same
        public functions."""
        raise NotImplementedError

    def same_as_first(self, key: str, data: bytes) -> list:
        """Determinism contract: every repeat of an operation in one process
        produces the same bytes as its first execution."""
        first = self.first_output.setdefault(key, data)
        return [] if first == data else [f"{key} differs from its first execution"]

    def cli_op(self, name, argv, algos=(), problem=None, trace_path=None, **kw) -> Op:
        def check(res: CliResult) -> list:
            if res.code != 0:
                return [f"{name}: exit code {res.code}: {res.stderr.strip()}"]
            errors = self.same_as_first(f"{name} stdout", res.stdout.encode())
            csv_text = None
            if trace_path is not None:
                data = trace_path.read_bytes()
                errors += self.same_as_first(f"{name} trace", data)
                csv_text = data.decode()
            return errors + self.check_output(name, res, csv_text)

        return Op(name, lambda: call_cli(argv), check, algos=list(algos),
                  problem=problem, trace_path=trace_path, **kw)

    def check_output(self, name: str, res: CliResult, csv_text: str | None) -> list:
        """The workload's own checks on a command that exited with 0."""
        return []

    def replay(self, op: Op, res: CliResult, samples: dict) -> list:
        """Re-run the operation's algorithms through the library on a problem
        the benchmark generated itself, check that final iterates and trace
        CSV equal the untraced CLI run bitwise, and collect per-round times
        (one round plus its record) and per-call robust-loss times."""
        if not op.algos:
            return []
        problem = op.problem
        try:
            z_star = problems.closed_form_minimax(problem)
        except problems.UnsupportedProblemError:
            z_star = None
        loss_fn = None
        if isinstance(problem, problems.RobustLinearRegression):
            def loss_fn(z):
                start = time.perf_counter_ns()
                result = analysis.robust_loss(problem, z.x)
                samples["robust_loss_ns"].append(time.perf_counter_ns() - start)
                samples["robust_loss_iters"].append(result.iterations)
                return result.value
        errors = []
        for _ in range(self.replays):
            runs = []
            for label, name, K, rounds, eta in op.algos:
                if eta is None:
                    eta = algorithms.auto_eta_fedgda(problem, K).eta
                config = algorithms.AlgoConfig(name, eta, eta, K, rounds,
                                               core.Iterate.zeros(problem.p, problem.q))
                trace = algorithms.run_algorithm(problem, config, z_star=z_star,
                                                 robust_loss_fn=loss_fn)
                elapsed = [rec.elapsed_ns for rec in trace.records]
                samples[f"{name}_round_ns"] += np.diff(elapsed).tolist()
                runs.append((label, trace))
            for (label, trace), original in zip(runs, res.traces):
                a, b = trace.final, original.final
                if a.x.tobytes() != b.x.tobytes() or a.y.tobytes() != b.y.tobytes():
                    errors.append(f"{op.name}: replayed {label} final iterate differs")
            path = self.workdir / f"replay-{op.name}.csv"
            cli.write_trace_csv(path, runs, timing=False)
            if path.read_bytes() != self.first_output[f"{op.name} trace"]:
                errors.append(f"{op.name}: replayed trace CSV differs")
        return errors


class QuadFederation(Workload):
    """Quadratic federation m=20, d=50, n=500: gen-data round trip, an
    auto-stepsize FedGDA-GT run to gap 1e-8, and the three-method compare at
    that same stepsize."""

    name = "quad-federation"
    default_seed = 7
    m, d, n, K, rounds = 20, 50, 500, 20, 60
    replays = 2  # so every per-round p90 has at least ten samples beyond it
    reference_kernel = (20, 50, 1)  # agents, dimension, rounds of the loop kernel

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.spec = datagen.QuadraticGenSpec(self.m, self.d, self.n, seed)
        self.reference = self.micro_problem = datagen.gen_quadratic(self.spec)
        problem = {"kind": "quadratic", "m": self.m, "d": self.d, "n": self.n,
                   "seed": seed}
        self.container = workdir / "quad.fedmm"
        gen_ini = _ini(workdir / "gen.ini", {"problem": problem})

        run_algos = [("FedGDAGT", algorithms.FEDGDA_GT, self.K, self.rounds, None)]
        run_csv = workdir / "run.csv"
        run_ini = _ini(workdir / "run.ini", {
            "problem": problem, **_algo_sections(run_algos),
            "output": {"trace": run_csv}})

        # the stepsize `run` selects, so FedGDA-GT converges within the same
        # rounds while LocalSGDA stalls at its biased fixed point
        eta = algorithms.auto_eta_fedgda(self.reference, self.K).eta
        cmp_algos = [("GDA", algorithms.GDA, 1, self.rounds, eta),
                     ("LocalSGDA", algorithms.LOCAL_SGDA, self.K, self.rounds, eta),
                     ("FedGDAGT", algorithms.FEDGDA_GT, self.K, self.rounds, eta)]
        cmp_csv = workdir / "compare.csv"
        cmp_ini = _ini(workdir / "compare.ini", {
            "problem": problem, **_algo_sections(cmp_algos),
            "output": {"trace": cmp_csv}})

        self.ops = [
            Op("gen-data", lambda: self.gen_and_load(gen_ini), self.check_container),
            self.cli_op("run", ["run", str(run_ini)], run_algos, self.reference,
                        run_csv, rounds=self.rounds, to_tol=True),
            self.cli_op("compare", ["compare", str(cmp_ini)], cmp_algos,
                        self.reference, cmp_csv, rounds=3 * self.rounds),
        ]

    def setup_once(self) -> None:
        problem = datagen.gen_quadratic(self.spec)
        problems.closed_form_minimax(problem)
        algorithms.auto_eta_fedgda(problem, self.K)
        datagen.save_dataset(self.workdir / "setup.fedmm", problem, self.spec)
        datagen.load_dataset(self.workdir / "setup.fedmm")

    def gen_and_load(self, gen_ini: Path):
        res = call_cli(["gen-data", str(gen_ini), "--out", str(self.container)])
        loaded = datagen.load_dataset(self.container)[0] if res.code == 0 else None
        return res, loaded

    def check_container(self, out) -> list:
        res, loaded = out
        if res.code != 0:
            return [f"gen-data: exit code {res.code}: {res.stderr.strip()}"]
        for i, (a, b) in enumerate(zip(loaded.agents, self.reference.agents)):
            if a.Q.tobytes() != b.Q.tobytes() or a.c.tobytes() != b.c.tobytes():
                return [f"gen-data: agent {i} does not round-trip bitwise"]
        if len(loaded.agents) != self.m:
            return [f"gen-data: loaded {len(loaded.agents)} agents, expected {self.m}"]
        return self.same_as_first("gen-data container", self.container.read_bytes())

    def check_output(self, name: str, res: CliResult, csv_text: str | None) -> list:
        last = _final_rows(csv_text)
        gap = {label: float(row["gap_sq"]) for label, row in last.items()}
        if name == "run" and not gap.get("FedGDAGT", math.inf) <= 1e-8:
            return [f"run: FedGDAGT final gap_sq {gap.get('FedGDAGT')} > 1e-8"]
        if name == "compare" and not gap["LocalSGDA"] >= 1e4 * gap["FedGDAGT"]:
            return [f"compare: LocalSGDA gap {gap['LocalSGDA']} < 1e4 x "
                    f"FedGDAGT gap {gap['FedGDAGT']}"]
        return []


class RlrRobust(Workload):
    """Robust linear regression m=10, d=5, n=50: LocalSGDA vs FedGDA-GT at
    three heterogeneity levels, each on three federations, with the robust
    loss recorded every round; after each federation's three, a Rademacher
    estimate fed to `fedmm bounds`."""

    name = "rlr-robust"
    default_seed = 11
    m, d, n, K, rounds = 10, 5, 50, 10, 20
    cases = ((1.0, 5e-3), (5.0, 1e-3), (20.0, 1e-4))  # (alpha, eta)
    # Federation j of each case has data seed `seed + 1000 * j`. The robust
    # loss's iteration count depends much on the data, so one federation per
    # case would make the work itself vary by seed.
    federations = 3
    candidates, sigma_draws = 40, 20_000
    reference_kernel = (10, 5, 3)

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.specs = [datagen.RlrGenSpec(self.m, self.d, self.n, alpha, seed + 1000 * j)
                      for j in range(self.federations) for alpha, _ in self.cases]
        self.references = {}
        compares = []
        for (alpha, eta), spec in zip(self.cases * self.federations, self.specs):
            reference = datagen.gen_rlr(spec)
            algos = [(label, label, self.K, self.rounds, eta)
                     for label in (algorithms.LOCAL_SGDA, algorithms.FEDGDA_GT)]
            name = f"compare-alpha{alpha:g}-seed{spec.seed}"
            self.references[name] = reference
            csv = workdir / f"{name}.csv"
            ini = _ini(workdir / f"{name}.ini", {
                "problem": {"kind": "rlr", "m": self.m, "d": self.d, "n": self.n,
                            "alpha": repr(alpha), "seed": spec.seed},
                **_algo_sections(algos), "output": {"trace": csv}})
            compares.append(self.cli_op(
                name, ["compare", str(ini)], algos, reference, csv,
                rounds=2 * self.rounds))

        # per-sample squared losses at y = 0 of seeded candidate models on the
        # most heterogeneous federation
        hetero = self.micro_problem = self.references[f"compare-alpha20-seed{seed}"]
        models = np.random.default_rng([seed, 1]).normal(size=(self.candidates, self.d))
        self.loss_table = np.concatenate(
            [(a.A @ models.T - a.b[:, None]).T ** 2 for a in hetero.agents], axis=1)
        self.bounds_ini = workdir / "bounds.ini"
        # Its accuracy is stated: within 4 standard errors of the Massart cap.
        # It runs once per federation, the same work each time, because its
        # time varies much from one execution to the next.
        for j in range(self.federations):
            self.ops += compares[j * len(self.cases):(j + 1) * len(self.cases)]
            self.ops.append(Op(f"bounds-{j + 1}", self.bounds, self.check_bounds,
                               to_tol=True))

    def setup_once(self) -> None:
        for spec in self.specs:
            problem = datagen.gen_rlr(spec)
            try:
                problems.closed_form_minimax(problem)
            except problems.UnsupportedProblemError:
                pass

    def bounds(self):
        sample = genbounds.FiniteHypothesisSample(self.loss_table, m=self.m, n=self.n)
        est = genbounds.estimate_rademacher(sample, self.sigma_draws, seed=self.seed)
        cap = genbounds.massart_bound(sample)
        per_agent = self.loss_table.reshape(self.candidates, self.m, self.n)
        M_i = per_agent.max(axis=(0, 2)).tolist()
        self.bound_inputs = genbounds.BoundInputs(
            m=self.m, n=self.n, M_i=M_i, cover_size=64, delta=0.05, epsilon=0.05,
            L_y=1.0, rademacher=est.value, vc_dim=self.d + 1)
        _ini(self.bounds_ini, {"bounds": {
            "m": self.m, "n": self.n, "M_i": " ".join(map(repr, M_i)),
            "cover_size": 64, "delta": 0.05, "epsilon": 0.05, "L_y": 1.0,
            "rademacher": repr(est.value), "vc_dim": self.d + 1}})
        return est, cap, call_cli(["bounds", str(self.bounds_ini)])

    def check_bounds(self, out) -> list:
        est, cap, res = out
        errors = []
        if not est.value <= cap + 4.0 * est.stderr:
            errors.append(f"bounds: Rademacher estimate {est.value} above Massart "
                          f"cap {cap} + 4 stderr {est.stderr}")
        if res.code != 0:
            return errors + [f"bounds: exit code {res.code}: {res.stderr.strip()}"]
        term = re.search(r"^rademacher_term\s+= (\S+)$", res.stdout, re.M)
        if term is None or float(term.group(1)) != 2.0 * est.value:
            errors.append("bounds: rademacher_term is not twice the estimate")
        return errors + self.same_as_first("bounds stdout", res.stdout.encode())

    def check_output(self, name: str, res: CliResult, csv_text: str | None) -> list:
        agents = self.references[name].agents
        y0 = np.zeros(self.d)
        for trace in res.traces:
            for rec in trace.records:
                floor = float(sum(a.value(rec.iterate.x, y0) for a in agents))
                if not (math.isfinite(rec.robust_loss) and rec.robust_loss >= floor):
                    return [f"{name}: {trace.config.algo} round {rec.round} robust "
                            f"loss {rec.robust_loss} below its value at y=0 {floor}"]
        return []


class ScalarFixedPoint(Workload):
    """`fedmm fixed-point --K 10 --eta 5e-4` on the fixed two-agent problem."""

    name = "scalar-fixed-point"
    default_seed = 0  # the problem is fixed; the seed changes nothing
    K, eta = 10, 5e-4
    reference_kernel = (2, 1, 18)
    # every call is per-call overhead on 1-vectors: large array calls have no
    # counterpart here, and scaling by their speed would add noise
    array_kernel = False

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.micro_problem = problems.ScalarTwoAgent()
        self.ops = [self.cli_op("fixed-point", ["fixed-point", "--K", str(self.K),
                                                "--eta", repr(self.eta)],
                                rounds=FIXED_POINT_ROUNDS, to_tol=True)]

    def check_output(self, name: str, res: CliResult, csv_text: str | None) -> list:
        found = re.search(r"^closed-form vs simulated:\s+(\S+)$", res.stdout, re.M)
        if found is None or not float(found.group(1)) <= 1e-6:
            return ["fixed-point: closed-form vs simulated above 1e-6"]
        return []

    def replay(self, op: Op, res: CliResult, samples: dict) -> list:
        """Re-run the simulated limit through the library and check that it
        reproduces the limit the untraced CLI run printed."""
        problem = problems.ScalarTwoAgent()
        start = time.perf_counter_ns()
        limit = analysis.local_sgda_limit(problem, self.K, self.eta, self.eta)
        samples["limit_ns"].append(time.perf_counter_ns() - start)
        samples["limit_rounds"].append(limit.rounds)
        printed = re.search(r"^simulated limit:\s+x = (\S+), y = (\S+)$", res.stdout, re.M)
        if printed is None or [float(v) for v in printed.groups()] != [
                float(limit.iterate.x[0]), float(limit.iterate.y[0])]:
            return ["fixed-point: replayed limit differs from the printed one"]
        return []

    def setup_once(self) -> None:
        problem = problems.ScalarTwoAgent()
        z_fixed = analysis.local_sgda_fixed_point_closed_form(self.K, self.eta, self.eta)
        problems.closed_form_minimax(problem)
        algorithms.local_sgda_residual(problem, z_fixed, self.K, self.eta, self.eta)


WORKLOADS = {w.name: w for w in (QuadFederation, RlrRobust, ScalarFixedPoint)}
