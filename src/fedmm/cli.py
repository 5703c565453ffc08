"""Experiment harness: config-driven runs, comparisons, and data export.

Config files are INI-style text with a ``[problem]`` section, one ``[algo]``
section or several ``[algo:<label>]`` sections, and an ``[output]`` section.
Each section's keys are the entries of its table below, read in table order;
README "Config format" documents them. A comment takes a line of its own.
Unknown sections or keys are rejected loudly, naming the offender, and the
whole config is checked before the first run. The environment variable
``FEDMM_SEED`` overrides the config seed when set.

Trace CSV schema (stable):
``round,algorithm,K,eta_x,eta_y,gap_sq,grad_norm,robust_loss,elapsed_ns``;
absent metrics emit empty fields and rows are ordered by (algorithm, round).
``elapsed_ns`` is left empty unless ``timing = true``, so that identical
config + seed reruns produce byte-identical files.

Exit codes: 0 success, 2 config error, a refusal by the library (say, bounds
that overflow, from ``genbounds``), an allocation that fails, or an
unreadable/unwritable file, 3 divergence abort; ``compare`` still writes the
traces of the algorithms that finished before the diverging one. This module
only parses, dispatches and prints: trace and plot files, like containers, go
through ``datagen.write_atomic``, so a failed write leaves an existing file
intact.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import re
import sys
from pathlib import Path

from .algorithms import (
    ALGORITHMS,
    FEDGDA_GT,
    AlgoConfig,
    DivergenceError,
    RunTrace,
    auto_eta_fedgda,
    run_algorithm,
)
from .analysis import fixed_point_report, robust_loss
from .core import Iterate
from .datagen import (QuadraticGenSpec, RlrGenSpec, gen_quadratic, gen_rlr, save_dataset,
                      write_atomic)
from .genbounds import BoundInputs, bound_terms, population_risk_bound, vc_rademacher_bound
from .problems import (
    MinimaxProblem,
    RobustLinearRegression,
    ScalarTwoAgent,
    UnsupportedProblemError,
    closed_form_minimax,
)

CSV_HEADER = "round,algorithm,K,eta_x,eta_y,gap_sq,grad_norm,robust_loss,elapsed_ns"


class ConfigError(ValueError):
    """The config file is invalid; the message names the offending item."""


def _to_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw}") from None


def _trace_path(raw: str) -> str:
    if not Path(raw).name:
        raise ValueError(f"not a file name: {raw!r}")
    return raw


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


# One table per section: key -> (parser, default or _REQUIRED), in read order.
_REQUIRED = object()
_SCALAR2 = {"kind": (str, _REQUIRED)}
_QUADRATIC = {**_SCALAR2, "m": (int, _REQUIRED), "d": (int, _REQUIRED),
              "n": (int, _REQUIRED), "seed": (int, _REQUIRED)}
_PROBLEM_TABLES = {  # by kind; each table extends the one before it
    "scalar2": _SCALAR2,
    "quadratic": _QUADRATIC,
    "rlr": {**_QUADRATIC, "alpha": (float, _REQUIRED), "radius_y": (float, 1.0)},
}
_ALGO_TABLE = {"name": (str, _REQUIRED), "K": (int, 1), "rounds": (int, _REQUIRED),
               "eta": (float, None), "eta_x": (float, None), "eta_y": (float, None)}
_OUTPUT_TABLE = {"trace": (_trace_path, _REQUIRED), "emit_plot_data": (_to_bool, False),
                 "timing": (_to_bool, False), "robust_loss": (_to_bool, None)}
_BOUNDS_TABLE = {  # the fields of BoundInputs
    "m": (int, _REQUIRED), "n": (int, _REQUIRED), "M_i": (_float_list, _REQUIRED),
    "cover_size": (int, _REQUIRED), "delta": (float, _REQUIRED),
    "epsilon": (float, _REQUIRED), "L_y": (float, _REQUIRED),
    "rademacher": (float, _REQUIRED), "vc_dim": (int, None),
}
PROBLEM_KINDS = tuple(_PROBLEM_TABLES)


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser spreads its reason over several lines
        reason = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed config {path}: {reason}") from exc
    return parser


def _check_sections(parser, required: str, known: str, note: str = "") -> None:
    """The ``required`` section is present and every section's name matches
    the regular expression ``known`` in full."""
    if required not in parser:
        raise ConfigError(f"missing required section [{required}]")
    for name in parser.sections():
        if not re.fullmatch(known, name):
            raise ConfigError(f"unknown section [{name}]{note}")


def _read(section, name: str, table: dict) -> dict:
    """The section's value of every key in ``table``, parsed, or its default.
    A key the table lacks is rejected first, then the table's keys are read
    in order."""
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
    values = {}
    for key, (parse, default) in table.items():
        if key not in section:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{name}]")
            values[key] = default
            continue
        raw = section[key]
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r} in [{name}]: cannot parse {raw!r}") from exc
    return values


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------

def _build_problem(section) -> tuple[MinimaxProblem, QuadraticGenSpec | RlrGenSpec | None]:
    """The problem a ``[problem]`` section names, and the spec it was
    generated from (None for scalar2)."""
    kind = section.get("kind")
    if kind is not None and kind not in _PROBLEM_TABLES:
        raise ConfigError(f"unknown problem kind {kind!r}; choose from {PROBLEM_KINDS}")
    # with no kind, the widest table accepts every known key and names the
    # missing 'kind'
    values = _read(section, "problem", _PROBLEM_TABLES.get(kind, _PROBLEM_TABLES["rlr"]))
    if kind == "scalar2":
        return ScalarTwoAgent(), None

    env_seed = os.environ.get("FEDMM_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"FEDMM_SEED must be an integer, got {env_seed!r}") from exc
    shape = dict(m=values["m"], d=values["d"], n_i=values["n"], seed=values["seed"])

    try:
        if kind == "quadratic":
            spec = QuadraticGenSpec(**shape)
            return gen_quadratic(spec), spec
        spec = RlrGenSpec(**shape, alpha=values["alpha"])
        problem = gen_rlr(spec)
        if values["radius_y"] != 1.0:
            problem = RobustLinearRegression(
                [a.A for a in problem.agents], [a.b for a in problem.agents],
                y_radius=values["radius_y"],
            )
        return problem, spec
    except ValueError as exc:
        raise ConfigError(f"problem generation failed: {exc}") from exc


def _algo_sections(parser) -> list[tuple[str, str]]:
    """(section name, label) for every algo section, in file order; the
    label of ``[algo]`` is ''."""
    found = []
    for name in parser.sections():
        head, colon, label = name.partition(":")
        if head != "algo":
            continue
        if colon and not label:
            raise ConfigError(f"empty label in section [{name}]")
        found.append((name, label))
    return found


def _build_algo(section, section_name: str, problem: MinimaxProblem) -> AlgoConfig:
    values = _read(section, section_name, _ALGO_TABLE)
    name = values["name"]
    if name not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {name!r} in [{section_name}]; choose from {ALGORITHMS}"
        )
    K, eta, eta_x, eta_y = values["K"], values["eta"], values["eta_x"], values["eta_y"]

    if eta is not None and (eta_x is not None or eta_y is not None):
        raise ConfigError(f"[{section_name}]: give either eta or eta_x/eta_y, not both")
    if (eta_x is None) != (eta_y is None):
        raise ConfigError(f"[{section_name}]: eta_x and eta_y must be given together")
    if eta is not None:
        eta_x = eta_y = eta
    if eta_x is None:
        if name != FEDGDA_GT:
            raise ConfigError(f"[{section_name}]: {name} requires an explicit stepsize")
        try:
            eta_x = eta_y = auto_eta_fedgda(problem, K).eta
        except UnsupportedProblemError as exc:
            raise ConfigError(
                f"[{section_name}]: cannot auto-select a stepsize for this problem "
                f"({exc}); give eta explicitly"
            ) from exc
        except ValueError as exc:
            raise ConfigError(f"[{section_name}]: {exc}") from exc

    init = Iterate.zeros(problem.p, problem.q)
    try:
        return AlgoConfig(algo=name, eta_x=eta_x, eta_y=eta_y, K=K,
                          rounds=values["rounds"], init=init)
    except ValueError as exc:
        raise ConfigError(f"[{section_name}]: {exc}") from exc


def _build_output(parser, problem: MinimaxProblem) -> dict:
    if "output" not in parser:
        raise ConfigError("missing required section [output]")
    out = _read(parser["output"], "output", _OUTPUT_TABLE)
    is_rlr = isinstance(problem, RobustLinearRegression)
    if out["robust_loss"] is None:
        out["robust_loss"] = is_rlr
    if out["robust_loss"] and not is_rlr:
        raise ConfigError("robust_loss tracking is only available for rlr problems")
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def write_trace_csv(path, runs: list[tuple[str, RunTrace]], *, timing: bool) -> None:
    lines = [CSV_HEADER]
    for label, trace in sorted(runs, key=lambda item: item[0]):
        cfg = trace.config
        for rec in trace.records:
            lines.append(",".join([
                str(rec.round),
                label,
                str(cfg.K),
                _fmt(cfg.eta_x),
                _fmt(cfg.eta_y),
                _fmt(rec.gap_sq),
                _fmt(rec.grad_norm),
                _fmt(rec.robust_loss),
                str(rec.elapsed_ns) if timing else "",
            ]))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_plot_csv(path, runs: list[tuple[str, RunTrace]]) -> None:
    """Long-format (round, algorithm, metric, value) file for plotting tools."""
    lines = ["round,algorithm,metric,value"]
    for label, trace in sorted(runs, key=lambda item: item[0]):
        for rec in trace.records:
            if rec.gap_sq is not None:
                metric, value = "gap_sq", rec.gap_sq
            elif rec.robust_loss is not None:
                metric, value = "robust_loss", rec.robust_loss
            else:
                metric, value = "grad_norm", rec.grad_norm
            lines.append(f"{rec.round},{label},{metric},{_fmt(value)}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _execute(config_path, *, expect_compare: bool) -> int:
    parser = _read_ini(config_path)
    _check_sections(parser, "problem", r"problem|output|algo(:.*)?")
    problem, _spec = _build_problem(parser["problem"])
    algo_sections = _algo_sections(parser)
    if expect_compare and len(algo_sections) < 2:
        raise ConfigError("compare needs at least two [algo] sections")
    if not expect_compare and len(algo_sections) != 1:
        raise ConfigError("run needs exactly one [algo] section")
    output = _build_output(parser, problem)
    algos = {}  # label -> config, in file order; all built before the first run
    for section_name, label in algo_sections:
        config = _build_algo(parser[section_name], section_name, problem)
        label = label or config.algo
        if label in algos:
            raise ConfigError(f"duplicate algorithm label {label!r}")
        algos[label] = config

    try:
        z_star = closed_form_minimax(problem)
    except UnsupportedProblemError:
        z_star = None
    loss_fn = None
    if output["robust_loss"]:
        loss_fn = lambda z: robust_loss(problem, z.x).value  # noqa: E731

    runs = []
    for label, config in algos.items():
        try:
            trace = run_algorithm(problem, config, z_star=z_star, robust_loss_fn=loss_fn)
        except DivergenceError:
            # keep the traces of the algorithms that finished before this one
            if runs:
                _write_outputs(output, runs)
            raise
        runs.append((label, trace))

    _write_outputs(output, runs)
    return 0


def _write_outputs(output: dict, runs: list[tuple[str, RunTrace]]) -> None:
    write_trace_csv(output["trace"], runs, timing=output["timing"])
    if output["emit_plot_data"]:
        write_plot_csv(Path(output["trace"]).with_suffix(".plot.csv"), runs)


def cmd_fixed_point(K: int, eta: float) -> int:
    report = fixed_point_report(K, eta, eta)
    star = report.z_star
    fixed = report.z_fixed
    sim = report.z_simulated
    print(f"K = {report.K}, eta_x = {report.eta_x!r}, eta_y = {report.eta_y!r}")
    print(f"closed-form fixed point:    x = {float(fixed.x[0])!r}, y = {float(fixed.y[0])!r}")
    print(f"simulated limit:            x = {float(sim.x[0])!r}, y = {float(sim.y[0])!r}")
    print(f"simulated rounds:           {report.rounds} "
          f"({'converged' if report.converged else 'NOT converged'})")
    print(f"closed-form vs simulated:   {report.sim_agreement:.6e}")
    print(f"minimax point:              x = {float(star.x[0])!r}, y = {float(star.y[0])!r}")
    print(f"squared gap to minimax:     {report.gap:.6e}")
    print(f"fixed-point residual norm:  {report.residual_norm:.6e}")
    return 0


def cmd_bounds(inputs_path) -> int:
    parser = _read_ini(inputs_path)
    _check_sections(parser, "bounds", "bounds")
    # every key is read before the try, so a missing or unparsable one is
    # reported by ``_read`` alone, not wrapped in a second "[bounds]: "
    values = _read(parser["bounds"], "bounds", _BOUNDS_TABLE)
    # every bound is evaluated before the first line is printed, so inputs
    # the library refuses, overflowing ones included, print nothing
    try:
        inputs = BoundInputs(**values)
        terms = bound_terms(inputs)
        slack = population_risk_bound(inputs, 0.0)  # the bound at empirical risk 0
        if inputs.vc_dim is not None:
            vc = vc_rademacher_bound(inputs.m, inputs.n, inputs.vc_dim, inputs.sum_M_i_sq)
    except ValueError as exc:
        raise ConfigError(f"[bounds]: {exc}") from exc
    for name, value in terms.items():
        print(f"{name:<20}= {value!r}")
    print(f"population-risk bound = empirical risk f(x,y) + {slack!r}")
    print(f"worst-case-risk bound = worst-case empirical risk g(x) + {slack!r}")
    if inputs.vc_dim is not None:
        print(f"vc_rademacher_bound = {vc!r}")
    return 0


def cmd_gen_data(config_path, out_path) -> int:
    parser = _read_ini(config_path)
    _check_sections(parser, "problem", "problem", " (gen-data reads only [problem])")
    problem, spec = _build_problem(parser["problem"])
    if spec is None:
        raise ConfigError("gen-data needs a generated problem kind (quadratic or rlr)")
    save_dataset(out_path, problem, spec)
    print(f"wrote {spec} to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parsing leaves the parser unchanged
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fedmm",
        description="Deterministic federated minimax optimization harness",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=lambda a: _execute(a.config, expect_compare=False))

    p_cmp = sub.add_parser("compare", help="run several algorithms on one problem")
    p_cmp.add_argument("config")
    p_cmp.set_defaults(func=lambda a: _execute(a.config, expect_compare=True))

    p_fp = sub.add_parser("fixed-point",
                          help="fixed-point study on the two-agent scalar problem")
    p_fp.add_argument("--K", type=int, required=True)
    p_fp.add_argument("--eta", type=float, required=True)
    p_fp.set_defaults(func=lambda a: cmd_fixed_point(a.K, a.eta))

    p_bounds = sub.add_parser("bounds", help="evaluate generalization bounds")
    p_bounds.add_argument("inputs")
    p_bounds.set_defaults(func=lambda a: cmd_bounds(a.inputs))

    p_gen = sub.add_parser("gen-data", help="generate and dump a dataset container")
    p_gen.add_argument("config")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=lambda a: cmd_gen_data(a.config, a.out))
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError and UnstableStepsizeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
