"""Experiment runner: parse a JSON config, execute, emit a CSV trace and a
JSON summary.

Exit codes: 0 converged, 1 invalid config, 2 max_iters reached, 3 diverged
or schedule rejected, 4 I/O failure.
"""

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .dr2 import algorithm1_run
from .driver import StopRule
from .errors import ConfigError, RelosplitError
from .graphs import build_graph, graph_relocated_run
from .kinds import (
    INTEGER,
    NESTED_NUMBERS,
    NUMBER,
    NUMBERS,
    Leaf,
    ListOf,
    Object,
    Tagged,
    checked,
    one_of,
)
from .malitsky_tam import MTProblem, algorithm2_run
from .problems import PROBLEM, SEED, ProblemInstance
from .schedules import (
    AdaptiveKappa,
    Constant,
    ExplicitList,
    GeometricToLimit,
    StepsizeSchedule,
    validate_schedule,
)

ALGORITHMS = ("dr2", "graph", "mt")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITERS = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4

_STATUS_EXIT = {
    "converged": EXIT_OK,
    "max_iters": EXIT_MAX_ITERS,
    "diverged": EXIT_NOT_CONVERGED,
    "schedule_rejected": EXIT_NOT_CONVERGED,
}


ARCS = ListOf(ListOf(INTEGER, 2, 2))
#: open() refuses a NUL character, and os.fsencode a lone surrogate; an empty
#: path names no file
PATH = Leaf("a file path string", lambda value: isinstance(value, str) and value != ""
            and b"\0" not in os.fsencode(value))

#: Each schedule kind's keys, which are the keywords of its class
SCHEDULE = Tagged("kind", {
    "constant": Object({"gamma": NUMBER}, build=Constant),
    "geometric": Object({"limit": NUMBER, "start": NUMBER, "ratio": NUMBER},
                        build=GeometricToLimit),
    "explicit": Object({"values": NUMBERS}, build=ExplicitList),
    "adaptive_kappa": Object({"gamma0": NUMBER}, {"clamp_lo": NUMBER, "clamp_hi": NUMBER},
                             build=AdaptiveKappa),
})

#: The kind of every config field, down to problem.params and each operator
#: spec. The objects build what they describe (the problem instance, the
#: schedule, the stop rule, the graph), whose classes check the ranges.
SCHEMA = Object(
    {
        "problem": PROBLEM,
        "algorithm": one_of(*ALGORITHMS),
        "schedule": SCHEDULE,
        "stop": Object({"residual_tol": NUMBER, "max_iters": INTEGER}, build=StopRule),
    },
    {
        "theta": NUMBER,
        "graph": Object({"N": INTEGER, "E": ARCS, "Eprime": ARCS},
                        build=lambda N, E, Eprime: build_graph(N, E, Eprime)),
        "x0": NESTED_NUMBERS,
        "output": Object({}, {"trace_path": PATH, "summary_path": PATH}),
    },
)


@dataclass(eq=False)
class ExperimentConfig:
    """A checked config: the objects its schema built, and its algorithm's
    runner bound to them (see ``parse_config``)."""

    problem: ProblemInstance
    algorithm: str
    schedule: StepsizeSchedule
    stop: StopRule
    x0: np.ndarray
    runner: Callable
    output: dict


def schedule_from_spec(spec):
    """Build the StepsizeSchedule of a schedule object (a config's "schedule")."""
    return checked(SCHEDULE, spec)


def parse_config(doc, seed=None):
    """Check a config document (mapping or JSON text) and build what it
    describes, as an ExperimentConfig; ``seed``, when given, replaces
    problem.seed before the build.

    SCHEMA checks the kind of every field, down to each operator spec, and
    builds the problem instance, the schedule, the stop rule and the graph,
    whose constructors check the ranges. Then one branch per algorithm
    checks its rules across the fields (theta, the graph, dr2's arity and
    x0's shape) and binds its runner to what SCHEMA built.
    All violations are aggregated into a single ConfigError whose messages
    are path-qualified, e.g. "schedule.gamma: must be a number, got '1.0'".
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError([f"document: invalid JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["document: expected a JSON object"])

    errors = []
    problem = doc.get("problem")
    if seed is not None and isinstance(problem, dict):
        if problem.get("seed") is not None:  # replaced, and still checked
            SEED.check(problem["seed"], "problem.seed", errors)
        doc = {**doc, "problem": {**problem, "seed": seed}}
    fields = SCHEMA.check(doc, "", errors)
    problem, algorithm, theta, graph, x0 = map(
        fields.get, ("problem", "algorithm", "theta", "graph", "x0"))

    def theta_in(upper):
        # a theta that is not a number has been reported by SCHEMA
        if doc.get("theta") is None or theta is not None and not 0.0 < theta < upper:
            errors.append(f"theta: theta must lie in (0,{upper})")

    # a runner is bound once every check so far has passed, and called as
    # runner(schedule, x0, stop, solution_residual=...)
    shape = runner = None
    if algorithm == "dr2":  # no theta, 2 operators, x0 a point
        if theta is not None:
            errors.append("theta: not used by dr2")
        if problem is not None and problem.n_ops != 2:
            errors.append(f"problem: dr2 needs exactly 2 operators, got {problem.n_ops}")
        shape = None if problem is None else (problem.dim,)
        runner = None if errors else partial(algorithm1_run, problem.dr_problem())
    elif algorithm == "mt":  # theta in (0,1), x0 one block fewer than operators
        theta_in(1)
        shape = None if problem is None else (problem.n_ops - 1, problem.dim)
        runner = None if errors else partial(algorithm2_run, MTProblem(problem.ops, theta))
    elif algorithm == "graph":  # theta in (0,2), a graph with one node per operator
        theta_in(2)
        if doc.get("graph") is None:
            errors.append("graph: required object {N, E, Eprime} for algorithm 'graph'")
        elif graph is not None and problem is not None and graph.n_nodes != problem.n_ops:
            errors.append(f"graph.N: graph has {graph.n_nodes} nodes but the problem "
                          f"has {problem.n_ops} operators")
        shape = None if problem is None else (problem.n_ops - 1, problem.dim)
        runner = None if errors else partial(graph_relocated_run, problem.ops, graph, theta)
    if algorithm != "graph" and graph is not None:
        errors.append("graph: only used by algorithm 'graph'")
    if shape is not None and x0 is not None and x0.shape != shape:
        errors.append(f"x0: expected shape {shape}, got shape {x0.shape}")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        problem=problem, algorithm=algorithm, schedule=fields["schedule"], stop=fields["stop"],
        x0=np.zeros(shape) if x0 is None else x0, runner=runner,
        output=fields.get("output", {}))


def run_experiment(cfg):
    """Run a checked config's algorithm; returns the ConvergenceTrace.

    The trace keeps the instance's oracle and calls it, where its
    solution-residual column is read (the summary's last row, every row of
    the CSV), on a recorded shadow of R^dim, so the oracle is called as it
    is, not through the checked problems.solution_residual. The run itself
    calls no oracle. A shadow that is no longer finite gives a non-finite
    residual, not an error: the run goes on, and ends "diverged" once its
    iterate overflows.
    """
    trace = cfg.runner(cfg.schedule, cfg.x0, cfg.stop, solution_residual=cfg.problem.oracle)
    trace.seed = cfg.problem.seed
    return trace


def _json_safe(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _dumps(value, **kwargs):
    """Strict JSON text (RFC 8259): non-finite floats are written as null."""
    return json.dumps(_json_safe(value), allow_nan=False, **kwargs)


def execute_experiment(cfg, trace_out=None, summary_out=None):
    """Run one experiment and write its outputs; returns the exit code."""
    trace = run_experiment(cfg)
    trace_path = trace_out or cfg.output.get("trace_path")
    summary_path = summary_out or cfg.output.get("summary_path")
    summary = trace.summary()
    try:
        if trace_path:
            trace.write_csv(trace_path)
        if summary_path:
            with open(summary_path, "w") as fh:
                fh.write(_dumps(summary, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(_dumps(summary))
    return _STATUS_EXIT[trace.status]


def _load_configs(paths, seed=None):
    """The checked configs at ``paths``, all loaded before any runs, and
    EXIT_OK; or None and the exit code of the first that fails to load."""
    configs = []
    for path in paths:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return None, EXIT_IO
        try:
            configs.append(parse_config(text, seed))
        except ConfigError as exc:
            for message in exc.errors:
                print(f"{path}: {message}", file=sys.stderr)
            return None, EXIT_CONFIG
    return configs, EXIT_OK


def _cmd_run(args):
    if len(args.configs) > 1 and (args.trace_out or args.summary_out):
        print("error: --trace-out/--summary-out need a single config",
              file=sys.stderr)
        return EXIT_CONFIG
    configs, code = _load_configs(args.configs, args.seed)
    if configs is None:
        return code
    return max(execute_experiment(cfg, trace_out=args.trace_out, summary_out=args.summary_out)
               for cfg in configs)


def _cmd_validate_schedule(args):
    configs, code = _load_configs([args.config])
    if configs is None:
        return code
    report = validate_schedule(configs[0].schedule, horizon=args.horizon)
    print(_dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.accepted else EXIT_CONFIG


def _cmd_selftest(args):
    from .selftest import run_selftest  # the invariant suite loads only when it runs

    report = run_selftest(seed=args.seed or 0)
    print(_dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_CONFIG


def _cmd_compare(args):
    configs, code = _load_configs((args.config_a, args.config_b), args.seed)
    if configs is None:
        return code
    traces = [run_experiment(cfg) for cfg in configs]
    a, b = (trace.summary() for trace in traces)
    code = max(_STATUS_EXIT[trace.status] for trace in traces)
    comparison = {
        "a": a,
        "b": b,
        "iters_delta": a["iters"] - b["iters"],
        "final_residual_ratio": (
            a["final_residual"] / b["final_residual"]
            if b["final_residual"] else None
        ),
    }
    print(_dumps(comparison, indent=2))
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relosplit",
        description="Variable-stepsize resolvent splitting experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute experiment config(s)")
    p_run.add_argument("configs", nargs="+", metavar="config.json")
    p_run.add_argument("--trace-out", help="override the trace CSV path")
    p_run.add_argument("--summary-out", help="override the summary JSON path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the problem seed")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate-schedule",
                           help="validate the schedule of a config")
    p_val.add_argument("config", metavar="config.json")
    p_val.add_argument("--horizon", type=int, default=1000)
    p_val.set_defaults(func=_cmd_validate_schedule)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=_cmd_selftest)

    p_cmp = sub.add_parser("compare", help="run two configs and compare summaries")
    p_cmp.add_argument("config_a", metavar="configA.json")
    p_cmp.add_argument("config_b", metavar="configB.json")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise ConfigError([f"--seed: must be a non-negative integer, got {seed}"])
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); keep the interpreter's final
        # flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to stdout: broken pipe", file=sys.stderr)
        code = EXIT_IO
    except ConfigError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        code = EXIT_CONFIG
    except RelosplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
