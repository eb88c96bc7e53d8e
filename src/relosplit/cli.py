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
from dataclasses import asdict, dataclass

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
from .problems import PROBLEM, make_problem, solution_residual
from .schedules import (
    AdaptiveKappa,
    Constant,
    ExplicitList,
    GeometricToLimit,
    validate_schedule,
)
from .selftest import run_selftest

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


@dataclass
class ExperimentConfig:
    """Validated, JSON-serializable experiment description."""

    problem: dict
    algorithm: str
    schedule: dict
    stop: dict
    theta: float | None = None
    graph: dict | None = None
    x0: list | None = None
    output: dict | None = None


def config_to_dict(cfg):
    return {k: v for k, v in asdict(cfg).items() if v is not None}


def schedule_from_spec(spec):
    """Build the StepsizeSchedule of a schedule object (a config's "schedule")."""
    return checked(SCHEDULE, spec)


def parse_config(doc):
    """Validate a config document (mapping or JSON text) into ExperimentConfig.

    SCHEMA checks the kind of every field, down to each operator spec, and
    builds what the run uses, whose constructors check the ranges; the
    checks across fields (theta and x0 against the algorithm, the graph and
    dr2's arity against the problem) follow.
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
    fields = SCHEMA.check(doc, "", errors)

    instance = fields.get("problem")
    algorithm = fields.get("algorithm")
    theta = fields.get("theta")
    if algorithm == "dr2":
        if theta is not None:
            errors.append("theta: not used by dr2")
        if instance is not None and instance.n_ops != 2:
            errors.append(f"problem: dr2 needs exactly 2 operators, got {instance.n_ops}")
    elif algorithm is not None:
        upper = 1 if algorithm == "mt" else 2
        # a theta that is not a number has been reported by SCHEMA
        if doc.get("theta") is None or theta is not None and not 0.0 < theta < upper:
            errors.append(f"theta: theta must lie in (0,{upper})")

    graph = fields.get("graph")
    if algorithm == "graph" and doc.get("graph") is None:
        errors.append("graph: required object {N, E, Eprime} for algorithm 'graph'")
    elif algorithm != "graph" and graph is not None:
        errors.append("graph: only used by algorithm 'graph'")
    elif graph is not None and instance is not None and graph.n_nodes != instance.n_ops:
        errors.append(f"graph.N: graph has {graph.n_nodes} nodes but the problem "
                      f"has {instance.n_ops} operators")

    x0 = fields.get("x0")
    if x0 is not None and instance is not None and algorithm is not None:
        shape = _x0_shape(algorithm, instance)
        if x0.shape != shape:
            errors.append(f"x0: expected shape {shape}, got shape {x0.shape}")

    if errors:
        raise ConfigError(errors)
    # the config keeps the document's own (checked) fields, so it stays JSON
    return ExperimentConfig(**{key: doc[key] for key in fields})


def _x0_shape(algorithm, instance):
    """dr2 starts from a point; mt and graph from one block fewer than there
    are operators (a config's graph has one node per operator)."""
    return (instance.dim,) if algorithm == "dr2" else (instance.n_ops - 1, instance.dim)


def run_experiment(cfg, seed=None):
    """Execute a validated config; returns the ConvergenceTrace."""
    problem_seed = seed if seed is not None else cfg.problem.get("seed")
    instance = make_problem(cfg.problem["name"], cfg.problem.get("params"),
                            problem_seed)
    schedule = schedule_from_spec(cfg.schedule)
    stop = StopRule(**cfg.stop)
    residual_fn = None
    if instance.has_oracle:
        residual_fn = lambda z: solution_residual(instance, z)  # noqa: E731
    x0 = (np.zeros(_x0_shape(cfg.algorithm, instance)) if cfg.x0 is None
          else np.asarray(cfg.x0, dtype=float))

    if cfg.algorithm == "dr2":
        trace = algorithm1_run(instance.dr_problem(), schedule, x0, stop,
                               solution_residual=residual_fn)
    elif cfg.algorithm == "mt":
        problem = MTProblem(tuple(instance.ops), theta=cfg.theta)
        trace = algorithm2_run(problem, schedule, x0, stop, solution_residual=residual_fn)
    else:
        g = build_graph(cfg.graph["N"], cfg.graph["E"], cfg.graph["Eprime"])
        trace = graph_relocated_run(instance.ops, g, cfg.theta, schedule, x0, stop,
                                    solution_residual=residual_fn)
    trace.seed = problem_seed
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


def execute_experiment(cfg, trace_out=None, summary_out=None, seed=None):
    """Run one experiment and write its outputs; returns the exit code."""
    trace = run_experiment(cfg, seed=seed)
    output = cfg.output or {}
    trace_path = trace_out or output.get("trace_path")
    summary_path = summary_out or output.get("summary_path")
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


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO
    try:
        return parse_config(text), EXIT_OK
    except ConfigError as exc:
        for message in exc.errors:
            print(f"{path}: {message}", file=sys.stderr)
        return None, EXIT_CONFIG


def _cmd_run(args):
    if len(args.configs) > 1 and (args.trace_out or args.summary_out):
        print("error: --trace-out/--summary-out need a single config",
              file=sys.stderr)
        return EXIT_CONFIG
    configs = []
    for path in args.configs:
        cfg, code = _load_config(path)
        if cfg is None:
            return code
        configs.append(cfg)

    return max(execute_experiment(cfg, trace_out=args.trace_out,
                                  summary_out=args.summary_out, seed=args.seed)
               for cfg in configs)


def _cmd_validate_schedule(args):
    cfg, code = _load_config(args.config)
    if cfg is None:
        return code
    report = validate_schedule(schedule_from_spec(cfg.schedule), horizon=args.horizon)
    print(_dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.accepted else EXIT_CONFIG


def _cmd_selftest(args):
    report = run_selftest(seed=args.seed or 0)
    print(_dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_CONFIG


def _cmd_compare(args):
    summaries = []
    code = EXIT_OK
    for path in (args.config_a, args.config_b):
        cfg, load_code = _load_config(path)
        if cfg is None:
            return load_code
        trace = run_experiment(cfg, seed=args.seed)
        summaries.append(trace.summary())
        code = max(code, _STATUS_EXIT[trace.status])
    a, b = summaries
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
