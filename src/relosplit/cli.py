"""Experiment runner: parse a JSON config, execute, emit a CSV trace and a
JSON summary.

Exit codes: 0 converged, 1 invalid config, 2 max_iters reached, 3 diverged
or schedule rejected, 4 I/O failure.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .dr2 import algorithm1_run
from .driver import StopRule
from .errors import ConfigError, ConstructionError, ParameterError, RelosplitError
from .graphs import build_graph, graph_relocated_run
from .linalg import BlockVector
from .malitsky_tam import MTProblem, algorithm2_run
from .problems import make_problem, problem_names, solution_residual
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
    """Build a StepsizeSchedule from its config sub-schema."""
    kind = spec.get("kind")
    if kind == "constant":
        return Constant(spec["gamma"])
    if kind == "geometric":
        return GeometricToLimit(limit=spec["limit"], start=spec["start"],
                                ratio=spec["ratio"])
    if kind == "explicit":
        return ExplicitList(spec["values"])
    if kind == "adaptive_kappa":
        return AdaptiveKappa(
            gamma0=spec["gamma0"],
            clamp_lo=spec.get("clamp_lo", 1e-4),
            clamp_hi=spec.get("clamp_hi", 1e4),
        )
    raise ParameterError(f"unknown schedule kind {kind!r}")


def _as_nested_list(value):
    if isinstance(value, (list, tuple)):
        return [_as_nested_list(v) for v in value]
    return float(value)


def parse_config(doc):
    """Validate a config document (mapping or JSON text) into ExperimentConfig.

    All violations are aggregated into a single ConfigError whose messages
    are path-qualified, e.g. "schedule.gamma: must be positive".
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"document: invalid JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["document: expected a JSON object"])

    errors = []
    known = {"problem", "algorithm", "schedule", "stop", "theta", "graph", "x0", "output"}
    for key in doc:
        if key not in known:
            errors.append(f"{key}: unknown field")

    problem_spec = doc.get("problem")
    instance = None
    if not isinstance(problem_spec, dict):
        errors.append("problem: required object with a 'name'")
    else:
        name = problem_spec.get("name")
        params = problem_spec.get("params")
        seed = problem_spec.get("seed")
        if name not in problem_names():
            errors.append(f"problem.name: unknown problem {name!r}")
        elif params is not None and not isinstance(params, dict):
            errors.append("problem.params: must be an object")
        elif seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)
                                   or seed < 0):
            errors.append(f"problem.seed: must be a non-negative integer, got {seed!r}")
        else:
            try:
                instance = make_problem(name, params, seed)
            except (RelosplitError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"problem.params: {exc}")

    algorithm = doc.get("algorithm")
    if algorithm not in ALGORITHMS:
        errors.append(f"algorithm: must be one of {ALGORITHMS}, got {algorithm!r}")

    theta = doc.get("theta")
    if algorithm == "dr2":
        if theta is not None:
            errors.append("theta: not used by dr2")
        if instance is not None and instance.n_ops != 2:
            errors.append(
                f"problem: dr2 needs exactly 2 operators, got {instance.n_ops}"
            )
    elif algorithm in ("mt", "graph"):
        upper = 1 if algorithm == "mt" else 2
        try:
            valid = theta is not None and 0.0 < float(theta) < upper
        except (TypeError, ValueError):
            valid = False
        if not valid:
            errors.append(f"theta: theta must lie in (0,{upper})")

    graph_spec = doc.get("graph")
    if algorithm == "graph":
        if not isinstance(graph_spec, dict):
            errors.append("graph: required object {N, E, Eprime} for algorithm 'graph'")
        else:
            try:
                g = build_graph(graph_spec.get("N", 0), graph_spec.get("E", []),
                                graph_spec.get("Eprime", []))
                if instance is not None and g.n_nodes != instance.n_ops:
                    errors.append(
                        f"graph.N: graph has {g.n_nodes} nodes but the problem "
                        f"has {instance.n_ops} operators"
                    )
            except ConstructionError as exc:
                errors.append(f"graph: {exc}")
    elif graph_spec is not None:
        errors.append("graph: only used by algorithm 'graph'")

    schedule_spec = doc.get("schedule")
    if not isinstance(schedule_spec, dict):
        errors.append("schedule: required object with a 'kind'")
    else:
        try:
            schedule_from_spec(schedule_spec)
        except (RelosplitError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"schedule: {exc}")

    stop_spec = doc.get("stop")
    if not isinstance(stop_spec, dict):
        errors.append("stop: required object {residual_tol, max_iters}")
    else:
        try:
            StopRule(residual_tol=float(stop_spec.get("residual_tol", 0)),
                     max_iters=int(stop_spec.get("max_iters", 0)))
        except (RelosplitError, TypeError, ValueError) as exc:
            errors.append(f"stop: {exc}")

    x0 = doc.get("x0")
    if x0 is not None:
        try:
            x0 = _as_nested_list(x0)
        except (TypeError, ValueError):
            errors.append("x0: must be a (nested) list of numbers")
            x0 = None

    output = doc.get("output")
    if output is not None:
        if not isinstance(output, dict) or not set(output) <= {"trace_path", "summary_path"}:
            errors.append("output: object with optional trace_path/summary_path")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        problem=dict(problem_spec),
        algorithm=algorithm,
        schedule=dict(schedule_spec),
        stop={"residual_tol": float(stop_spec["residual_tol"]),
              "max_iters": int(stop_spec["max_iters"])},
        theta=None if theta is None else float(theta),
        graph=None if graph_spec is None else {
            "N": int(graph_spec["N"]),
            "E": [[int(i), int(j)] for i, j in graph_spec["E"]],
            "Eprime": [[int(i), int(j)] for i, j in graph_spec["Eprime"]],
        },
        x0=x0,
        output=None if output is None else dict(output),
    )


def _initial_vector(x0, dim):
    if x0 is None:
        return np.zeros(dim)
    arr = np.asarray(x0, dtype=float)
    if arr.shape != (dim,):
        raise ConfigError([f"x0: expected {dim} entries, got shape {arr.shape}"])
    return arr


def _initial_blocks(x0, nblocks, dim):
    if x0 is None:
        return BlockVector.zeros(nblocks, dim)
    arr = np.asarray(x0, dtype=float)
    if arr.shape != (nblocks, dim):
        raise ConfigError(
            [f"x0: expected {nblocks} blocks of {dim} entries, got shape {arr.shape}"]
        )
    return BlockVector(arr)


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

    if cfg.algorithm == "dr2":
        trace = algorithm1_run(instance.dr_problem(), schedule,
                               _initial_vector(cfg.x0, instance.dim), stop,
                               solution_residual=residual_fn)
    elif cfg.algorithm == "mt":
        problem = MTProblem(tuple(instance.ops), theta=cfg.theta)
        trace = algorithm2_run(problem, schedule,
                               _initial_blocks(cfg.x0, instance.n_ops - 1, instance.dim),
                               stop, solution_residual=residual_fn)
    else:
        g = build_graph(cfg.graph["N"], cfg.graph["E"], cfg.graph["Eprime"])
        trace = graph_relocated_run(instance.ops, g, cfg.theta, schedule,
                                    _initial_blocks(cfg.x0, g.n_nodes - 1, instance.dim),
                                    stop, solution_residual=residual_fn)
    trace.seed = problem_seed
    return trace


def execute_experiment(cfg, trace_out=None, summary_out=None, seed=None,
                       stdout=None):
    """Run one experiment and write its outputs; returns the exit code."""
    stdout = stdout or sys.stdout
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
                json.dump(summary, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps(summary), file=stdout)
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
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.accepted else EXIT_CONFIG


def _cmd_selftest(args):
    report = run_selftest(seed=args.seed or 0)
    print(json.dumps(report.to_dict(), indent=2))
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
    print(json.dumps(comparison, indent=2))
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
        code = args.func(args)
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
