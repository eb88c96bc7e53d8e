"""Experiment runner: parse a JSON config, execute, emit a CSV trace and a
JSON summary.

Exit codes: 0 converged, 1 invalid config, 2 max_iters reached, 3 diverged
or schedule rejected, 4 I/O failure.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .dr2 import algorithm1_run
from .driver import StopRule
from .errors import (ConfigError, ConstructionError, ParameterError, RelosplitError,
                     UnknownFieldError)
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

#: What float() and int() raise on a JSON value of the wrong type or size
#: (a string, NaN or infinity into int(), an integer beyond float range)
_BAD_VALUE = (TypeError, ValueError, OverflowError)

#: The keys each object of a config accepts; any other key is an error
FIELDS = ("problem", "algorithm", "schedule", "stop", "theta", "graph", "x0", "output")
STOP_FIELDS = ("residual_tol", "max_iters")
GRAPH_FIELDS = ("N", "E", "Eprime")
SCHEDULE_FIELDS = {"constant": ("kind", "gamma"), "explicit": ("kind", "values"),
                   "geometric": ("kind", "limit", "start", "ratio"),
                   "adaptive_kappa": ("kind", "gamma0", "clamp_lo", "clamp_hi")}

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
        return Constant(_number(spec["gamma"]))
    if kind == "geometric":
        return GeometricToLimit(limit=_number(spec["limit"]),
                                start=_number(spec["start"]),
                                ratio=_number(spec["ratio"]))
    if kind == "explicit":
        if not isinstance(spec["values"], list):
            raise TypeError(f"values must be a list of numbers, got {spec['values']!r}")
        return ExplicitList([_number(v) for v in spec["values"]])
    if kind == "adaptive_kappa":
        clamps = {k: _number(spec[k]) for k in ("clamp_lo", "clamp_hi") if k in spec}
        return AdaptiveKappa(gamma0=_number(spec["gamma0"]), **clamps)
    raise ParameterError(f"unknown schedule kind {kind!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value):
    """float(value), refusing JSON true/false, which float() reads as 1.0/0.0."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _parse_graph(spec, errors):
    """Type-check the {N, E, Eprime} fields; the normalized spec, or None."""
    ok = _is_int(spec.get("N"))
    if not ok:
        errors.append(f"graph.N: must be an integer, got {spec.get('N')!r}")
    for key in ("E", "Eprime"):
        arcs = spec.get(key)
        if not (isinstance(arcs, (list, tuple)) and all(
                isinstance(a, (list, tuple)) and len(a) == 2 and all(map(_is_int, a))
                for a in arcs)):
            errors.append(f"graph.{key}: must be a list of integer pairs [i, j], "
                          f"got {arcs!r}")
            ok = False
    if not ok:
        return None
    return {"N": spec["N"], "E": [list(a) for a in spec["E"]],
            "Eprime": [list(a) for a in spec["Eprime"]]}


def _unknown_fields(prefix, spec, allowed):
    return [f"{prefix}{key}: unknown field" for key in spec if key not in allowed]


def _as_nested_list(value):
    if isinstance(value, (list, tuple)):
        return [_as_nested_list(v) for v in value]
    return _number(value)


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

    errors = _unknown_fields("", doc, FIELDS)

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
        elif seed is not None and not (_is_int(seed) and seed >= 0):
            errors.append(f"problem.seed: must be a non-negative integer, got {seed!r}")
        else:
            try:
                instance = make_problem(name, params, seed)
            except UnknownFieldError as exc:
                errors.append(f"problem.params.{exc}")
            except (RelosplitError, KeyError, *_BAD_VALUE) as exc:
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
            valid = theta is not None and 0.0 < _number(theta) < upper
        except _BAD_VALUE:
            valid = False
        if not valid:
            errors.append(f"theta: theta must lie in (0,{upper})")

    graph_spec = doc.get("graph")
    graph = None
    if algorithm == "graph":
        if not isinstance(graph_spec, dict):
            errors.append("graph: required object {N, E, Eprime} for algorithm 'graph'")
        elif unknown := _unknown_fields("graph.", graph_spec, GRAPH_FIELDS):
            errors += unknown
        else:
            graph = _parse_graph(graph_spec, errors)
        if graph is not None:
            try:
                g = build_graph(graph["N"], graph["E"], graph["Eprime"])
                if instance is not None and g.n_nodes != instance.n_ops:
                    errors.append(
                        f"graph.N: graph has {g.n_nodes} nodes but the problem "
                        f"has {instance.n_ops} operators"
                    )
            except ConstructionError as exc:
                errors.append(f"graph: {exc}")
    elif graph_spec is not None:
        errors.append("graph: only used by algorithm 'graph'")

    sched_spec = doc.get("schedule")
    if not isinstance(sched_spec, dict):
        errors.append("schedule: required object with a 'kind'")
    else:
        kind = sched_spec.get("kind")
        # an unknown kind is reported by schedule_from_spec
        if isinstance(kind, str) and kind in SCHEDULE_FIELDS:
            errors += _unknown_fields("schedule.", sched_spec, SCHEDULE_FIELDS[kind])
        try:
            schedule_from_spec(sched_spec)
        except (RelosplitError, KeyError, *_BAD_VALUE) as exc:
            errors.append(f"schedule: {exc}")

    stop_spec = doc.get("stop")
    if not isinstance(stop_spec, dict):
        errors.append("stop: required object {residual_tol, max_iters}")
    elif unknown := _unknown_fields("stop.", stop_spec, STOP_FIELDS):
        errors += unknown
    elif not _is_int(max_iters := stop_spec.get("max_iters", 0)):
        errors.append(f"stop: max_iters must be an integer, got {max_iters!r}")
    else:
        try:
            StopRule(residual_tol=_number(stop_spec.get("residual_tol", 0)),
                     max_iters=max_iters)
        except (RelosplitError, *_BAD_VALUE) as exc:
            errors.append(f"stop: {exc}")

    x0 = doc.get("x0")
    if x0 is not None:
        try:
            x0 = _as_nested_list(x0)
            np.array(x0, dtype=float)  # ragged nesting, such as [[], 0]
        except _BAD_VALUE:
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
        schedule=dict(sched_spec),
        stop={"residual_tol": float(stop_spec["residual_tol"]),
              "max_iters": stop_spec["max_iters"]},
        theta=None if theta is None else float(theta),
        graph=graph,
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
                json.dump(summary, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps(summary))
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
