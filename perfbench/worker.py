"""One workload process of the benchmark; started by run.py.

Phases:

* ``setup``: import relosplit, build the instances and print ``setup_s``.
* ``run``: the same set-up, then solve every instance to tolerance in
  rounds until the time is spent, check the outputs and, with ``--trace 1``,
  repeat one round with every layer wrapped in spans.

The last line of standard output is one JSON document with the results.
The BLAS and OpenMP thread counts are pinned by run.py before this process
starts, because they must be set before numpy loads.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_library():
    """Import relosplit from this checkout's sources; returns (module, seconds)."""
    start = time.perf_counter()
    import relosplit
    import relosplit.cli  # noqa: F401  (the cli-dr2 workload and the tracer use it)
    elapsed = time.perf_counter() - start
    source = os.path.join(ROOT, "src", "relosplit")
    if os.path.dirname(os.path.abspath(relosplit.__file__)) != source:
        raise SystemExit(f"relosplit was imported from {relosplit.__file__}, "
                         f"not from {source}")
    return relosplit, elapsed


def timed_rounds(rs, workload, units, seconds, clock):
    """Solve every unit once per round until ``seconds`` would be exceeded.

    At least one round runs. Returns the Timing of each unit in each round
    and the outcomes of the first round. An outcome whose iteration count
    changes in a later round is marked ``repeat_failed``.
    """
    timings = [[] for _ in units]
    first = None
    begin = time.perf_counter()
    rounds = 0
    while True:
        outcomes = []
        for k, unit in enumerate(units):
            raw, timing = clock.measure(workload.solve, rs, unit)
            timings[k].append(timing)
            outcomes += workload.outcomes(rs, unit, raw)
        rounds += 1
        if first is None:
            first = outcomes
        for out, again in zip(first, outcomes):
            out["repeat_failed"] = out.get("repeat_failed") or again["iters"] != out["iters"]
        elapsed = time.perf_counter() - begin
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    return timings, first


def median_sum(timings, field):
    """Sum over units of each unit's median across rounds."""
    return sum(statistics.median(getattr(t, field) for t in unit) for unit in timings)


def end_to_end(timings, outcomes):
    return {
        "solve_s": median_sum(timings, "wall"),
        "cpu_s": median_sum(timings, "cpu"),
        "iters_to_tol": sum(o["iters"] for o in outcomes),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def traced_round(rs, workload, staged, clock, spans_path):
    """Build and solve once with every layer traced.

    Returns the tracer, the reference-scaled wall time of the solves and
    the outcomes.
    """
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(rs)
    try:
        built = workload.build(rs, staged)
        solve_s, outcomes = 0.0, []
        for k, unit in enumerate(workload.units(built)):
            tracer.instance = k
            raw, timing = clock.measure(workload.solve, rs, unit)
            solve_s += timing.wall
            outcomes += workload.outcomes(rs, unit, raw)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    return tracer, solve_s, outcomes


def per_layer(tracer, traced_solve_s, untraced_solve_s, outcomes, control):
    """The per-layer metrics of one traced round.

    Layer times are raw seconds; the two solve times behind
    trace_overhead_ratio are reference seconds, like solve_s.
    """
    records = sum(o["iters"] + 1 for o in outcomes)
    needed = sum(o["n_ops"] * (o["iters"] + 1) for o in outcomes)
    resolvents = tracer.calls("operators.resolvent")
    affine_calls, affine_us = tracer.key_calls_us("operators.resolvent", "affine")
    box_calls, box_us = tracer.key_calls_us("operators.resolvent", "normal_cone_box")
    return {
        "operators.resolvent.calls": resolvents,
        "operators.resolvent.self_s": tracer.self_s("operators.resolvent"),
        "operators.resolvent.useful_ratio": needed / resolvents if resolvents else 0.0,
        "operators.resolvent.affine.calls": affine_calls,
        "operators.resolvent.affine.us": affine_us,
        "operators.resolvent.normal_cone_box.calls": box_calls,
        "operators.resolvent.normal_cone_box.us": box_us,
        "linalg.solve_linear.calls": tracer.calls("linalg.solve_linear"),
        "linalg.solve_linear.self_s": tracer.self_s("linalg.solve_linear"),
        "linalg.as_vector.calls": tracer.calls("linalg.as_vector"),
        "linalg.as_vector.self_s": tracer.self_s("linalg.as_vector"),
        "linalg.blockvector.constructed": tracer.calls("linalg.blockvector"),
        "linalg.blockvector.self_s": tracer.self_s("linalg.blockvector"),
        "linalg.kron_apply.calls": tracer.calls("linalg.kron_apply"),
        "linalg.kron_apply.self_s": tracer.self_s("linalg.kron_apply"),
        "graphs.sweep.calls": tracer.calls("graphs.sweep"),
        "graphs.sweep.self_s": tracer.self_s("graphs.sweep"),
        "graphs.sweeps_per_iter": tracer.calls("graphs.sweep") / records,
        "graphs.relocation_vector_e.calls": tracer.calls("graphs.relocation_vector_e"),
        "graphs.run.self_s": tracer.self_s("graphs.run"),
        "malitsky_tam.run.self_s": tracer.self_s("malitsky_tam.run"),
        "dr2.run.self_s": tracer.self_s("dr2.run"),
        "driver.trace_record.calls": tracer.calls("driver.trace_record"),
        "driver.trace_record.self_s": tracer.self_s("driver.trace_record"),
        "driver.write_csv.self_s": tracer.self_s("driver.write_csv"),
        "driver.write_csv.bytes": tracer.csv_bytes,
        "driver.trace_retained_mb": tracer.max_trace_bytes / 1e6,
        "driver.relocated.iters_to_tol": sum(o["iters"] for o in outcomes),
        "driver.unrelocated.iters_to_tol": control["iters"],
        "driver.unrelocated.converged": control["converged"],
        "schedules.gamma_at.calls": tracer.calls("schedules.gamma_at"),
        "schedules.gamma_at.self_s": tracer.self_s("schedules.gamma_at"),
        "schedules.relocating_steps": tracer.relocating_steps,
        "schedules.clamp_hits": tracer.clamp_hits,
        "problems.make_problem.s": tracer.total_s("problems.make_problem"),
        "problems.solution_residual.calls": tracer.calls("problems.solution_residual"),
        "problems.solution_residual.self_s": tracer.self_s("problems.solution_residual"),
        "cli.parse_config.s": tracer.total_s("cli.parse_config"),
        "cli.output_bytes": sum(o.get("output_bytes", 0) for o in outcomes),
        "trace_overhead_ratio": traced_solve_s / untraced_solve_s,
        "solve_s.traced": traced_solve_s,
        "solve_s.untraced": untraced_solve_s,
    }


def provenance(seed, inputs_hash):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
        "inputs_sha256": inputs_hash,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances, for the smoke test")
    args = parser.parse_args(argv)

    # set-up starts at the library import; numpy arrives with it, so the
    # benchmark's own modules (which import numpy) load afterwards
    rs, import_s = import_library()
    import workloads
    from refclock import ReferenceClock

    workload = workloads.make_workload(args.workload, tiny=args.tiny)
    inputs = workload.generate(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        staged = workload.stage(inputs, workdir)
        start = time.perf_counter()
        built = workload.build(rs, staged)
        raw_setup_s = import_s + time.perf_counter() - start
        clock = ReferenceClock()
        setup = {"setup_s": clock.scale(raw_setup_s), "raw_setup_s": raw_setup_s}
        if args.phase == "setup":
            print(json.dumps(setup))
            return 0

        units = workload.units(built)
        budget = args.seconds / 2 if args.trace else args.seconds
        timings, outcomes = timed_rounds(rs, workload, units, budget, clock)
        metrics = end_to_end(timings, outcomes)
        raw = {"solve_s": median_sum(timings, "raw_wall"),
               "cpu_s": median_sum(timings, "raw_cpu")}
        failures = workload.check(rs, built, outcomes)
        for fails, out in zip(failures, outcomes):
            if out["repeat_failed"]:
                fails.append("iteration count changed between rounds")
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"{args.workload}.spans.npz")
            tracer, traced_solve_s, traced_outcomes = traced_round(
                rs, workload, staged, clock, spans_path)
            for fails, out, traced in zip(failures, outcomes, traced_outcomes):
                if traced["iters"] != out["iters"]:
                    fails.append("traced iteration count differs from the untraced run")
            control = workload.unrelocated_control(rs, staged)
            metrics = per_layer(tracer, traced_solve_s, metrics["solve_s"],
                                traced_outcomes, control)
        result = {
            "workload": args.workload,
            "metrics": metrics,
            "raw": raw,
            "setup": setup,
            "attempted": len(failures),
            "failed": sum(1 for fails in failures if fails),
            "failures": {k: fails for k, fails in enumerate(failures) if fails},
            "rounds": len(timings[0]),
            "unit_wall_s": [[t.wall for t in unit] for unit in timings],
            "unit_raw_wall_s": [[t.raw_wall for t in unit] for unit in timings],
            "reference_wall_s": clock.samples,
            "provenance": provenance(args.seed, workloads.input_hash(inputs)),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
