"""The relosplit benchmark: time to tolerance on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring-box --seed 1 --seconds 30 --trace 0

Workloads are ``ring-box``, ``graph-affine`` and ``cli-dr2`` (see
perfbench/README.md). Each runs in its own single-threaded process, with
the OpenMP and BLAS thread counts pinned to 1, in a closed loop that solves
its instances one after another.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s`` (the
median of several fresh set-ups), ``solve_s`` and ``cpu_s`` (time to bring
every instance to its tolerance), ``iters_to_tol`` and ``peak_rss_mb``.
Times are in reference seconds, corrected for the host's drifting speed
(see refclock.py); the raw seconds are printed too. With
``--trace 1`` an extra round runs with every layer wrapped in spans and the
per-layer metrics are reported instead. Either way the outputs are checked,
and a failed check makes the exit code 1.

Metric lines and the provenance of the run are printed first; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
full result and the spans of a traced run are written under
``.perfbench-out/`` in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import OUT_DIR, ROOT, THREAD_ENV

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ring-box", "graph-affine", "cli-dr2")

#: fresh processes timed for setup_s; the first of them is a warm-up that
#: fills the bytecode and file caches and is not counted
SETUP_PROBES = 6
#: every process this benchmark starts must end within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "solve_s": "s",
    "cpu_s": "s",
    "iters_to_tol": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "operators.resolvent.calls": "count",
    "operators.resolvent.self_s": "s",
    "operators.resolvent.useful_ratio": "ratio",
    "operators.resolvent.affine.calls": "count",
    "operators.resolvent.affine.us": "us",
    "operators.resolvent.normal_cone_box.calls": "count",
    "operators.resolvent.normal_cone_box.us": "us",
    "linalg.solve_linear.calls": "count",
    "linalg.solve_linear.self_s": "s",
    "linalg.as_vector.calls": "count",
    "linalg.as_vector.self_s": "s",
    "linalg.blockvector.constructed": "count",
    "linalg.blockvector.self_s": "s",
    "linalg.kron_apply.calls": "count",
    "linalg.kron_apply.self_s": "s",
    "graphs.sweep.calls": "count",
    "graphs.sweep.self_s": "s",
    "graphs.sweeps_per_iter": "ratio",
    "graphs.relocation_vector_e.calls": "count",
    "graphs.run.self_s": "s",
    "malitsky_tam.run.self_s": "s",
    "dr2.run.self_s": "s",
    "driver.trace_record.calls": "count",
    "driver.trace_record.self_s": "s",
    "driver.write_csv.self_s": "s",
    "driver.write_csv.bytes": "B",
    "driver.trace_retained_mb": "MB",
    "driver.relocated.iters_to_tol": "count",
    "driver.unrelocated.iters_to_tol": "count",
    "driver.unrelocated.converged": "count",
    "schedules.gamma_at.calls": "count",
    "schedules.gamma_at.self_s": "s",
    "schedules.relocating_steps": "count",
    "schedules.clamp_hits": "count",
    "problems.make_problem.s": "s",
    "problems.solution_residual.calls": "count",
    "problems.solution_residual.self_s": "s",
    "cli.parse_config.s": "s",
    "cli.output_bytes": "B",
    "trace_overhead_ratio": "ratio",
    "solve_s.traced": "s",
    "solve_s.untraced": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env():
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, phase, deadline):
    """Run worker.py to completion and return its final JSON document."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--phase", phase,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the workload process started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the deadline ({phase})") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({phase}, exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"workload process printed nothing ({phase})")
    return json.loads(lines[-1])


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for probe in range(SETUP_PROBES):
            sample = run_worker(args, "setup", deadline)
            if probe:
                setups.append(sample)
    result = run_worker(args, "run", deadline)
    if not args.trace:
        setups.append(result["setup"])
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        result["setup_samples"] = setups
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="relosplit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent solving in the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances; used by the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "relosplit", "__init__.py")):
        print(f"error: no relosplit sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} raw (unscaled) seconds: " + ", ".join(
            f"{name} = {result['raw'][name]:.6g}" for name in ("solve_s", "cpu_s", "setup_s")))
    if result["failed"]:
        for k, fails in result["failures"].items():
            print(f"{args.workload} instance {k} FAILED: {'; '.join(fails)}")
    print(f"{args.workload} fail_ratio = {result['failed']}/{result['attempted']}"
          f" over {result['rounds']} round(s)")
    print(json.dumps({"provenance": result["provenance"]}))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
