"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It runs tiny instances of every workload through run.py in both modes and
asserts that every metric named in BENCHMARK.json is emitted with its unit,
that a seed regenerates byte-identical inputs, and that a deliberately
perturbed trace fails the 1e-12 equivalence check. Exits non-zero on the
first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, f"{workload} {section}: {emitted} != {expected}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload} trace={trace}: {len(emitted)} metrics with units")


def check_inputs_repeat(spec):
    import workloads

    for workload in (w["name"] for w in spec["workloads"]):
        make = lambda seed: workloads.make_workload(workload).generate(seed)  # noqa: E731
        first = json.dumps(make(SEED), sort_keys=True).encode()
        assert first == json.dumps(make(SEED), sort_keys=True).encode(), workload
        assert first != json.dumps(make(SEED + 1), sort_keys=True).encode(), workload
        # the two processes of check_metrics regenerated the tiny inputs
        hashes = set()
        for trace in (0, 1):
            with open(os.path.join(ROOT, ".perfbench-out", f"{workload}-trace{trace}.json")) as fh:
                hashes.add(json.load(fh)["provenance"]["inputs_sha256"])
        assert len(hashes) == 1, f"{workload}: inputs differ between processes"
        print(f"ok  {workload}: seed {SEED} regenerates byte-identical inputs")


def check_perturbed_trace_fails():
    import relosplit as rs
    import relosplit.cli  # noqa: F401
    import workloads

    class PerturbedRing(workloads.RingBox):
        def solve(self, rs, item):
            trace = super().solve(rs, item)
            trace.iterates[5] = rs.BlockVector(trace.iterates[5].data + 1e-9)
            return trace

    for cls, should_fail in ((workloads.RingBox, False), (PerturbedRing, True)):
        workload = cls(tiny=True)
        built = workload.build(rs, workload.generate(SEED))
        outcomes = [o for item in built.items
                    for o in workload.outcomes(rs, item, workload.solve(rs, item))]
        failures = workload.check(rs, built, outcomes)
        assert bool(failures[0]) == should_fail, (cls.__name__, failures)
    print("ok  ring-box: a 1e-9 perturbation of one iterate fails the equivalence check")

    workdir = os.path.join(ROOT, ".perfbench-out", f"smoke-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.CliDr2(tiny=True)
        staged = workload.stage(workload.generate(SEED), workdir)
        workload.solve(rs, staged.config_paths)
        assert workload.naive_mismatch(rs, staged, 0) == []
        path = os.path.join(workdir, "trace_0.csv")
        with open(path) as fh:
            lines = fh.readlines()
        header = lines[0].strip().split(",")
        row = lines[1 + 10].strip().split(",")  # iteration 10, after the header
        col = header.index("point_0")
        row[col] = format(float(row[col]) + 1e-9, ".17g")
        lines[1 + 10] = ",".join(row) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        fails = workload.naive_mismatch(rs, staged, 0)
        assert fails and "iterate 10" in fails[0], fails
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok  cli-dr2: a 1e-9 perturbation of one CSV row fails the equivalence check")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    check_metrics(spec)
    check_inputs_repeat(spec)
    check_perturbed_trace_fails()
    print("smoke test passed")


if __name__ == "__main__":
    main()
