"""The benchmark's workloads: seeded inputs, construction, solving and checks.

Every workload follows the same four steps:

* ``generate(seed)`` turns the workload seed into plain numbers (lists,
  ints, dicts). The library never sees the seed, only these inputs, and the
  same seed always gives byte-identical inputs (see ``input_hash``).
* ``stage(inputs, workdir)`` does benchmark-side file work that the user
  would have done beforehand (writing config files); it is not timed.
* ``build(rs, staged)`` constructs the library objects. It is part of
  ``setup_s``.
* ``units(built)`` lists the timed units, ``solve(rs, unit)`` runs one and
  ``outcomes(rs, unit, raw)`` reduces its result to one small record per
  problem instance; ``check(rs, built, outcomes)`` returns the failures of
  each instance.

Sizes follow the intent of each workload: ``ring-box`` keeps resolvents
trivial so that per-call Python overhead dominates, ``graph-affine`` makes
dense affine resolvents and the relocation's second sweep dominate, and
``cli-dr2`` is the user's ``relosplit run`` path including CSV output.
"""

import contextlib
import hashlib
import io
import json
import os
from types import SimpleNamespace

import numpy as np

#: Per-iterate agreement demanded between an efficient runner and the naive
#: ``run_relocated`` composition of its family and relocator.
EQUIV_TOL = 1e-12

#: The moving schedule shared by the workloads: gamma changes at every step,
#: so every step relocates.
GEOMETRIC = {"limit": 1.0, "start": 2.0, "ratio": 0.99}
MAX_ITERS = 20000


def input_hash(inputs):
    """SHA-256 of the canonical JSON form of a workload's generated inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def first_mismatch(efficient, naive, tol=EQUIV_TOL):
    """Describe where two iterate sequences first differ by more than tol.

    Returns None when they have the same length and agree per iterate.
    """
    if len(efficient) != len(naive):
        return f"{len(efficient)} iterates against {len(naive)} in the naive run"
    for n, (a, b) in enumerate(zip(efficient, naive)):
        diff = float(np.max(np.abs(np.subtract(a, b))))
        if not diff <= tol:
            return f"iterate {n} differs from the naive run by {diff:.3e}"
    return None


def consensus_point(trace, n_ops):
    """Blockwise mean of the last recorded sweep of a product-space run."""
    return trace.points[-1].reshape(n_ops, -1).mean(axis=0)


class _ProductSpaceWorkload:
    """Shared solve/check logic of the ring and graph workloads."""

    #: bound on the oracle residual at the final consensus point
    solution_tol = None

    def stage(self, inputs, workdir):
        return inputs

    def units(self, built):
        return built.items

    def outcomes(self, rs, item, trace):
        return [{
            "status": trace.status,
            "iters": trace.iterations,
            "n_ops": self.n_ops,
            "point": consensus_point(trace, self.n_ops),
        }]

    def check(self, rs, built, outcomes):
        failures = []
        for item, out in zip(built.items, outcomes):
            fails = []
            if out["status"] != "converged":
                fails.append(f"status {out['status']}")
            resid = rs.solution_residual(item.instance, out["point"])
            if not resid <= self.solution_tol:
                fails.append(f"oracle residual {resid:.3e} > {self.solution_tol:.0e}")
            failures.append(fails)
        failures[0] += self.naive_mismatch(rs, built.items[0], outcomes[0])
        return failures

    def unrelocated_control(self, rs, staged):
        """Not run here: unrelocated product-space runs may take MAX_ITERS."""
        return {"iters": 0, "converged": 0}

    def naive_mismatch(self, rs, item, outcome):
        """Re-solve one instance both ways and compare per iterate."""
        efficient = self.solve(rs, item)
        family, relocator = self.family_and_relocator(rs, item)
        naive = rs.run_relocated(family, relocator, item.schedule, item.x0, item.stop)
        fails = []
        if efficient.iterations != outcome["iters"]:
            fails.append(f"re-solve took {efficient.iterations} iterations, "
                         f"timed solve {outcome['iters']}")
        mismatch = first_mismatch([x.data for x in efficient.iterates],
                                  [x.data for x in naive.iterates])
        if mismatch:
            fails.append(mismatch)
        return fails


class RingBox(_ProductSpaceWorkload):
    """Malitsky-Tam ring runner on feasible box-intersection problems."""

    name = "ring-box"
    theta = 0.5
    residual_tol = 1e-10
    solution_tol = 1e-8

    def __init__(self, tiny=False):
        self.n_ops, self.dim, self.count = (4, 3, 2) if tiny else (16, 8, 4)

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        instances = []
        for _ in range(self.count):
            # boxes planted around a common point, so the problem is feasible
            center = rng.standard_normal(self.dim)
            lo = center - rng.uniform(0.05, 1.0, (self.n_ops, self.dim))
            hi = center + rng.uniform(0.05, 1.0, (self.n_ops, self.dim))
            instances.append({
                "boxes": [[a.tolist(), b.tolist()] for a, b in zip(lo, hi)],
                "x0": (3.0 * rng.standard_normal((self.n_ops - 1, self.dim))).tolist(),
            })
        return {"workload": self.name, "instances": instances}

    def build(self, rs, inputs):
        items = []
        for spec in inputs["instances"]:
            instance = rs.make_problem("box_feasibility", {"boxes": spec["boxes"]})
            items.append(SimpleNamespace(
                instance=instance,
                problem=rs.MTProblem(tuple(instance.ops), theta=self.theta),
                schedule=rs.GeometricToLimit(**GEOMETRIC),
                stop=rs.StopRule(residual_tol=self.residual_tol, max_iters=MAX_ITERS),
                x0=rs.BlockVector(spec["x0"]),
            ))
        return SimpleNamespace(items=items)

    def solve(self, rs, item):
        return rs.algorithm2_run(
            item.problem, item.schedule, item.x0, item.stop,
            solution_residual=lambda z: rs.solution_residual(item.instance, z))

    def family_and_relocator(self, rs, item):
        return rs.mt_family(item.problem), rs.mt_relocator(item.problem)


class GraphAffine(_ProductSpaceWorkload):
    """General graph runner on random monotone affine operators."""

    name = "graph-affine"
    theta = 1.0
    residual_tol = 1e-8
    solution_tol = 1e-5

    def __init__(self, tiny=False):
        self.n_ops, self.dim, self.count = (4, 4, 2) if tiny else (6, 32, 8)

    def graph_spec(self):
        """A chain spanning tree plus chords that do not form the ring."""
        n = self.n_ops
        tree = [[i, i + 1] for i in range(1, n)]
        chords = [[1, 3], [2, 5], [4, 6]] if n == 6 else [[1, 3], [2, 4]]
        return {"N": n, "E": tree + chords, "Eprime": tree}

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        instances = [{
            "problem_seed": int(rng.integers(2**31)),
            "x0": rng.standard_normal((self.n_ops - 1, self.dim)).tolist(),
        } for _ in range(self.count)]
        return {"workload": self.name, "graph": self.graph_spec(),
                "instances": instances}

    def build(self, rs, inputs):
        spec = inputs["graph"]
        graph = rs.build_graph(spec["N"], spec["E"], spec["Eprime"])
        items = []
        for inst in inputs["instances"]:
            instance = rs.make_problem(
                "affine_random", {"count": self.n_ops, "dim": self.dim},
                seed=inst["problem_seed"])
            items.append(SimpleNamespace(
                instance=instance,
                graph=graph,
                schedule=rs.GeometricToLimit(**GEOMETRIC),
                stop=rs.StopRule(residual_tol=self.residual_tol, max_iters=MAX_ITERS),
                x0=rs.BlockVector(inst["x0"]),
            ))
        return SimpleNamespace(items=items)

    def solve(self, rs, item):
        return rs.graph_relocated_run(
            item.instance.ops, item.graph, self.theta, item.schedule, item.x0,
            item.stop, solution_residual=lambda z: rs.solution_residual(item.instance, z))

    def family_and_relocator(self, rs, item):
        ops, g = item.instance.ops, item.graph
        return rs.graph_family(ops, g, self.theta), rs.graph_relocator(ops, g)


class CliDr2:
    """One ``relosplit run`` over generated two-operator DR configs.

    Half of the configs use the adaptive schedule and half the moving
    geometric one; each writes its trace CSV and summary JSON.
    """

    name = "cli-dr2"
    residual_tol = 1e-10
    solution_tol = 1e-7
    n_ops = 2

    def __init__(self, tiny=False):
        self.dim, self.count = (4, 2) if tiny else (16, 8)

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        configs = []
        for k in range(self.count):
            if k % 2:
                schedule = {"kind": "adaptive_kappa", "gamma0": 1.0}
            else:
                schedule = {"kind": "geometric", **GEOMETRIC}
            configs.append({
                "problem": {"name": "affine_random",
                            "params": {"count": 2, "dim": self.dim},
                            "seed": int(rng.integers(2**31))},
                "algorithm": "dr2",
                "schedule": schedule,
                "stop": {"residual_tol": self.residual_tol, "max_iters": MAX_ITERS},
                "output": {"trace_path": f"trace_{k}.csv",
                           "summary_path": f"summary_{k}.json"},
            })
        return {"workload": self.name, "configs": configs}

    def stage(self, inputs, workdir):
        """Write the configs, with output paths inside workdir."""
        paths = []
        for k, cfg in enumerate(inputs["configs"]):
            cfg = dict(cfg, output={key: os.path.join(workdir, name)
                                    for key, name in cfg["output"].items()})
            path = os.path.join(workdir, f"config_{k}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh, indent=2)
            paths.append(path)
        return SimpleNamespace(config_paths=paths, configs=inputs["configs"],
                               workdir=workdir)

    def build(self, rs, staged):
        return staged

    def units(self, built):
        return [built.config_paths]

    def solve(self, rs, paths):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rs.cli.main(["run", *paths])
        return SimpleNamespace(code=code, stdout=out.getvalue())

    def outcomes(self, rs, paths, raw):
        summaries = [json.loads(line) for line in raw.stdout.splitlines()]
        if len(summaries) != len(paths):
            raise RuntimeError(f"relosplit run printed {len(summaries)} summaries "
                               f"for {len(paths)} configs (exit code {raw.code})")
        outs = []
        for path, summary, line in zip(paths, summaries, raw.stdout.splitlines()):
            with open(path) as fh:
                output = json.load(fh)["output"]
            written = sum(os.path.getsize(p) for p in output.values())
            outs.append({
                "status": summary["status"],
                "iters": summary["iters"],
                "n_ops": self.n_ops,
                "point": np.array(summary["final_point"]),
                "exit_code": raw.code,
                "output_bytes": written + len(line) + 1,
            })
        return outs

    def check(self, rs, built, outcomes):
        failures = []
        for cfg, out in zip(built.configs, outcomes):
            fails = []
            if out["status"] != "converged":
                fails.append(f"status {out['status']}")
            if out["exit_code"] != 0:
                fails.append(f"relosplit run exited with code {out['exit_code']}")
            instance = self.instance(rs, cfg)
            resid = rs.solution_residual(instance, out["point"])
            if not resid <= self.solution_tol:
                fails.append(f"oracle residual {resid:.3e} > {self.solution_tol:.0e}")
            failures.append(fails)
        # the first config of each schedule kind against the naive composition
        for k in range(min(2, len(outcomes))):
            failures[k] += self.naive_mismatch(rs, built, k)
        return failures

    def unrelocated_control(self, rs, staged):
        """Re-solve each config with an identity relocator (no relocation).

        This is the paper's claim that relocation pays: reported, not gated,
        not timed.
        """
        identity = rs.Relocator(lambda gamma, delta, x: x, lambda gamma, delta: 1.0,
                                name="identity")
        traces = [self.naive_run(rs, cfg, relocator=identity) for cfg in staged.configs]
        return {"iters": sum(t.iterations for t in traces),
                "converged": sum(t.status == "converged" for t in traces)}

    @staticmethod
    def instance(rs, cfg):
        problem = cfg["problem"]
        return rs.make_problem(problem["name"], problem["params"], problem["seed"])

    def naive_run(self, rs, cfg, relocator=None):
        """run_relocated on one config; the DR relocator unless one is given."""
        problem = self.instance(rs, cfg).dr_problem()
        return rs.run_relocated(
            rs.dr_family(problem), relocator or rs.dr_relocator(problem),
            rs.cli.schedule_from_spec(cfg["schedule"]), np.zeros(problem.dim),
            rs.StopRule(**cfg["stop"]))

    def naive_mismatch(self, rs, built, k):
        """Compare the CSV the CLI wrote with the naive run, row by row.

        The CSV holds gamma_n and the shadow point z_n at 17 significant
        digits, which round-trip exactly.
        """
        naive = self.naive_run(rs, built.configs[k])
        with open(os.path.join(built.workdir, f"trace_{k}.csv")) as fh:
            rows = list(csv_rows(fh))
        dim = len(naive.points[0])
        gammas = [row["gamma"] for row in rows]
        points = [np.array([row[f"point_{i}"] for i in range(dim)]) for row in rows]
        fails = []
        for label, ours, theirs in (("gammas", gammas, naive.gammas),
                                    ("shadow points", points, naive.points)):
            mismatch = first_mismatch(ours, theirs)
            if mismatch:
                fails.append(f"config {k} {label}: {mismatch}")
        return fails


def csv_rows(fh):
    """Rows of a trace CSV as dicts of floats."""
    header = fh.readline().strip().split(",")
    for line in fh:
        yield dict(zip(header, map(float, line.split(","))))


WORKLOADS = {cls.name: cls for cls in (RingBox, GraphAffine, CliDr2)}


def make_workload(name, tiny=False):
    return WORKLOADS[name](tiny=tiny)
