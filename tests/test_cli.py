import collections
import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relosplit
from conftest import GOLDEN_DIR, WaitingGeometric
from relosplit import cli, kinds, operators, selftest
from relosplit.driver import ScheduleBudgetWarning
from relosplit.errors import ConfigError
from relosplit.schedules import AdaptiveKappa, Constant, GeometricToLimit


def minimal_dr2_config(**overrides):
    doc = {
        "problem": {"name": "indicator_neglog"},
        "algorithm": "dr2",
        "schedule": {"kind": "constant", "gamma": 1.0},
        "stop": {"residual_tol": 1e-8, "max_iters": 200},
    }
    doc.update(overrides)
    return doc


GRAPH_CONFIG = {
    "problem": {"name": "affine_random", "params": {"count": 3, "dim": 2}, "seed": 1},
    "algorithm": "graph",
    "theta": 1.0,
    "graph": {"N": 3, "E": [[1, 2], [2, 3], [1, 3]], "Eprime": [[1, 2], [2, 3]]},
    "schedule": {"kind": "explicit", "values": [2.0, 1.0, 1.5]},
    "stop": {"residual_tol": 1e-8, "max_iters": 50},
}


def graph_field(key, value):
    """Overrides that turn minimal_dr2_config into GRAPH_CONFIG with one graph field set."""
    return {**GRAPH_CONFIG, "graph": {**GRAPH_CONFIG["graph"], key: value}}


def geometric_dr2_config(tmp_path):
    return {
        "problem": {"name": "indicator_neglog"},
        "algorithm": "dr2",
        "schedule": {"kind": "geometric", "limit": 1.0, "start": 2.0, "ratio": 0.5},
        "stop": {"residual_tol": 1e-9, "max_iters": 500},
        "x0": [3.0],
        "output": {
            "trace_path": str(tmp_path / "trace.csv"),
            "summary_path": str(tmp_path / "summary.json"),
        },
    }


class TestParseConfig:
    def test_minimal_dr2(self):
        cfg = cli.parse_config(minimal_dr2_config())
        assert cfg.algorithm == "dr2"
        assert isinstance(cfg.schedule, Constant) and cfg.schedule.gamma == 1.0
        assert cfg.x0.shape == (1,) and not cfg.x0.any()

    def test_mt_theta_out_of_range(self):
        doc = {
            "problem": {"name": "affine_consensus",
                        "params": {"count": 3, "dim": 2}, "seed": 0},
            "algorithm": "mt",
            "theta": 1.5,
            "schedule": {"kind": "constant", "gamma": 1.0},
            "stop": {"residual_tol": 1e-8, "max_iters": 10},
        }
        with pytest.raises(ConfigError) as err:
            cli.parse_config(doc)
        assert any("theta must lie in (0,1)" in m for m in err.value.errors)

    def test_graph_backward_arc(self):
        doc = {
            "problem": {"name": "affine_consensus",
                        "params": {"count": 3, "dim": 2}, "seed": 0},
            "algorithm": "graph",
            "theta": 1.0,
            "graph": {"N": 3, "E": [[1, 2], [3, 2]], "Eprime": [[1, 2], [3, 2]]},
            "schedule": {"kind": "constant", "gamma": 1.0},
            "stop": {"residual_tol": 1e-8, "max_iters": 10},
        }
        with pytest.raises(ConfigError) as err:
            cli.parse_config(doc)
        assert any("ordering" in m for m in err.value.errors)

    def test_dr2_arity_enforced(self):
        doc = minimal_dr2_config(
            problem={"name": "affine_consensus",
                     "params": {"count": 3, "dim": 2}, "seed": 0})
        with pytest.raises(ConfigError) as err:
            cli.parse_config(doc)
        assert any("exactly 2 operators" in m for m in err.value.errors)

    def test_aggregated_errors(self):
        doc = {
            "problem": {"name": "nope"},
            "algorithm": "warp",
            "schedule": {"kind": "nope"},
            "stop": {"residual_tol": -1, "max_iters": 0},
            "bogus": 1,
        }
        with pytest.raises(ConfigError) as err:
            cli.parse_config(doc)
        messages = "\n".join(err.value.errors)
        for fragment in ("problem.name", "algorithm", "schedule", "stop", "bogus"):
            assert fragment in messages

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError):
            cli.parse_config("{not json")

    def test_adaptive_clamp_defaults_come_from_the_class(self):
        reference = AdaptiveKappa(1.0)
        default = cli.schedule_from_spec({"kind": "adaptive_kappa", "gamma0": 1.0})
        assert (default.clamp_lo, default.clamp_hi) == (reference.clamp_lo,
                                                        reference.clamp_hi)
        explicit = cli.schedule_from_spec({"kind": "adaptive_kappa", "gamma0": 1.0,
                                           "clamp_hi": 5.0})
        assert (explicit.clamp_lo, explicit.clamp_hi) == (reference.clamp_lo, 5.0)


class TestExecuteExperiment:
    def test_dr2_geometric_writes_outputs(self, tmp_path, capsys):
        cfg = cli.parse_config(geometric_dr2_config(tmp_path))
        code = cli.execute_experiment(cfg)
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "converged"
        # the shadow point converges to the solution z = 1
        assert abs(summary["final_point"][0] - 1.0) <= 1e-6
        assert summary["final_solution_residual"] <= 1e-6
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["gamma"] == "2"
        assert {"n", "gamma", "residual", "solution_residual", "point_0",
                "z_0", "y_0", "w_0"} <= set(rows[0])

    def test_trace_csv_lossless(self, tmp_path):
        cfg = cli.parse_config(geometric_dr2_config(tmp_path))
        # x0 = 3 is on the moving fixed-point curve: without a declared limit
        # the run writes every moving stepsize 1 + 2^-n instead of two rows
        cfg.schedule = WaitingGeometric(limit=1.0, start=2.0, ratio=0.5)
        trace = cli.run_experiment(cfg)
        trace.write_csv(tmp_path / "t.csv")
        with open(tmp_path / "t.csv") as fh:
            rows = list(csv.DictReader(fh))
        for n, row in enumerate(rows):
            assert float(row["point_0"]) == trace.points[n][0]
            assert float(row["gamma"]) == trace.gammas[n]

    def test_mt_consensus(self, tmp_path):
        doc = {
            "problem": {"name": "affine_consensus",
                        "params": {"c": [[1.0], [3.0], [5.0], [7.0]]}},
            "algorithm": "mt",
            "theta": 0.5,
            "schedule": {"kind": "constant", "gamma": 1.0},
            "stop": {"residual_tol": 1e-10, "max_iters": 2000},
            "output": {"summary_path": str(tmp_path / "s.json")},
        }
        code = cli.execute_experiment(cli.parse_config(doc))
        assert code == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        z_blocks = np.array(summary["final_point"]).reshape(4, 1)
        assert np.max(np.abs(z_blocks - 4.0)) <= 1e-6

    def test_graph_algorithm_runs(self, tmp_path):
        doc = {
            "problem": {"name": "affine_consensus",
                        "params": {"c": [[0.0, 0.0], [2.0, 2.0], [4.0, -2.0]]}},
            "algorithm": "graph",
            "theta": 1.0,
            "graph": {"N": 3, "E": [[1, 2], [2, 3], [1, 3]],
                      "Eprime": [[1, 2], [2, 3]]},
            "schedule": {"kind": "geometric", "limit": 1.0, "start": 2.0,
                         "ratio": 0.5},
            "stop": {"residual_tol": 1e-10, "max_iters": 2000},
        }
        trace = cli.run_experiment(cli.parse_config(doc))
        assert trace.status == "converged"
        z_blocks = trace.points[-1].reshape(3, 2)
        assert np.max(np.abs(z_blocks - np.array([2.0, 0.0]))) <= 1e-6

    def test_infeasible_box_hits_max_iters(self, tmp_path):
        doc = {
            "problem": {"name": "box_feasibility",
                        "params": {"boxes": [[[0.0], [1.0]], [[2.0], [3.0]]]}},
            "algorithm": "mt",
            "theta": 0.5,
            "schedule": {"kind": "constant", "gamma": 1.0},
            "stop": {"residual_tol": 1e-9, "max_iters": 50},
        }
        code = cli.execute_experiment(cli.parse_config(doc))
        assert code == 2

    def test_custom_operator_specs_through_config(self):
        doc = {
            "problem": {"name": "custom", "params": {
                "ops": [
                    {"kind": "normal_cone_point", "c": [1.0]},
                    {"kind": "neg_log", "dim": 1},
                ],
                "solution": [1.0],
            }},
            "algorithm": "dr2",
            "schedule": {"kind": "geometric", "limit": 1.0, "start": 2.0,
                         "ratio": 0.5},
            "stop": {"residual_tol": 1e-9, "max_iters": 200},
            "x0": [3.0],
        }
        trace = cli.run_experiment(cli.parse_config(doc))
        assert trace.status == "converged"
        assert abs(trace.points[-1][0] - 1.0) <= 1e-6

    def test_io_failure_exit_code(self, tmp_path):
        cfg = cli.parse_config(minimal_dr2_config())
        code = cli.execute_experiment(
            cfg, trace_out=str(tmp_path / "missing_dir" / "trace.csv"))
        assert code == 4


class TestMainEntry:
    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(geometric_dr2_config(tmp_path)))
        code = cli.main(["run", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out.strip().splitlines()[-1])["status"] == "converged"

    def test_run_jobs_batch(self, tmp_path):
        paths = []
        for i in range(2):
            sub = tmp_path / f"run{i}"
            sub.mkdir()
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(geometric_dr2_config(sub)))
            paths.append(str(path))
        code = cli.main(["run", *paths])
        assert code == 0
        assert (tmp_path / "run0" / "summary.json").exists()
        assert (tmp_path / "run1" / "summary.json").exists()

    @pytest.mark.parametrize("x0", [[1.0, 2.0], [float("nan")]], ids=["shape", "nan"])
    def test_run_batch_checks_x0_before_running(self, tmp_path, capsys, monkeypatch, x0):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(geometric_dr2_config(tmp_path)))
        bad = tmp_path / "badx0.json"
        bad.write_text(json.dumps(minimal_dr2_config(x0=x0)))
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("a config ran"))
        for command in ("run", "compare"):
            code = cli.main([command, str(good), str(bad)])
            captured = capsys.readouterr()
            assert code == 1
            assert f"{bad}: x0:" in captured.err
            assert captured.out == ""
            assert sorted(os.listdir(tmp_path)) == ["badx0.json", "good.json"]

    @pytest.mark.parametrize("flag", ["--trace-out", "--summary-out"])
    def test_run_output_flag_needs_a_single_config(self, tmp_path, capsys, monkeypatch,
                                                   flag):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            path.write_text(json.dumps(minimal_dr2_config()))
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("a config ran"))
        code = cli.main(["run", *map(str, paths), flag, str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: --trace-out/--summary-out need a single config\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json"]

    def test_run_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "dr2"}))
        code = cli.main(["run", str(path)])
        assert code == 1
        assert "problem" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["dr2_geometric", "mt_custom_specs", "graph_geometric"])
    def test_run_builds_each_object_once(self, monkeypatch, capsys, name):
        built = collections.Counter()
        for cls in (relosplit.ProblemInstance, relosplit.SplittingGraph):
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        assert cli.main(["run", os.path.join(GOLDEN_DIR, f"{name}.json")]) == 0
        capsys.readouterr()
        assert built[relosplit.ProblemInstance] == 1
        # dr2 and mt build their own 2-node graph or ring; a graph config's
        # graph is the only one its run builds
        assert built[relosplit.SplittingGraph] == 1

    def test_run_seed_replaces_the_config_seed(self, tmp_path, capsys):
        with open(os.path.join(GOLDEN_DIR, "graph_geometric.json")) as fh:
            doc = json.load(fh)
        path = tmp_path / "cfg.json"
        seeded = tmp_path / "seeded.json"
        path.write_text(json.dumps(doc))
        seeded.write_text(json.dumps({**doc, "problem": {**doc["problem"], "seed": 7}}))
        assert cli.main(["run", str(path), "--seed", "7"]) == 0
        with_flag = capsys.readouterr().out
        assert cli.main(["run", str(seeded)]) == 0
        assert capsys.readouterr().out == with_flag
        assert json.loads(with_flag)["seed"] == 7
        # the config's own seed is still checked where --seed replaces it
        path.write_text(json.dumps({**doc, "problem": {**doc["problem"], "seed": "x"}}))
        assert cli.main(["run", str(path), "--seed", "7"]) == 1
        assert f"{path}: problem.seed: must be an integer, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"algorithm": "mt", "theta": "abc",
          "problem": {"name": "affine_consensus", "params": {"count": 3, "dim": 2}}},
         "theta:"),
        ({"problem": {"name": "indicator_neglog", "params": [1, 2]}}, "problem.params:"),
        ({"problem": {"name": "affine_random", "params": {"count": "abc"}}},
         "problem.params.count: must be an integer, got 'abc'"),
        ({"problem": {"name": "affine_random", "seed": "x"}}, "problem.seed:"),
        ({"stop": {"residual_tol": float("nan"), "max_iters": 10}}, "stop:"),
        ({"stop": {"residual_tol": float("inf"), "max_iters": 10}}, "stop:"),
        ({"stop": {"residual_tol": 1e-8, "max_iters": float("inf")}}, "stop.max_iters:"),
        ({"stop": {"residual_tol": 10**400, "max_iters": 10}}, "stop.residual_tol:"),
        ({"schedule": {"kind": "constant", "gamma": 10**400}}, "schedule.gamma:"),
        ({"x0": [10**400]}, "x0:"),
        (graph_field("N", "3x"), "graph.N:"),
        (graph_field("N", None), "graph.N:"),
        (graph_field("E", False), "graph.E:"),
        (graph_field("E", [[1, 2], [2]]), "graph.E[1]: must hold 2 items, got 1"),
        (graph_field("E", [[1, 2.5], [2, 3]]), "graph.E[0][1]: must be an integer, got 2.5"),
        (graph_field("Eprime", None), "graph.Eprime:"),
        (graph_field("Eprime", {":": None}), "graph.Eprime:"),
        ({"stop": {"residual_tol": 1e-8, "max_iters": 2.7}}, "stop.max_iters:"),
        ({"stop": {"residual_tol": 1e-8, "max_iters": True}}, "stop.max_iters:"),
        ({"stop": {"residual_tol": True, "max_iters": 10}}, "stop.residual_tol:"),
        ({**GRAPH_CONFIG, "theta": True}, "theta:"),
        ({"schedule": {"kind": "constant", "gamma": True}}, "schedule.gamma:"),
        ({"schedule": {"kind": "explicit", "values": [1.0, False]}}, "schedule.values[1]: must be a number, got False"),
        ({"x0": [False]}, "x0:"),
        ({"schedule": {"kind": "explicit", "values": "21"}},
         "schedule.values: must be a list"),
        ({"schedule": {"kind": "explicit", "values": {"2": 1}}},
         "schedule.values: must be a list"),
        ({"stop": {"residual_tol": 1e-8, "max_iters": 10, "maxiter": 3}},
         "stop.maxiter: unknown field"),
        ({"schedule": {"kind": "constant", "gamma": 1.0, "gamma0": 5.0}},
         "schedule.gamma0: unknown field"),
        ({"schedule": {"kind": "adaptive_kappa", "gamma0": 1.0, "clamp": 5.0}},
         "schedule.clamp: unknown field"),
        ({"problem": {"name": "affine_random", "params": {"count": 2, "dimm": 5}}},
         "problem.params.dimm: unknown field"),
        ({"problem": {"name": "indicator_neglog", "params": {"dim": 2}}},
         "problem.params.dim: unknown field"),
        (graph_field("Eprim", []), "graph.Eprim: unknown field"),
        ({"x0": [[], 0]}, "x0:"),
        ({"schedule": {"kind": "constant", "gamma": "1.0"}}, "schedule.gamma:"),
        ({"stop": {"residual_tol": "1e-8", "max_iters": 10}}, "stop.residual_tol:"),
        ({**GRAPH_CONFIG, "theta": "1.0"}, "theta:"),
        ({"problem": {"name": "indicator_neglog", "sead": 3}}, "problem.sead: unknown field"),
        ({"problem": {"name": "affine_random", "seed": -1}}, "problem.seed:"),
        ({"output": {"summary_path": True}}, "output.summary_path:"),
        ({"output": {"trace_path": 7}}, "output.trace_path:"),
        ({"output": {"trace_path": "t\0.csv"}}, "output.trace_path:"),
        ({"output": {"summary_path": "\ud800.json"}}, "output.summary_path:"),
        ({"schedule": {"kind": "geometric", "limit": float("nan"), "start": 1.0,
                       "ratio": 0.5}}, "schedule: limit and start must be positive"),
        ({"x0": [1.0, 2.0]}, "x0: expected shape (1,)"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0], "bogus": 3},
            {"kind": "neg_log", "dim": 1}]}}},
         "problem.params.ops[0].bogus: unknown field"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "translated", "shift": [0.0],
             "inner": {"kind": "neg_log", "dim": 1, "bogus": 3}}]}}},
         "problem.params.ops[1].inner.bogus: unknown field"),
        ({"problem": {"name": "affine_random", "params": {"count": 2.7}}},
         "problem.params.count: must be an integer, got 2.7"),
        ({"problem": {"name": "affine_random", "params": {"count": "2"}}},
         "problem.params.count: must be an integer, got '2'"),
        ({"problem": {"name": "affine_random", "params": {"dim": True}}},
         "problem.params.dim: must be an integer, got True"),
        ({"problem": {"name": "affine_consensus", "params": {"count": 2, "dim": 2.7}}},
         "problem.params.dim: must be an integer, got 2.7"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]}, {"kind": "zero", "dim": 1.9}]}}},
         "problem.params.ops[1].dim: must be an integer, got 1.9"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]}, {"kind": "neg_log", "dim": "2"}]}}},
         "problem.params.ops[1].dim: must be an integer, got '2'"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "scaled_identity", "lam": 1.0, "dim": True}]}}},
         "problem.params.ops[1].dim: must be an integer, got True"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "translated", "shift": [0.0], "inner": {"kind": "neg_log", "dim": 1.9}}]}}},
         "problem.params.ops[1].inner.dim: must be an integer, got 1.9"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "scaled_identity", "lam": "1.5", "dim": 1}]}}},
         "problem.params.ops[1].lam: must be a number, got '1.5'"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "scaled_identity", "lam": True, "dim": 1}]}}},
         "problem.params.ops[1].lam: must be a number, got True"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "normal_cone_ball", "center": [0.0], "radius": "1.5"}]}}},
         "problem.params.ops[1].radius: must be a number, got '1.5'"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "normal_cone_ball", "center": [0.0], "radius": True}]}}},
         "problem.params.ops[1].radius: must be a number, got True"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "scaled", "sigma": "2.0", "inner": {"kind": "neg_log", "dim": 1}}]}}},
         "problem.params.ops[1].sigma: must be a number, got '2.0'"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "scaled", "sigma": True, "inner": {"kind": "neg_log", "dim": 1}}]}}},
         "problem.params.ops[1].sigma: must be a number, got True"),
        ({"problem": {"name": "affine_consensus",
                      "params": {"count": 2, "dim": 1, "spread": "1.0"}}},
         "problem.params.spread: must be a number, got '1.0'"),
        ({"problem": {"name": "affine_consensus",
                      "params": {"count": 2, "dim": 1, "spread": True}}},
         "problem.params.spread: must be a number, got True"),
        ({"problem": {"name": "box_feasibility",
                      "params": {"boxes": [[["0"], ["1"]], [["0.5"], ["2"]]]}}},
         "problem.params.boxes[0][0]: must be a (nested) list of finite numbers, got ['0']"),
        ({"problem": {"name": "box_feasibility",
                      "params": {"boxes": [[[0.0], [True]], [[0.5], [2.0]]]}}},
         "problem.params.boxes[0][1]: must be a (nested) list of finite numbers, got [True]"),
        ({"problem": {"name": "affine_consensus", "params": {"c": [["1.0"], [2.0]]}}},
         "problem.params.c[0]: must be a (nested) list of finite numbers, got ['1.0']"),
        ({"problem": {"name": "affine_consensus", "params": {"c": [[1.0], [False]]}}},
         "problem.params.c[1]: must be a (nested) list of finite numbers, got [False]"),
        ({"problem": {"name": "custom", "params": {"solution": ["1.0"], "ops": [
            {"kind": "normal_cone_point", "c": [1.0]}, {"kind": "neg_log", "dim": 1}]}}},
         "problem.params.solution: must be a (nested) list of finite numbers, got ['1.0']"),
        ({"problem": {"name": "custom", "params": {"solution": [True], "ops": [
            {"kind": "normal_cone_point", "c": [1.0]}, {"kind": "neg_log", "dim": 1}]}}},
         "problem.params.solution: must be a (nested) list of finite numbers, got [True]"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": ["1.0"]}, {"kind": "neg_log", "dim": 1}]}}},
         "problem.params.ops[0].c: must be a (nested) list of finite numbers, got ['1.0']"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [True]}, {"kind": "neg_log", "dim": 1}]}}},
         "problem.params.ops[0].c: must be a (nested) list of finite numbers, got [True]"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "normal_cone_box", "lo": ["0"], "hi": [2.0]}]}}},
         "problem.params.ops[1].lo: must be a (nested) list of finite numbers, got ['0']"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "normal_cone_box", "lo": [0.0], "hi": [True]}]}}},
         "problem.params.ops[1].hi: must be a (nested) list of finite numbers, got [True]"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "affine", "M": [["1"]], "b": [0.0]}]}}},
         "problem.params.ops[1].M: must be a (nested) list of finite numbers, got [['1']]"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "affine", "M": [[1.0]], "b": [True]}]}}},
         "problem.params.ops[1].b: must be a (nested) list of finite numbers, got [True]"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "translated", "shift": "0", "inner": {"kind": "neg_log", "dim": 1}}]}}},
         "problem.params.ops[1].shift: must be a (nested) list of finite numbers, got '0'"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "normal_cone_ball", "center": [True], "radius": 1.0}]}}},
         "problem.params.ops[1].center: must be a (nested) list of finite numbers, got [True]"),
        ({"problem": {"name": "box_feasibility", "params": {"boxes": 5}}},
         "problem.params.boxes: must be a list, got 5"),
        ({"problem": {"name": "box_feasibility", "params": {"boxes": [1.0, 2.0]}}},
         "problem.params.boxes[0]: must be a list, got 1.0"),
        ({"problem": {"name": "box_feasibility",
                      "params": {"boxes": [[[0.0], [1.0], [2.0]], [[0.5], [2.0]]]}}},
         "problem.params.boxes[0]: must hold 2 items, got 3"),
        ({"problem": {"name": "affine_consensus", "params": {"c": 3}}},
         "problem.params.c: must be a list, got 3"),
        ({"problem": {"name": "custom", "params": {"ops": 5}}},
         "problem.params.ops: must be a list, got 5"),
        ({"problem": {"name": "affine_consensus", "params": {"dim": -1}}},
         "problem.params.dim: must be >= 1, got -1"),
        ({"problem": {"name": "affine_random", "params": {"dim": 0}}},
         "problem.params.dim: must be >= 1, got 0"),
        ({"output": {"trace_path": "", "summary_path": ""}},
         "output.trace_path: must be a file path string, got ''"),
        ({"x0": [float("inf")]}, "x0: must be a (nested) list of finite numbers, got [inf]"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "affine", "M": [[1.0], [1.0, 2.0]], "b": [0.0, 0.0]}]}}},
         "problem.params.ops[1].M: must be a (nested) list of finite numbers, got [[1.0], "),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [float("nan")]},
            {"kind": "neg_log", "dim": 1}]}}},
         "problem.params.ops[0].c: must be a (nested) list of finite numbers, got [nan]"),
        ({"problem": {"name": "custom", "params": {"ops": [{"kind": "neg_log", "dim": 1}]}}},
         "problem.params.ops: must hold at least 2 items, got 1"),
        ({"problem": {"name": "custom"}}, "problem.params: required field"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]}, {"kind": "mystery"}]}}},
         "problem.params.ops[1].kind: must be one of zero, scaled_identity, affine"),
        ({"problem": {"name": "custom", "params": {"solution": [[1.0, 2.0]], "ops": [
            {"kind": "normal_cone_point", "c": [1.0, 2.0]}, {"kind": "zero", "dim": 2}]}}},
         "problem.params.solution: must be a non-empty vector, got shape (1, 2)"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": []}, {"kind": "neg_log", "dim": 1}]}}},
         "problem.params.ops[0].c: must be a non-empty vector, got shape (0,)"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0, 2.0]},
            {"kind": "affine", "M": [[1.0, 0.0], [0.0, 1.0]], "b": [[0.0, 0.0]]}]}}},
         "problem.params.ops[1].b: must be a non-empty vector, got shape (1, 2)"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0, 2.0]},
            {"kind": "affine", "M": [1.0, 2.0], "b": [0.0, 0.0]}]}}},
         "problem.params.ops[1].M: must be a non-empty matrix, got shape (2,)"),
        ({"problem": {"name": "custom", "params": {"solution": [0.0], "ops": [
            {"kind": "normal_cone_point", "c": [1.0]}, {"kind": "zero", "dim": 1}]}}},
         "problem.params.solution: not a solution: residual 1.000e+00 > 1e-08"),
        ({"problem": {"name": "custom", "params": {"solution": [1.0], "ops": [
            {"kind": "normal_cone_point", "c": [1.0]},
            {"kind": "normal_cone_box", "lo": [0.0], "hi": [1.0]}]}}},
         "problem.params.solution: ops[0], ops[1] are set valued there"),
        ({"problem": {"name": "custom", "params": {"ops": [
            {"kind": "normal_cone_point", "c": [1.0]}, {"kind": "zero", "dim": 2}]}}},
         "problem: operators act on mixed dimensions [1, 2]"),
        ({"theta": 0.5}, "theta: not used by dr2"),
        ({key: value for key, value in GRAPH_CONFIG.items() if key != "graph"},
         "graph: required object {N, E, Eprime} for algorithm 'graph'"),
        ({**GRAPH_CONFIG,
          "problem": {"name": "affine_random", "params": {"count": 5, "dim": 2}, "seed": 1},
          "graph": {"N": 6, "E": [[i, i + 1] for i in range(1, 6)],
                    "Eprime": [[i, i + 1] for i in range(1, 6)]}},
         "graph.N: graph has 6 nodes but the problem has 5 operators"),
        ({"graph": GRAPH_CONFIG["graph"]}, "graph: only used by algorithm 'graph'"),
    ], ids=["theta", "params", "param-value", "seed", "tol-nan", "tol-inf",
            "max-iters-inf", "tol-huge-int", "gamma-huge-int", "x0-huge-int",
            "graph-N-text", "graph-N-null", "graph-E-false", "graph-E-short-arc",
            "graph-E-float-node", "graph-Eprime-null", "graph-Eprime-object",
            "max-iters-float", "max-iters-bool", "tol-bool",
            "graph-theta-bool", "gamma-bool", "explicit-value-bool", "x0-bool",
            "explicit-values-text", "explicit-values-object", "stop-unknown-key",
            "constant-unknown-key", "adaptive-unknown-key", "params-unknown-key",
            "params-unknown-key-no-params", "graph-unknown-key", "x0-ragged",
            "gamma-text", "tol-text", "graph-theta-text", "problem-unknown-key",
            "seed-negative", "summary-path-bool", "trace-path-int", "trace-path-nul",
            "summary-path-lone-surrogate", "geometric-limit-nan", "x0-dr2-shape",
            "custom-op-unknown-key", "custom-nested-op-unknown-key",
            "count-float", "count-text", "dim-bool", "consensus-dim-float",
            "zero-dim-float", "neg-log-dim-text", "scaled-identity-dim-bool",
            "nested-neg-log-dim-float", "scaled-identity-lam-text",
            "scaled-identity-lam-bool", "ball-radius-text", "ball-radius-bool",
            "scaled-sigma-text", "scaled-sigma-bool", "consensus-spread-text",
            "consensus-spread-bool", "boxes-text", "boxes-bool", "consensus-c-text",
            "consensus-c-bool", "solution-text", "solution-bool", "point-c-text",
            "point-c-bool", "box-lo-text", "box-hi-bool", "affine-M-text", "affine-b-bool",
            "translated-shift-text", "ball-center-bool", "boxes-int", "boxes-flat",
            "boxes-triple", "consensus-c-int", "custom-ops-int", "consensus-dim-negative",
            "random-dim-zero", "output-paths-empty", "x0-inf", "affine-M-ragged",
            "point-c-nan", "custom-one-op", "custom-no-params", "custom-op-unknown-kind",
            "solution-matrix", "point-c-empty", "affine-b-matrix", "affine-M-vector",
            "solution-wrong", "solution-two-set-valued", "custom-mixed-dims", "dr2-theta",
            "graph-missing", "graph-N-mismatch", "dr2-graph"])
    def test_run_malformed_field(self, tmp_path, capsys, overrides, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_dr2_config(**overrides)))
        code = cli.main(["run", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{path}: {field}" in err
        assert "Traceback" not in err

    def test_run_missing_file(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 4

    def test_validate_schedule_accepted(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_dr2_config()))
        assert cli.main(["validate-schedule", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accepted"] is True

    def test_validate_schedule_rejected(self, tmp_path, capsys):
        doc = minimal_dr2_config(
            schedule={"kind": "explicit", "values": [1.0, 1.5, 0.5, 0.625, -0.375]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate-schedule", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["accepted"] is False

    def test_compare(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        p1.write_text(json.dumps(minimal_dr2_config(x0=[3.0])))
        p2.write_text(json.dumps({
            **minimal_dr2_config(x0=[3.0]),
            "schedule": {"kind": "geometric", "limit": 1.0, "start": 2.0,
                         "ratio": 0.5},
        }))
        code = cli.main(["compare", str(p1), str(p2)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert {"a", "b", "iters_delta"} <= set(report)

    def test_rejected_schedule_summary_is_strict_json(self, tmp_path, capsys):
        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        doc = geometric_dr2_config(tmp_path)
        doc["schedule"] = {"kind": "explicit", "values": [0.0, 1.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 3
        line = capsys.readouterr().out.strip().splitlines()[-1]
        for text in (line, (tmp_path / "summary.json").read_text()):
            summary = json.loads(text, parse_constant=reject)
            assert summary["status"] == "schedule_rejected"
            assert summary["iters"] == -1
            assert summary["final_residual"] is None
        assert cli.main(["compare", str(path), str(path)]) == 3
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["final_residual_ratio"] is None

    def test_selftest_passes(self, capsys):
        code = cli.main(["selftest"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        # the floors are the check counts of the smaller suite these groups
        # grew from (resolvent_identities: its count since the affine kind's
        # second-call check), so a group that loses checks fails here; the
        # suite's zoo holds every operator kind
        floor = {"resolvent_identities": 9400, "relocator_axioms": 29, "schedules": 4,
                 "graph_algebra": 30, "graph_relocator": 50, "lipschitz_bounds": 500,
                 "equivalences": 12, "convergence": 3, "negative_controls": 2}
        checks = {g["name"]: g["checks"] for g in report["groups"]}
        assert checks.keys() == floor.keys()
        assert all(checks[name] >= floor[name] for name in floor), checks
        kinds = {op.kind for op in selftest.operator_zoo(np.random.default_rng(0))}
        assert kinds == set(operators.SPECS)

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}", "--seed", "-1"],
        ["compare", "{cfg}", "{cfg}", "--seed", "-5"],
        ["selftest", "--seed", "-1"],
    ], ids=["run", "compare", "selftest"])
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_dr2_config(
            problem={"name": "affine_random", "params": {"count": 2, "dim": 2}})))
        code = cli.main([a.format(cfg=path) for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: --seed: must be a non-negative integer" in err
        assert "Traceback" not in err

    def test_overflowing_mt_run_reports_diverged(self, tmp_path, capsys):
        doc = {
            "problem": {"name": "affine_consensus",
                        "params": {"count": 4, "dim": 2}, "seed": 0},
            "algorithm": "mt",
            "theta": 0.5,
            "schedule": {"kind": "explicit", "values": [1e-300, 1e300] * 3},
            "stop": {"residual_tol": 1e-10, "max_iters": 50},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(ScheduleBudgetWarning):
            code = cli.main(["run", str(path)])
        assert code == 3
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["status"] == "diverged"

    @pytest.mark.parametrize("doc", [
        # 2 x0, the sweep's input at MT's scale 2, overflows
        {"problem": {"name": "affine_consensus", "params": {"count": 3, "dim": 1},
                     "seed": 0},
         "algorithm": "mt", "theta": 0.5, "x0": [[1.2e308], [1.2e308]],
         "schedule": {"kind": "constant", "gamma": 1.0},
         "stop": {"residual_tol": 1e-10, "max_iters": 50}},
        # gamma b_3 = 1e308 * -10 overflows inside node 3's resolvent
        {"problem": {"name": "affine_consensus",
                     "params": {"count": 3, "dim": 1, "c": [[0], [0], [10]]}, "seed": 0},
         "algorithm": "graph", "theta": 1.0,
         "graph": {"N": 3, "E": [[1, 2], [1, 3], [2, 3]], "Eprime": [[1, 2], [2, 3]]},
         "schedule": {"kind": "constant", "gamma": 1e308},
         "stop": {"residual_tol": 1e-10, "max_iters": 50}},
        # the adaptive rule, fed the overflowed step, rejects gamma_1
        {"problem": {"name": "affine_consensus", "params": {"count": 3, "dim": 1},
                     "seed": 0},
         "algorithm": "mt", "theta": 0.5, "x0": [[1.2e308], [1.2e308]],
         "schedule": {"kind": "adaptive_kappa", "gamma0": 1.0},
         "stop": {"residual_tol": 1e-10, "max_iters": 50}},
        # MT's scale 2 takes gamma = 1e308 to inf, which the runner's sweep
        # hands on unchecked
        {"problem": {"name": "affine_consensus",
                     "params": {"count": 3, "dim": 1, "c": [[0], [0], [10]]}, "seed": 0},
         "algorithm": "mt", "theta": 0.5,
         "schedule": {"kind": "constant", "gamma": 1e308},
         "stop": {"residual_tol": 1e-10, "max_iters": 50}},
    ], ids=["mt-x0", "graph-gamma", "mt-x0-adaptive", "mt-gamma"])
    def test_overflow_inside_a_step_reports_diverged(self, tmp_path, capsys, doc):
        # the sweep and the relocator resolve unchecked, so the overflowed
        # point reaches the loop's finiteness test instead of a resolvent's
        # check, and a gamma rejected after an overflowed step is blamed on
        # the step; no numpy warning escapes the run either
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", str(path)])
        out, err = capsys.readouterr()
        assert code == 3
        assert err == ""
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["status"] == "diverged"
        assert summary["iters"] == 0

    def test_overflowing_shadow_reports_diverged(self, tmp_path, capsys):
        # the three sweep points are near 7e307 each, so their blockwise
        # mean, the shadow the oracle is handed, overflows to inf while the
        # iterate is still finite; the relocation by 1e300 / 1e-3 then
        # overflows the iterate
        doc = {
            "problem": {"name": "affine_consensus", "params": {"count": 3, "dim": 1},
                        "seed": 0},
            "algorithm": "graph",
            "theta": 1.0,
            "graph": {"N": 3, "E": [[1, 2], [2, 3]], "Eprime": [[1, 2], [2, 3]]},
            "schedule": {"kind": "explicit", "values": [1e-3, 1e300]},
            "stop": {"residual_tol": 1e-10, "max_iters": 5},
            "x0": [[7e307], [7e307]],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(ScheduleBudgetWarning):
            code = cli.main(["run", str(path)])
        out, err = capsys.readouterr()
        assert code == 3
        assert "error" not in err
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["status"] == "diverged"
        assert summary["iters"] == 0
        # the oracle's value at the overflowed shadow, inf, is written as null
        assert summary["final_solution_residual"] is None

    def test_importing_the_cli_leaves_the_invariant_suite_unloaded(self):
        # the package serves the suite's names on first use; a run does not
        # import the suite
        names = sorted(relosplit._SELFTEST_NAMES)
        src = os.path.dirname(os.path.dirname(os.path.abspath(relosplit.__file__)))
        code = ("import sys, relosplit, relosplit.cli\n"
                "assert 'relosplit.selftest' not in sys.modules\n"
                f"for name in {names!r}:\n"
                "    assert callable(getattr(relosplit, name)), name\n"
                "assert 'relosplit.selftest' in sys.modules\n"
                "try:\n"
                "    relosplit.no_such_name\n"
                "except AttributeError:\n"
                "    pass\n"
                "else:\n"
                "    raise AssertionError('no AttributeError')\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert all(getattr(relosplit, name) is getattr(selftest, name) for name in names)
        assert len(names) == 8

    def test_broken_pipe_exits_io_failure(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_dr2_config()))
        src = os.path.dirname(os.path.dirname(os.path.abspath(relosplit.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        # nobody will read: every write to the child's stdout fails with EPIPE
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "relosplit.cli", "run", str(path), str(path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 4
        assert "broken pipe" in proc.stderr
        assert "Traceback" not in proc.stderr


#: (status, iters, exit code) of every committed config. These pin the
#: behaviour of the three runners: a change to a runner or to the stop rule
#: that moves one of them must say why. Off Fix T the graph relocator decides
#: where an iterate goes, so the graph runs whose stepsize moves pin the
#: counts of the one-resolvent relocator. A geometric run relocates straight
#: to the schedule's limit once its residual is within tolerance:
#: dr2_geometric_crossing_budget is dr2_geometric with its budget at that
#: crossing, and dr2_on_curve_budget starts on the moving curve, so its first
#: relocation lands on Fix T_1.
GOLDEN = {
    "dr2_geometric": ("converged", 100, 0),
    "dr2_adaptive": ("converged", 69, 0),
    "dr2_neglog": ("converged", 1, 0),
    "dr2_geometric_budget": ("max_iters", 7, 2),
    "dr2_geometric_crossing_budget": ("max_iters", 99, 2),
    "dr2_adaptive_budget": ("max_iters", 7, 2),
    "dr2_on_curve_budget": ("converged", 1, 0),
    "mt_geometric": ("converged", 184, 0),
    "mt_adaptive": ("converged", 179, 0),
    "mt_adaptive_budget": ("max_iters", 9, 2),
    "mt_box_explicit": ("converged", 38, 0),
    "mt_box_geometric": ("converged", 38, 0),
    "graph_geometric": ("converged", 340, 0),
    "graph_adaptive": ("converged", 345, 0),
    "graph_explicit": ("converged", 338, 0),
    "graph_constant": ("converged", 338, 0),
    "graph_geometric_budget": ("max_iters", 10, 2),
    "graph_two_node_geometric": ("converged", 91, 0),
    "mt_custom_specs": ("converged", 141, 0),
}


class TestGoldenConfigs:
    def test_every_config_is_pinned(self):
        names = {f[:-len(".json")] for f in os.listdir(GOLDEN_DIR) if f.endswith(".json")}
        assert names == set(GOLDEN)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_status_iters_exit_code(self, capsys, name):
        code = cli.main(["run", os.path.join(GOLDEN_DIR, f"{name}.json")])
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (summary["status"], summary["iters"], code) == GOLDEN[name]


FUZZ_BASES = [
    {
        "problem": {"name": "affine_random", "params": {"count": 2, "dim": 2}, "seed": 1},
        "algorithm": "dr2",
        "schedule": {"kind": "adaptive_kappa", "gamma0": 1.0},
        "stop": {"residual_tol": 1e-8, "max_iters": 50},
        "x0": [0.5, -0.5],
        "output": {"trace_path": "trace.csv", "summary_path": "summary.json"},
    },
    {
        "problem": {"name": "affine_consensus", "params": {"count": 3, "dim": 2}, "seed": 0},
        "algorithm": "mt",
        "theta": 0.5,
        "schedule": {"kind": "geometric", "limit": 1.0, "start": 2.0, "ratio": 0.5},
        "stop": {"residual_tol": 1e-8, "max_iters": 50},
        "x0": [[0.0, 1.0], [1.0, 0.0]],
    },
    GRAPH_CONFIG,
    {
        "problem": {"name": "custom", "params": {"ops": [
            {"kind": "affine", "M": [[2.0, 1.0], [-1.0, 2.0]], "b": [-3.0, 1.0]},
            {"kind": "scaled", "sigma": 2.0,
             "inner": {"kind": "translated", "shift": [0.5, 0.5],
                       "inner": {"kind": "normal_cone_ball", "center": [0.0, 0.0],
                                 "radius": 1.0}}},
        ], "solution": [1.4, 0.2]}},
        "algorithm": "dr2",
        "schedule": {"kind": "constant", "gamma": 1.0},
        "stop": {"residual_tol": 1e-8, "max_iters": 50},
        "x0": [0.0, 0.0],
    },
]


def schema_paths(kind=cli.SCHEMA, prefix=(), above=()):
    """The path of every field the config schema declares, parents first.

    A tagged object's tag and its variants' keys share the object's path,
    the items of a list sit at "<list>[]", and a kind is not walked again
    below itself (an operator spec's "inner" is a spec). A path that more
    than one variant declares is listed once.
    """
    paths = []
    if isinstance(kind, kinds.ListOf):
        paths += schema_paths(kind.item, prefix[:-1] + (prefix[-1] + "[]",), above)
    elif isinstance(kind, kinds.Tagged) and kind not in above:
        paths.append(prefix + (kind.tag,))
        for variant in kind.variants.values():
            paths += schema_paths(variant, prefix, above + (kind,))
    elif isinstance(kind, kinds.Object):
        for key, sub in {**kind.required, **kind.optional}.items():
            paths.append(prefix + (key,))
            paths += schema_paths(sub, prefix + (key,), above)
    return list(dict.fromkeys(paths))


# problem.params.count/dim and an operator spec's dim are left out: a huge
# value would allocate dense matrices of that size, which is a resource
# bound, not a parsing question.
FUZZ_PATHS = [*(path for path in schema_paths() if path[-1] not in ("count", "dim")),
              ("unknown",)]

# no "/" in text: a fuzzed output path then names a file in the working
# directory, which each example sets to its own temporary directory
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
    | st.floats() | st.text(st.characters(exclude_characters="/"), max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10,
)


def _replace(doc, path, value):
    """Set the field at ``path`` to a copy of ``value``; a "<list>[]" step
    sets it in every item of the list."""
    if not isinstance(doc, dict):
        return
    key, rest = path[0], path[1:]
    if not rest:
        doc[key] = copy.deepcopy(value)
    elif key.endswith("[]"):
        items = doc.get(key[:-2])
        for item in items if isinstance(items, list) else []:
            _replace(item, rest, value)
    else:
        _replace(doc.get(key), rest, value)


def _cap_max_iters(doc, cap=50):
    stop = doc.get("stop")
    if not isinstance(stop, dict):
        return
    try:
        too_many = int(stop.get("max_iters", 0)) > cap
    except (TypeError, ValueError, OverflowError):
        return
    if too_many:
        stop["max_iters"] = cap


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


class TestReadme:
    def test_json_example_parses(self):
        with open(README) as fh:
            example = fh.read().split("```json\n", 1)[1].split("```", 1)[0]
        cfg = cli.parse_config(example)
        assert cfg.algorithm == "dr2" and isinstance(cfg.schedule, GeometricToLimit)

    def test_every_schema_field_is_named(self):
        with open(README) as fh:
            text = fh.read()
        fields = [".".join(path) for path in schema_paths()]
        assert "problem.params.ops[].inner" in fields
        assert [f for f in fields if f"`{f}`" not in text] == []


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(base=st.sampled_from(FUZZ_BASES),
           edits=st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), JSON_VALUES),
                          max_size=3))
    def test_run_never_raises(self, base, edits):
        doc = copy.deepcopy(base)
        for path, value in edits:
            _replace(doc, path, value)
        _cap_max_iters(doc)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            # relative output paths land in tmp
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("ignore")
                    code = cli.main(["run", path])
            finally:
                os.chdir(cwd)
        assert code in range(5), err.getvalue()
