import json
import os
import subprocess
import sys

import pytest

import retroroute

from retroroute.cli import (
    EXIT_CONFIG,
    EXIT_EMPTY_EVAL,
    EXIT_NO_ROUTE,
    EXIT_OK,
    main,
    read_targets,
    resolve,
)


@pytest.fixture
def plan_args(toy_manifest, stock_file, tmp_path):
    def _args(target="CNOS", *extra):
        return [
            "plan", target,
            "--models", str(toy_manifest),
            "--stock", str(stock_file),
            "--out", str(tmp_path / "routes.json"),
            *extra,
        ]

    return _args


class TestPlan:
    def test_solved_exit_zero(self, plan_args, tmp_path, capsys):
        assert main(plan_args()) == EXIT_OK
        payload = json.loads((tmp_path / "routes.json").read_text("utf-8"))
        best = payload["routes"][0]
        assert best["status"] == "solved" and best["n_steps"] == 3
        assert [s["product"] for s in best["steps"]] == ["CNOS", "CNO", "CN"]
        assert payload["metadata"]["config"]["retro_beams"] == 15
        assert "solved route(s)" in capsys.readouterr().out

    def test_no_route_exit_three(self, plan_args, tmp_path, capsys):
        # OS has a route but P does not appear on any template product
        assert main(plan_args("P")) == EXIT_NO_ROUTE

    def test_missing_manifest_exit_two(self, stock_file, tmp_path, capsys):
        code = main(["plan", "CNOS", "--stock", str(stock_file),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_CONFIG

    def test_bad_target_exit_two(self, plan_args, capsys):
        assert main(plan_args("C !")) == EXIT_CONFIG

    def test_graph_dot_and_trace_outputs(self, plan_args, tmp_path, capsys):
        code = main(plan_args(
            "CNOS",
            "--graph-out", str(tmp_path / "graph.json"),
            "--dot-out", str(tmp_path / "graph.dot"),
            "--trace", str(tmp_path / "trace.jsonl"),
        ))
        assert code == EXIT_OK
        snapshot = json.loads((tmp_path / "graph.json").read_text("utf-8"))
        assert snapshot["nodes"]
        assert (tmp_path / "graph.dot").read_text("utf-8").startswith("digraph")
        trace_lines = (tmp_path / "trace.jsonl").read_text("utf-8").splitlines()
        assert all("outcome" in json.loads(l) for l in trace_lines)

    def test_routes_deterministic_across_runs(self, plan_args, tmp_path, capsys):
        main(plan_args())
        first = json.loads((tmp_path / "routes.json").read_text("utf-8"))
        main(plan_args())
        second = json.loads((tmp_path / "routes.json").read_text("utf-8"))
        assert first["routes"] == second["routes"]


class TestEval:
    def eval_args(self, toy_manifest, tmp_path, targets_text):
        targets = tmp_path / "targets.txt"
        targets.write_text(targets_text, "utf-8")
        return [
            "eval", "--test", str(targets),
            "--models", str(toy_manifest),
            "--report", str(tmp_path / "metrics.json"),
        ]

    def test_report_written(self, toy_manifest, tmp_path, capsys):
        args = self.eval_args(toy_manifest, tmp_path, "CN\nCNO\nCNOS\nOS\n")
        assert main(args) == EXIT_OK
        report = json.loads((tmp_path / "metrics.json").read_text("utf-8"))
        assert report["coverage_pct"] == 100.0
        assert report["n_targets"] == 4
        out = capsys.readouterr().out
        assert "RT [%]" in out and "1/JSD" in out

    def test_jsonl_targets_and_audit(self, toy_manifest, tmp_path, capsys):
        text = '{"target": "CN"}\n{"target": "CNO"}\n'
        args = self.eval_args(toy_manifest, tmp_path, text)
        args += ["--audit", str(tmp_path / "audit.jsonl"),
                 "--hist-csv", str(tmp_path / "hist.csv")]
        assert main(args) == EXIT_OK
        audit = (tmp_path / "audit.jsonl").read_text("utf-8").splitlines()
        assert len(audit) == 2
        csv = (tmp_path / "hist.csv").read_text("utf-8").splitlines()
        assert csv[0] == "superclass,bin,count"
        assert len(csv) == 1 + 12 * 50

    def test_empty_eval_exit_four(self, toy_manifest, tmp_path, capsys):
        args = self.eval_args(toy_manifest, tmp_path, "C !\n")
        assert main(args) == EXIT_EMPTY_EVAL

    def test_comments_skipped_in_target_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# comment\nCN\n\nCNO\n", "utf-8")
        assert read_targets(path) == ["CN", "CNO"]


class TestExport:
    def test_snapshot_to_dot(self, plan_args, tmp_path, capsys):
        main(plan_args("CNOS", "--graph-out", str(tmp_path / "graph.json")))
        code = main(["export", str(tmp_path / "graph.json"),
                     "--out", str(tmp_path / "out.dot")])
        assert code == EXIT_OK
        assert "digraph" in (tmp_path / "out.dot").read_text("utf-8")

    def test_bad_snapshot_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", "utf-8")
        assert main(["export", str(bad)]) == EXIT_CONFIG


class TestConfigPrecedence:
    def test_defaults(self):
        assert resolve("beams", None, {}) == 10
        assert resolve("theta_hi", None, {}) == 0.6

    def test_file_overrides_default(self):
        assert resolve("beams", None, {"beams": 25}) == 25

    def test_env_overrides_file(self, monkeypatch):
        monkeypatch.setenv("RETROROUTE_BEAMS", "7")
        assert resolve("beams", None, {"beams": 25}) == 7

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("RETROROUTE_BEAMS", "7")
        assert resolve("beams", 3, {"beams": 25}) == 3

    def test_env_typed_like_default(self, monkeypatch):
        monkeypatch.setenv("RETROROUTE_GAP", "0.25")
        value = resolve("gap", None, {})
        assert value == 0.25 and isinstance(value, float)

    def test_config_file_used_by_plan(self, toy_manifest, stock_file, tmp_path,
                                      capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_steps": 2}), "utf-8")
        out = tmp_path / "routes.json"
        code = main(["plan", "CNOS", "--models", str(toy_manifest),
                     "--stock", str(stock_file), "--config", str(config),
                     "--out", str(out)])
        assert code == EXIT_NO_ROUTE  # the only route needs 3 steps
        payload = json.loads(out.read_text("utf-8"))
        assert payload["metadata"]["config"]["max_steps"] == 2

    def test_unreadable_config_exit_two(self, toy_manifest, stock_file, tmp_path,
                                        capsys):
        code = main(["plan", "CNOS", "--models", str(toy_manifest),
                     "--stock", str(stock_file),
                     "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_CONFIG


class TestBadConfigValues:
    def assert_config_error(self, code, capsys):
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_gap_not_below_theta_hi(self, plan_args, capsys):
        self.assert_config_error(main(plan_args("CNOS", "--gap", "0.9")), capsys)

    def test_zero_beams(self, plan_args, capsys):
        self.assert_config_error(main(plan_args("CNOS", "--beams", "0")), capsys)

    def test_non_numeric_env_value(self, plan_args, monkeypatch, capsys):
        monkeypatch.setenv("RETROROUTE_BEAMS", "abc")
        self.assert_config_error(main(plan_args()), capsys)


def test_cli_import_loads_neither_numpy_nor_requests():
    # the stdio model child (mock-serve) imports the CLI and uses none of these
    src = os.path.dirname(os.path.dirname(retroroute.__file__))
    code = (
        "import retroroute.cli, sys\n"
        "sys.exit(sorted({'numpy', 'requests', 'http.server'} & set(sys.modules)) or 0)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
