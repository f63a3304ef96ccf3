import inspect
import json
import math
import os
import socket
import subprocess
import sys

import pytest

import retroroute

from retroroute import metrics
from retroroute.cli import (
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_EMPTY_EVAL,
    EXIT_NO_ROUTE,
    EXIT_OK,
    main,
    read_targets,
    resolve,
)
from retroroute.expand import ExpansionConfig
from retroroute.search import SearchConfig

from conftest import TOY_TEMPLATES

# "CNé" in Latin-1: every reader takes UTF-8 only
LATIN_1 = "CN\u00e9\n".encode("latin-1")
# nested deeper than the JSON decoder can recurse
NESTED = b"[" * 100_000


def nested(depth):
    """`depth` levels of 3-item lists of 30-character strings (8 kB as `repr` gives 5 levels)."""
    return "x" * 30 if depth == 0 else [nested(depth - 1)] * 3


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

    def test_dot_out_escapes_a_backslash_in_a_label(self, tmp_path, capsys):
        # `\N` in a DOT label would be drawn as the node's name
        (tmp_path / "t.json").write_text(json.dumps(
            [{"lhs": ["FC=C", "N"], "rhs": "F/C=C\\N", "weight": 1.0, "class": "1.1.1"}]), "utf-8")
        (tmp_path / "m.json").write_text('{"transport": "toy", "templates_path": "t.json"}', "utf-8")
        (tmp_path / "s.txt").write_text("FC=C\nN\n", "utf-8")
        assert main(["plan", "F/C=C\\N", "--models", str(tmp_path / "m.json"),
                     "--stock", str(tmp_path / "s.txt"), "--out", str(tmp_path / "r.json"),
                     "--dot-out", str(tmp_path / "g.dot")]) == EXIT_OK
        assert '  n0 [label="F/C=C\\\\N", ' in (tmp_path / "g.dot").read_text("utf-8")

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

    def test_commented_target_line_is_its_target(self, toy_manifest, tmp_path, capsys):
        args = self.eval_args(toy_manifest, tmp_path, "CN  # amine\nCC#N\t# nitrile\nCNO\n")
        assert read_targets(tmp_path / "targets.txt") == ["CN", "CC#N", "CNO"]
        assert main(args) == EXIT_OK
        report = json.loads((tmp_path / "metrics.json").read_text("utf-8"))
        # CC#N is a target the toy models know nothing of: evaluated, not excluded
        assert (report["n_targets"], report["n_excluded_targets"]) == (3, 0)

    @pytest.mark.parametrize("line", [
        '{"target": "CN # amine"}', '{"target": 5}', '{"smiles": "CN"}', '{"target": "CN"',
    ], ids=["comment-in-string", "int", "no-target", "unclosed"])
    def test_bad_jsonl_line_names_its_line(self, line, toy_manifest, tmp_path, capsys):
        args = self.eval_args(toy_manifest, tmp_path, f'{{"target": "CN"}}\n\n{line}\n')
        assert main(args) == EXIT_CONFIG
        assert "targets.txt:3: " in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"lhs": [], "rhs": "CN", "reagents": ["S"], "weight": 1.0, "class": "1.1.1"},
    {"lhs": ["S"], "rhs": "CNO", "reagents": ["S"], "weight": 1.0, "class": "1.1.1"},
], ids=["reactantless", "reagent-only"])
class TestReactantlessTemplate:
    """A suggestion with no reactant, only reagents, is not canonicalizable. (A template
    with neither reactants nor reagents is refused: see `test_wrong_typed_template_field`.)"""

    @pytest.fixture(autouse=True)
    def reactantless(self, entry, templates_file):
        templates_file.write_text(json.dumps([entry]), "utf-8")

    def test_plan_drops_the_candidate(self, entry, plan_args, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(plan_args(entry["rhs"], "--trace", str(trace))) == EXIT_NO_ROUTE
        records = [json.loads(line) for line in trace.read_text("utf-8").splitlines()]
        assert [(r["outcome"], r["precursors"]) for r in records] == [
            ("not_canonicalizable", entry.get("reagents", []))]

    def test_eval_counts_it_syntactically_invalid(self, entry, toy_manifest, tmp_path, capsys):
        (tmp_path / "t.txt").write_text(entry["rhs"] + "\n", "utf-8")
        assert main(["eval", "--test", str(tmp_path / "t.txt"), "--models", str(toy_manifest),
                     "--report", str(tmp_path / "metrics.json")]) == EXIT_OK
        report = json.loads((tmp_path / "metrics.json").read_text("utf-8"))
        assert report["round_trip_pct"] == 0.0 and report["invalid_smiles_pct"] == 100.0


class TestExport:
    def test_snapshot_to_dot(self, plan_args, tmp_path, capsys):
        main(plan_args("CNOS", "--graph-out", str(tmp_path / "graph.json")))
        code = main(["export", str(tmp_path / "graph.json"),
                     "--out", str(tmp_path / "out.dot")])
        assert code == EXIT_OK
        assert "digraph" in (tmp_path / "out.dot").read_text("utf-8")

    def test_labels_escaped(self, tmp_path, capsys):
        # by DOT's escString rules a backslash escapes the next letter and a quote ends the label
        snapshot = {"root": 0, "nodes": [{"id": 0, "smiles": "F/C=C\\N"}, {"id": 1, "smiles": 'a"b'}],
                    "arcs": [{"id": 0, "product": 0, "precursors": [1], "class": "1.1.1",
                              "likelihood": 0.5, "score": 1.0}]}
        (tmp_path / "snap.json").write_text(json.dumps(snapshot), "utf-8")
        assert main(["export", str(tmp_path / "snap.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert '  n0 [label="F/C=C\\\\N", ' in out and '  n1 [label="a\\"b", ' in out

    def test_bad_snapshot_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", "utf-8")
        assert main(["export", str(bad)]) == EXIT_CONFIG


class TestConfigPrecedence:
    def test_defaults(self):
        assert resolve("beams", None, {}) == 10
        assert resolve("theta_hi", None, {}) == 0.6

    def test_defaults_are_the_library_defaults(self):
        # `plan` plans at DEFAULTS and the bench at SearchConfig(): the two must agree
        cfg = SearchConfig()
        assert cfg.expansion == ExpansionConfig()
        assert DEFAULTS == {
            "beams": cfg.n_beams, "max_steps": cfg.max_steps,
            "retro_beams": cfg.expansion.retro_beams,
            "theta_hi": cfg.expansion.auto_accept_likelihood,
            "gap": cfg.expansion.selectivity_gap, "forward_topk": cfg.expansion.forward_topk,
            "eval_beams": metrics.DEFAULT_EVAL_BEAMS, "bins": metrics.DEFAULT_BINS,
            "log_base": "e",
        }
        # the CLI's log base "e" is evaluate's None, the natural logarithm
        assert inspect.signature(metrics.evaluate).parameters["log_base"].default is None

    def test_file_overrides_default(self):
        assert resolve("beams", None, {"beams": 25}) == 25

    def test_env_overrides_file(self, monkeypatch):
        monkeypatch.setenv("RETROROUTE_BEAMS", "7")
        assert resolve("beams", None, {"beams": 25}) == 7

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("RETROROUTE_BEAMS", "7")
        assert resolve("beams", 3, {"beams": 25}) == 3

    @pytest.mark.parametrize("name, value", [("theta_hi", 1), ("gap", 0)])
    def test_file_value_typed_like_default(self, name, value):
        resolved = resolve(name, None, {name: value})
        assert resolved == value and type(resolved) is type(DEFAULTS[name])

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
        return err

    def test_gap_not_below_theta_hi(self, plan_args, capsys):
        self.assert_config_error(main(plan_args("CNOS", "--gap", "0.9")), capsys)

    def test_zero_beams(self, plan_args, capsys):
        self.assert_config_error(main(plan_args("CNOS", "--beams", "0")), capsys)

    def test_non_numeric_env_value(self, plan_args, monkeypatch, capsys):
        monkeypatch.setenv("RETROROUTE_BEAMS", "abc")
        self.assert_config_error(main(plan_args()), capsys)

    @pytest.mark.parametrize("config", [{"concurrency": 8}, {"max-steps": 2}],
                             ids=["concurrency", "max-steps"])
    def test_unknown_config_key(self, config, plan_args, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), "utf-8")
        self.assert_config_error(main(plan_args("CNOS", "--config", str(path))), capsys)

    def plan_over_subprocess(self, entry, templates_file, stock_file, tmp_path):
        """`plan` exit code with a subprocess manifest that also holds `entry`."""
        manifest = tmp_path / "subprocess.json"
        command = [sys.executable, "-m", "retroroute.cli", "mock-serve", str(templates_file)]
        manifest.write_text(
            json.dumps({"transport": "subprocess", "command": command, **entry}), "utf-8"
        )
        return main(["plan", "CNOS", "--models", str(manifest), "--stock", str(stock_file),
                     "--out", str(tmp_path / "r.json")])

    def test_unknown_manifest_key(self, templates_file, stock_file, tmp_path, capsys):
        code = self.plan_over_subprocess({"max_in_flight": 8}, templates_file, stock_file,
                                         tmp_path)
        self.assert_config_error(code, capsys)

    @pytest.mark.parametrize("command, config", [
        ("plan", {"beams": None}), ("plan", {"max_steps": [3]}), ("eval", {"bins": None}),
        ("plan", {"stock": 5}), ("plan", {"models": 5}), ("eval", {"models": 5}),
        # a string is not read as a list of one-letter file names, though the file S exists
        ("plan", {"stock": "S"}),
        # a value is checked, not converted: no bool as 1, no 2.9 as 2, no string as a number
        ("plan", {"beams": True}), ("plan", {"max_steps": 2.9}), ("plan", {"theta_hi": "0.5"}),
        ("eval", {"eval_beams": 2.5}), ("eval", {"eval_beams": True}), ("eval", {"bins": "50"}),
        ("eval", {"log_base": 2}),
    ], ids=["beams-null", "max_steps-list", "bins-null", "stock-int", "models-int",
            "eval-models-int", "stock-string", "beams-bool", "max_steps-float",
            "theta_hi-string", "eval_beams-float", "eval_beams-bool", "bins-string",
            "log_base-number"])
    def test_wrong_typed_config_value(self, command, config, toy_manifest, stock_file,
                                      tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "S").write_text(stock_file.read_text("utf-8"), "utf-8")
        (tmp_path / "t.txt").write_text("CN\n", "utf-8")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"models": str(toy_manifest), "stock": [str(stock_file)], **config}), "utf-8")
        args = ["plan", "CNOS", "--out", "r.json"] if command == "plan" else [
            "eval", "--test", "t.txt", "--report", "m.json"]
        self.assert_config_error(main([*args, "--config", str(path)]), capsys)

    @pytest.mark.parametrize("entry", [
        {"retries": -1}, {"timeout": "abc"}, {"timeout": 0}, {"command": "python3 -m x"},
        {"templates_path": 5}, {"templates_path": ["t.json"]}, {"token_dict_path": 5},
        {"token_dict_path": ["t.json"]}, {"transport": "http", "endpoint": 5},
        {"timeout": True}, {"retries": 1.0},
    ], ids=["retries-negative", "timeout-string", "timeout-zero", "command-string",
            "templates_path-int", "templates_path-list", "token_dict_path-int",
            "token_dict_path-list", "endpoint-int", "timeout-bool", "retries-float"])
    def test_bad_manifest_value(self, entry, templates_file, stock_file, tmp_path, capsys):
        code = self.plan_over_subprocess(entry, templates_file, stock_file, tmp_path)
        self.assert_config_error(code, capsys)

    @pytest.mark.parametrize("text, error", [
        # the line is stripped before it is split, so an empty side leaves no TAB inside it
        ("\tCN\n", "1: expected token<TAB>smiles"), ("[T]\t\n", "1: expected token<TAB>smiles"),
        ("[T]\tCN\n[T]\tCNO\n", "2: token '[T]' repeats line 1"),
        ("[T]\tCN\n[U]\tCN\n", "2: molecule 'CN' repeats line 1"),
        ("[T]\tC.N\n", "1: '.'-bearing molecule 'C.N'"),
        ("[T.U]\tCN\n", "1: '.'-bearing token '[T.U]'"),
        # a token the models could also say as a molecule would be expanded wrongly
        ("# comment\n[T]\tCN\nCN\tCNO\n", "3: token 'CN' repeats line 2"),
        ("[T]\tCN\n[U]\t[T]\n", "2: molecule '[T]' repeats line 1"),
    ], ids=["token-empty", "molecule-empty", "token-repeated", "molecule-repeated",
            "molecule-dot", "token-dot", "token-is-a-molecule", "molecule-is-a-token"])
    def test_ambiguous_token_dictionary(self, text, error, templates_file, stock_file, tmp_path,
                                        capsys):
        tokens = tmp_path / "tokens.tsv"
        tokens.write_text(text, "utf-8")
        code = self.plan_over_subprocess({"token_dict_path": str(tokens)}, templates_file,
                                         stock_file, tmp_path)
        assert f"tokens.tsv:{error}" in self.assert_config_error(code, capsys)

    def test_token_dictionary_accepted(self, templates_file, stock_file, tmp_path):
        tokens = tmp_path / "tokens.tsv"
        # the mock speaks full strings, so these molecules are ones no route here meets; an
        # identity line maps a molecule that routes do meet to itself, which changes nothing
        tokens.write_text("# comment\n[T]\tFFFF\n\n [U] \t PPPP \nCN\tCN\n", "utf-8")
        code = self.plan_over_subprocess({"token_dict_path": str(tokens)}, templates_file,
                                         stock_file, tmp_path)
        assert code == EXIT_OK

    @pytest.mark.parametrize("flag", ["--out", "--graph-out", "--dot-out", "--trace", "--report",
                                      "--audit", "--hist-csv", "export --out"])
    def test_unwritable_output(self, flag, plan_args, toy_manifest, tmp_path, capsys):
        missing = tmp_path / "missing" / "out.txt"
        targets = tmp_path / "targets.txt"
        targets.write_text("CN\nCNO\n", "utf-8")
        if flag in ("--report", "--audit", "--hist-csv"):
            args = ["eval", "--test", str(targets), "--models", str(toy_manifest),
                    "--report", str(tmp_path / "m.json"), flag, str(missing)]
        elif flag == "export --out":
            assert main(plan_args("CNOS", "--graph-out", str(tmp_path / "g.json"))) == EXIT_OK
            args = ["export", str(tmp_path / "g.json"), "--out", str(missing)]
        else:
            args = plan_args("CNOS", flag, str(missing))
        err = self.assert_config_error(main(args), capsys)
        assert f"cannot write {missing}: " in err

    @pytest.mark.parametrize("command", ["plan", "mock-serve"])
    @pytest.mark.parametrize("field, value", [
        ("class", 5), ("rhs", 5),
        # a class code of other digit systems' digits is not read as another code
        ("class", "\u0661.\u0662.\u0663"), ("class", "1.2.\u00b2"),
        # a string where a list belongs is not read as its letters
        ("lhs", "CN"), ("reagents", "S"), ("lhs", ["C", 5]),
        ("weight", float("nan")), ("weight", float("inf")), ("weight", True),
        ("weight", 10 ** 400),  # no float holds it
        # a molecule with no normal form
        ("rhs", "C N"), ("lhs", ["C", ""]),
        # neither reactants nor reagents: its suggestion would be empty
        ("lhs", []),
    ], ids=["class", "rhs", "class-arabic-indic", "class-superscript", "lhs-string",
            "reagents-string", "lhs-int-item", "weight-nan", "weight-inf", "weight-bool",
            "weight-huge-int", "rhs-space", "lhs-empty-item", "lhs-empty-no-reagents"])
    def test_wrong_typed_template_field(self, field, value, command, templates_file,
                                        plan_args, capsys):
        entries = [TOY_TEMPLATES[1], {**TOY_TEMPLATES[0], field: value}]
        templates_file.write_text(json.dumps(entries), "utf-8")
        args = plan_args() if command == "plan" else ["mock-serve", str(templates_file)]
        err = self.assert_config_error(main(args), capsys)
        assert f"{templates_file.name}: template #1: " in err

    # a label that is no string loaded in-process, while a wire client refused it and left the
    # reaction unclassified: both the toy manifest and the model child now refuse it at load
    @pytest.mark.parametrize("command", ["plan", "mock-serve"])
    @pytest.mark.parametrize("entry, error", [
        ({**TOY_TEMPLATES[0], "label": 5}, "template #1: label: expected a string, got 5"),
        (5, "template #1: entry: expected a JSON object, got 5"),
    ], ids=["label-int", "entry-int"])
    def test_template_entry_names_its_rule(self, entry, error, command, templates_file,
                                           plan_args, capsys):
        templates_file.write_text(json.dumps([TOY_TEMPLATES[1], entry]), "utf-8")
        args = plan_args() if command == "plan" else ["mock-serve", str(templates_file)]
        assert self.assert_config_error(main(args), capsys).endswith(f": {error}\n")

    @pytest.mark.parametrize("reader, content", [
        ("stock", LATIN_1), ("targets", LATIN_1), ("config", LATIN_1), ("manifest", LATIN_1),
        ("templates", LATIN_1), ("mock-serve", LATIN_1), ("token_dict", LATIN_1),
        ("export", LATIN_1),
        ("manifest", b"[]"), ("manifest", b"{}"), ("targets", b'{"target": 5}\n'),
        # integers json.loads will not convert
        ("templates", b"[1" + b"0" * 5000 + b"]"), ("targets", b'{"target": 1' + b"0" * 5000 + b"}\n"),
        ("export", b"[1" + b"0" * 5000 + b"]"),
        ("templates", NESTED), ("manifest", NESTED), ("config", NESTED),
        ("targets", b'{"target": ' + NESTED + b"\n"), ("export", NESTED),
    ], ids=["stock-latin1", "targets-latin1", "config-latin1", "manifest-latin1",
            "templates-latin1", "mock-serve-latin1", "token_dict-latin1", "export-latin1",
            "manifest-list", "manifest-empty", "targets-jsonl-int", "templates-huge-int",
            "targets-jsonl-huge-int", "export-huge-int", "templates-nested", "manifest-nested",
            "config-nested", "targets-jsonl-nested", "export-nested"])
    def test_unreadable_input_file(self, reader, content, plan_args, templates_file,
                                   toy_manifest, stock_file, tmp_path, capsys):
        """Each input file is read by one reader; what it cannot take exits 2."""
        targets = tmp_path / "targets.txt"
        targets.write_text("CN\n", "utf-8")
        config = tmp_path / "config.json"
        token_manifest = tmp_path / "tokens.json"
        # the token dictionary is read before the (never started) model child
        token_manifest.write_text(json.dumps({
            "transport": "subprocess", "command": ["unused"], "token_dict_path": "tokens.tsv"
        }), "utf-8")
        path, args = {
            "stock": (stock_file, plan_args()),
            "targets": (targets, ["eval", "--test", str(targets), "--models", str(toy_manifest),
                                  "--report", str(tmp_path / "m.json")]),
            "config": (config, plan_args("CNOS", "--config", str(config))),
            "manifest": (toy_manifest, plan_args()),
            "templates": (templates_file, plan_args()),
            "mock-serve": (templates_file, ["mock-serve", str(templates_file)]),
            "token_dict": (tmp_path / "tokens.tsv",
                           ["plan", "CNOS", "--models", str(token_manifest), "--stock",
                            str(stock_file), "--out", str(tmp_path / "r.json")]),
            "export": (tmp_path / "graph.json", ["export", str(tmp_path / "graph.json")]),
        }[reader]
        path.write_bytes(content)
        # the error quotes no more of the input than a short excerpt
        assert len(self.assert_config_error(main(args), capsys).encode()) < 300

    @pytest.mark.parametrize("in_use", [False, True], ids=["port-out-of-range", "port-in-use"])
    def test_mock_serve_cannot_bind(self, in_use, templates_file, capsys):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1] if in_use else 99999
            code = main(["mock-serve", str(templates_file), "--transport", "http",
                         "--port", str(port)])
        err = self.assert_config_error(code, capsys)
        assert err.startswith(f"error: cannot serve on 127.0.0.1:{port}: ")

    @pytest.mark.parametrize("corrupt, names", [
        (lambda s: s["arcs"][0].update(precursors=5), None),
        (lambda s: s["nodes"][0].update(simplicity="x"), "node 0"),
        (lambda s: s["arcs"][0].update({"class": 5}), "arc 0"),
        (lambda s: [s], None),
        (lambda s: s.update(root="x"), None),
        (lambda s: s.update(root=7), None),
        # wrong types the loader must refuse; a string likelihood would crash the DOT rendering
        (lambda s: s["arcs"][0].update(likelihood="x"), None),
        (lambda s: s["arcs"][0].update(score="x"), None),
        (lambda s: s["arcs"][0].update(likelihood=True), None),
        (lambda s: s["nodes"][1].update(smiles=5), None),
        (lambda s: s["arcs"][0].update(precursors=[True]), None),
        (lambda s: s["arcs"][0].update(product=False), None),
        (lambda s: s["arcs"][0].update({"class": "12.1.1"}), "arc 0"),
        (lambda s: s["arcs"][0].update({"class": "\u0661.\u0662.\u0663"}), "arc 0"),
        (lambda s: s["arcs"][0].update({"class": "1.2.\u00b2"}), "arc 0"),
        # a bool is not the node id 1, and a reagent must be one of the arc's precursors
        (lambda s: s.update(root=True), None),
        (lambda s: s["arcs"][0].update(reagents=[99]), None),
        # a missing key or an unknown node id is named with its entry
        (lambda s: s["arcs"][0].update(product=99), "arc 0"),
        (lambda s: s["arcs"][0].update(precursors=[99]), "arc 0"),
        (lambda s: s["arcs"][0].update(precursors=[-1]), "arc 0"),
        (lambda s: s["arcs"][0].pop("likelihood") and None, "arc 0"),
        (lambda s: s["nodes"][1].pop("smiles") and None, "node 1"),
        # a node flag is a boolean: "no" would otherwise draw the node as in stock
        (lambda s: s["nodes"][1].update(in_stock="no"), "node 1"),
        (lambda s: s["nodes"][1].update(expanded=[]), "node 1"),
        # a simplicity is a number, not a bool read as 1 or 0
        (lambda s: s["nodes"][1].update(simplicity=True), "node 1"),
        (lambda s: s["nodes"][1].update(simplicity=False), "node 1"),
        # a likelihood or score is finite: DOT would draw L=inf, and an integer too large
        # for a float would crash the rendering
        (lambda s: s["arcs"][0].update(likelihood=math.nan), "arc 0"),
        (lambda s: s["arcs"][0].update(likelihood=math.inf), "arc 0"),
        (lambda s: s["arcs"][0].update(likelihood=-math.inf), "arc 0"),
        (lambda s: s["arcs"][0].update(likelihood=10 ** 400), "arc 0"),
        (lambda s: s["arcs"][0].update(score=math.nan), "arc 0"),
        (lambda s: s["arcs"][0].update(score=math.inf), "arc 0"),
        (lambda s: s["arcs"][0].update(score=-math.inf), "arc 0"),
        # five levels of 3-item lists of 30-character strings, quoted in 200 characters
        (lambda s: s.update(root=nested(5)), None),
    ], ids=["precursors-int", "simplicity-string", "class-int", "list", "root-string",
            "root-unknown", "likelihood-string", "score-string", "likelihood-bool",
            "smiles-int", "precursors-bool", "product-bool", "superclass-12",
            "class-arabic-indic", "class-superscript", "root-bool",
            "reagents-not-precursors", "product-unknown", "precursor-unknown",
            "precursor-negative", "likelihood-missing", "smiles-missing", "in_stock-string",
            "expanded-list", "simplicity-true", "simplicity-false", "likelihood-nan",
            "likelihood-inf", "likelihood-minus-inf", "likelihood-huge-int", "score-nan",
            "score-inf", "score-minus-inf", "root-nested"])
    def test_wrong_shaped_snapshot(self, corrupt, names, tmp_path, capsys):
        snapshot = {
            "root": 0,
            "nodes": [{"id": 0, "smiles": "CN"}, {"id": 1, "smiles": "C"}],
            "arcs": [{"id": 0, "product": 0, "precursors": [1], "likelihood": 0.9,
                      "class": "1.1.1", "score": 0.5}],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(corrupt(snapshot) or snapshot), "utf-8")
        err = self.assert_config_error(main(["export", str(path)]), capsys)
        assert names is None or f"graph.json: {names}: " in err
        # what follows the file name quotes no more of the snapshot than an excerpt
        _, named, rule = err.partition(f"{path}: ")
        assert named and len(rule.encode()) < 300, err

    @pytest.mark.parametrize("key", ["root", "nodes", "arcs"])
    def test_snapshot_without_a_top_level_key(self, key, tmp_path, capsys):
        snapshot = {"root": 0, "nodes": [{"id": 0, "smiles": "CN"}], "arcs": []}
        del snapshot[key]
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(snapshot), "utf-8")
        err = self.assert_config_error(main(["export", str(path)]), capsys)
        assert err.endswith(f"graph.json: snapshot has no '{key}' key\n")

    @pytest.mark.parametrize("base", ["1", "0", "-2", "nan", "inf", "1e400"])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_invalid_log_base(self, base, source, toy_manifest, tmp_path, monkeypatch, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("CN\n", "utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"log_base": base}), "utf-8")
        if source == "env":
            monkeypatch.setenv("RETROROUTE_LOG_BASE", base)
        given = {"flag": ["--log-base", base], "env": [], "config": ["--config", str(config)]}[source]
        code = main(["eval", "--test", str(targets), "--models", str(toy_manifest),
                     "--report", str(tmp_path / "m.json"), *given])
        self.assert_config_error(code, capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("base", ["2", "0.5"])
    def test_valid_log_base(self, base, toy_manifest, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("CN\n", "utf-8")
        report = tmp_path / "m.json"
        assert main(["eval", "--test", str(targets), "--models", str(toy_manifest),
                     "--report", str(report), "--log-base", base]) == EXIT_OK
        assert json.loads(report.read_text("utf-8"))["log_base"] == str(float(base))

    @pytest.mark.parametrize("bins", ["0", "-1"])
    def test_bins_below_one(self, bins, toy_manifest, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("CN\n", "utf-8")
        code = main(["eval", "--test", str(targets), "--models", str(toy_manifest),
                     "--report", str(tmp_path / "m.json"), "--bins", bins])
        self.assert_config_error(code, capsys)

    # -1 once dropped each target's last suggestion, and 0 exited 4 for no suggestions
    @pytest.mark.parametrize("beams", ["0", "-1"])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_eval_beams_below_one(self, beams, source, toy_manifest, tmp_path, monkeypatch,
                                  capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("CN\nCNO\nCNOS\n", "utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eval_beams": int(beams)}), "utf-8")
        if source == "env":
            monkeypatch.setenv("RETROROUTE_EVAL_BEAMS", beams)
        given = {"flag": ["--beams", beams], "env": [], "config": ["--config", str(config)]}[source]
        code = main(["eval", "--test", str(targets), "--models", str(toy_manifest),
                     "--report", str(tmp_path / "m.json"), *given])
        self.assert_config_error(code, capsys)
        assert not (tmp_path / "m.json").exists()


SRC = os.path.dirname(os.path.dirname(retroroute.__file__))


def run_python(*args):
    """Run a fresh interpreter that imports the package from this checkout."""
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )


# what the stdio model child (mock-serve) needs none of: the planner, the subprocess module
# (only the client of a subprocess manifest starts a child), the HTTP modules, and the
# start-up cost of dataclasses (with inspect) and logging
CHILD_NEEDS_NONE = (
    "({f'retroroute.{m}' for m in ('expand', 'graph', 'search', 'stock', 'metrics')}"
    " | {'subprocess', 'http.client', 'http.server', 'dataclasses', 'inspect', 'logging'})"
)


def test_cli_import_loads_neither_numpy_nor_requests():
    code = (
        "import sys\n"
        "at_start = set(sys.modules)\n"
        "import retroroute.cli\n"
        f"loaded = sorted({CHILD_NEEDS_NONE} & (set(sys.modules) - at_start))\n"
        "import retroroute.metrics, retroroute.wire\n"
        "banned = {'numpy', 'requests', 'http.client', 'http.server'}\n"
        "sys.exit(loaded + sorted(banned & set(sys.modules)) or 0)\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


def test_stdio_model_child_loads_only_what_it_serves_with(templates_file):
    # the child as a subprocess manifest starts it, answering the one request on its stdin
    code = (
        "import runpy, sys\n"
        "at_start = set(sys.modules)\n"
        "sys.argv = ['retroroute', 'mock-serve', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('retroroute.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"loaded = sorted({CHILD_NEEDS_NONE} & (set(sys.modules) - at_start))\n"
        "sys.exit(loaded or 0)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(templates_file)], env={**os.environ, "PYTHONPATH": SRC},
        input='{"id":"1","op":"classify","inputs":["C.N>>CN"],"params":{}}\n',
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith('{"id":"1","ok":true,'), result.stdout


def test_plan_logs_a_skipped_stock_line(toy_manifest, stock_file, tmp_path):
    # `main` configures logging: level WARNING, one "LEVEL logger: message" line each
    stock_file.write_text(stock_file.read_text("utf-8") + "C!\n", "utf-8")
    result = run_python("-m", "retroroute.cli", "plan", "CNOS", "--models", str(toy_manifest),
                        "--stock", str(stock_file), "--out", str(tmp_path / "routes.json"))
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stderr == (
        f"WARNING retroroute.stock: {stock_file}:5: skipping unnormalizable entry 'C!'\n"
        f"WARNING retroroute.stock: {stock_file}: rejected 1 unnormalizable entries\n"
    )


def test_verbose_mock_serve_logs_each_http_request(templates_file):
    # the HTTP server's request lines are the package's only DEBUG records
    command = [sys.executable, "-u", "-m", "retroroute.cli", "-v", "mock-serve",
               str(templates_file), "--transport", "http", "--port", "0"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}) as server:
        try:
            # "serving N templates on http://127.0.0.1:PORT/"
            port = int(server.stdout.readline().rstrip("/\n").rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                body = b'{"id":"1","op":"classify","inputs":["C.N>>CN"],"params":{}}\n'
                sock.sendall(b"POST / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                             b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
                reply = b"".join(iter(lambda: sock.recv(65536), b""))
        finally:
            server.terminate()
        _, stderr = server.communicate(timeout=30)
    assert reply.startswith(b"HTTP/1.1 200 ") and b'"id":"1","ok":true' in reply
    assert stderr.startswith('DEBUG retroroute.wire: http: "POST / HTTP/1.1" 200 -\n'), stderr


def test_expansion_loads_neither_graph_nor_search(templates_file):
    # what a molecule expands to is worked out without a graph, so it can be stored
    code = (
        "import sys\n"
        "from retroroute import expand, toy\n"
        "from retroroute.smiles import ToyNormalizer\n"
        "oracle = toy.ToyOracle(toy.load_templates(sys.argv[1]))\n"
        "records, representatives = expand.expansion(\n"
        "    'CNOS', expand.ExpansionConfig(), oracle, ToyNormalizer())\n"
        "assert records and representatives\n"
        "sys.exit(sorted({'retroroute.graph', 'retroroute.search'} & set(sys.modules)) or 0)\n"
    )
    result = run_python("-c", code, str(templates_file))
    assert result.returncode == 0, result.stderr


@pytest.fixture
def cli_runs(templates_file, stock_file, tmp_path):
    """`plan` and `eval` argument lists over the toy fixtures and a given manifest."""
    targets = tmp_path / "targets.txt"
    targets.write_text("CN\nCNO\nCNOS\nOS\n", "utf-8")

    def _runs(manifest):
        return [
            ["plan", "CNOS", "--models", str(manifest), "--stock", str(stock_file),
             "--out", str(tmp_path / "routes.json")],
            ["eval", "--test", str(targets), "--models", str(manifest),
             "--report", str(tmp_path / "metrics.json")],
        ]

    return _runs


def test_plan_and_eval_run_without_numpy_or_requests(cli_runs, toy_manifest):
    code = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['requests'] = None\n"
        "from retroroute.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for args in cli_runs(toy_manifest):
        result = run_python("-c", code, *args)
        assert result.returncode == EXIT_OK, result.stderr


def test_plan_and_eval_close_their_model_child(cli_runs, templates_file, tmp_path):
    manifest = tmp_path / "subprocess.json"
    command = [sys.executable, "-m", "retroroute.cli", "mock-serve", str(templates_file)]
    manifest.write_text(
        json.dumps({"transport": "subprocess", "command": command, "timeout": 30}), "utf-8"
    )
    for args in cli_runs(manifest):
        result = run_python("-X", "dev", "-m", "retroroute.cli", *args)
        assert result.returncode == EXIT_OK, result.stderr
        assert "ResourceWarning" not in result.stderr, result.stderr


def test_plan_and_eval_refuse_a_model_child_that_dies_at_load(cli_runs, tmp_path, capfd):
    # the child refuses its template file (a label that is no string) and exits 2 before its
    # first reply: one start, no retry or deferral, and exit 2 with the transport's error line
    templates = tmp_path / "label-templates.json"
    templates.write_text(json.dumps([{**TOY_TEMPLATES[0], "label": 5}]), "utf-8")
    manifest = tmp_path / "subprocess.json"
    command = [sys.executable, "-m", "retroroute.cli", "mock-serve", str(templates)]
    manifest.write_text(json.dumps({"transport": "subprocess", "command": command}), "utf-8")
    for args in cli_runs(manifest):
        assert main(args) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.count("label: expected a string, got 5") == 1, err
        assert err.endswith("exited with status 2 before its first reply\n"), err
        assert "WARNING" not in err and "Traceback" not in err
