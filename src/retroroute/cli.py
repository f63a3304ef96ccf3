"""Command-line entry points: plan routes, evaluate models, serve the mock.

Configuration precedence: command-line flags, then ``RETROROUTE_*``
environment variables, then the ``--config`` file (flat JSON mirroring the
flag names), then the built-in ``DEFAULTS``.

Exit codes: 0 success, 2 configuration error, 3 no route found, 4 empty
evaluation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from .errors import EXCERPT, ConfigError, EmptyEvaluation, NotCanonicalizable, RetroRouteError, expect, parse_json, read_json, read_lines, read_text, write_text
from .models import ModelManifest
from .smiles import ToyNormalizer
from .toy import ToyOracle, load_templates
from .wire import build_models, serve_http, serve_stdio

if TYPE_CHECKING:
    from .graph import HyperGraph
    from .search import Pathway

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_ROUTE = 3
EXIT_EMPTY_EVAL = 4

ENV_PREFIX = "RETROROUTE_"

DEFAULTS: Dict[str, Any] = {
    "max_steps": 6,
    "beams": 10,
    "retro_beams": 15,
    "theta_hi": 0.6,
    "gap": 0.2,
    "forward_topk": 3,
    "eval_beams": 10,
    "bins": 50,
    "log_base": "e",
}


def resolve(name: str, flag_value: Any, file_config: Dict[str, Any]) -> Any:
    """flags > environment > config file > defaults. An environment value is parsed from its
    string, and a config file value (of its default's kind) is converted to its default's type."""
    if flag_value is not None:
        return flag_value
    default = DEFAULTS[name]
    env = os.environ.get(ENV_PREFIX + name.upper())
    if env is not None:
        return type(default)(env)
    return type(default)(file_config[name]) if name in file_config else default


def load_config_file(path: Optional[str]) -> Dict[str, Any]:
    """A config file's settings, each of its default's kind (see `errors.expect`: an int will do
    for a float), `stock` a list of file names and `models` one; any other key is a ConfigError."""
    if not path:
        return {}
    kinds = {name: type(default) for name, default in DEFAULTS.items()}
    kinds.update(stock=[str], models=str)
    data = read_json(path, dict, kinds)
    for key, value in data.items():
        expect(value, kinds[key], f"config {path}: {key}")
    return data


def load_manifest(args: argparse.Namespace, file_config: Dict[str, Any]) -> ModelManifest:
    """The model manifest named by ``--models``, else by the config file; neither is a ConfigError."""
    path = args.models or file_config.get("models")
    if not path:
        raise ConfigError("a model manifest is required (--models)")
    return ModelManifest.load(path)


def route_to_json(graph: HyperGraph, p: Pathway) -> dict:
    nodes = graph.nodes
    steps = []
    for arc_id in p.arcs:
        arc = graph.arcs[arc_id]
        steps.append(
            {
                "product": nodes[arc.product].smiles,
                "precursors": [nodes[n].smiles for n in arc.precursors if n not in arc.reagents],
                "reagents": sorted(nodes[n].smiles for n in arc.reagents),
                "likelihood": arc.forward_likelihood,
                "class": arc.class_code,
                "arc_score": arc.arc_score,
            }
        )
    return {
        "steps": steps,
        "cumulative_score": p.cumulative_score,
        "n_steps": len(p.arcs),
        "status": p.status,
    }


def cmd_plan(args: argparse.Namespace) -> int:
    # imported here so that the mock-serve model child never loads them
    from .expand import ExpansionConfig
    from .search import SearchConfig, beam_search
    from .stock import load_stocks

    file_config = load_config_file(args.config)
    manifest = load_manifest(args, file_config)
    stock_paths = args.stock or file_config.get("stock") or []
    if not stock_paths:
        raise ConfigError("at least one stock file is required (--stock)")
    normalizer = ToyNormalizer()
    stock = load_stocks(stock_paths, normalizer)
    # each setting under its flag's destination, which is also its key in metadata.config
    names = ("beams", "max_steps", "retro_beams", "theta_hi", "gap", "forward_topk")
    try:
        settings = {name: resolve(name, getattr(args, name), file_config) for name in names}
        cfg = SearchConfig(
            n_beams=settings["beams"], max_steps=settings["max_steps"],
            expansion=ExpansionConfig(
                retro_beams=settings["retro_beams"], auto_accept_likelihood=settings["theta_hi"],
                selectivity_gap=settings["gap"], forward_topk=settings["forward_topk"],
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    trace: Optional[List[dict]] = [] if args.trace else None
    with contextlib.closing(build_models(manifest)) as models:
        try:
            outcome = beam_search(args.target, cfg, models, stock, normalizer, trace=trace)
        except NotCanonicalizable as exc:
            raise ConfigError(f"target is not canonicalizable: {exc}") from exc

    payload = {
        "metadata": {
            "target": args.target,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "config": settings,
            "stock_size": len(stock),
        },
        "routes": [route_to_json(outcome.graph, p) for p in outcome.pathways],
    }
    write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.graph_out:
        write_text(args.graph_out, outcome.graph.dumps() + "\n")
    solved = outcome.solved
    if args.dot_out:
        write_text(args.dot_out, outcome.graph.to_dot(solved[0].arcs if solved else None))
    if args.trace:
        write_text(args.trace, "".join(json.dumps(r, sort_keys=True) + "\n" for r in trace))

    print(f"target: {args.target}")
    print(f"{'rank':>4}  {'status':<9} {'steps':>5}  {'score':>12}")
    for i, p in enumerate(outcome.pathways[:20], 1):
        print(f"{i:>4}  {p.status:<9} {len(p.arcs):>5}  {p.cumulative_score:>12.6g}")
    print(f"{len(solved)} solved route(s) of {len(outcome.pathways)} pathways -> {Path(args.out)}")
    return EXIT_OK if solved else EXIT_NO_ROUTE


def read_targets(path: str) -> List[str]:
    """Targets of a line file (`errors.read_lines`); a ``{...}`` line holds a ``target``."""
    targets = []
    for lineno, line in read_lines(path):
        if line.startswith("{"):
            where = f"{path}:{lineno}: bad JSONL test line {EXCERPT.repr(line)}"
            try:
                line = expect(parse_json(line, where)["target"], str, f"{path}:{lineno}: target")
            except KeyError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        targets.append(line)
    return targets


def cmd_eval(args: argparse.Namespace) -> int:
    # imported here so that the mock-serve model child never loads it
    from .metrics import check_settings, evaluate

    file_config = load_config_file(args.config)
    manifest = load_manifest(args, file_config)
    normalizer = ToyNormalizer()
    targets = read_targets(args.test)
    try:
        base_label = resolve("log_base", args.log_base, file_config)
        log_base = None if base_label == "e" else float(base_label)
        beams = resolve("eval_beams", args.beams, file_config)
        bins = resolve("bins", args.bins, file_config)
        check_settings(beams, bins, log_base)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    with contextlib.closing(build_models(manifest)) as models:
        report, records = evaluate(
            targets, models, normalizer, beams=beams, bins=bins, log_base=log_base,
            include_unrecognized=args.include_unrecognized,
        )

    write_text(args.report, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    if args.audit:
        write_text(args.audit, "".join(json.dumps(r.to_json(), sort_keys=True) + "\n"
                                       for r in records))
    if args.hist_csv:
        rows = [f"{h.superclass},{i},{c}\n" for h in report.histograms for i, c in enumerate(h.counts)]
        write_text(args.hist_csv, "superclass,bin,count\n" + "".join(rows))

    inv = "inf" if report.jsd == 0.0 else (
        f"{report.inv_jsd:.1f}" if report.inv_jsd is not None else "n/a"
    )
    print(f"{'RT [%]':>8} {'Cov. [%]':>9} {'CD':>6} {'1/JSD':>8} {'invalid smi [%]':>16}")
    print(
        f"{report.round_trip_pct:>8.1f} {report.coverage_pct:>9.1f} "
        f"{report.class_diversity:>6.2f} {inv:>8} {report.invalid_smiles_pct:>16.2f}"
    )
    print(f"(log base {report.log_base}, {report.bins} bins, "
          f"classes {report.participating_classes}) -> {args.report}")
    return EXIT_OK


def cmd_mock_serve(args: argparse.Namespace) -> int:
    templates = load_templates(args.templates)
    oracle = ToyOracle(templates)
    if args.transport == "stdio":
        serve_stdio(oracle, sys.stdin, sys.stdout)
        return EXIT_OK
    try:
        server = serve_http(oracle, args.host, args.port)
    except (OSError, OverflowError) as exc:  # the address is taken, or not one at all
        raise ConfigError(f"cannot serve on {args.host}:{args.port}: {exc}") from exc
    print(f"serving {len(templates)} templates on http://{args.host}:{server.server_port}/")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    # imported here so that the mock-serve model child never loads it
    from .graph import HyperGraph

    try:
        graph = HyperGraph.loads(read_text(args.graph))
    except ValueError as exc:
        raise ConfigError(f"cannot load graph snapshot {args.graph}: {exc}") from exc
    dot = graph.to_dot()
    if args.out:
        write_text(args.out, dot)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroroute",
        description="Hypergraph beam-search route planner and model evaluator.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan retrosynthetic routes for a target")
    plan.add_argument("target")
    plan.add_argument("--models", help="model manifest JSON")
    plan.add_argument("--stock", action="append", help="stock file (repeatable, union)")
    plan.add_argument("--max-steps", type=int, dest="max_steps")
    plan.add_argument("--beams", type=int, help="pathway beam width")
    plan.add_argument("--retro-beams", type=int, dest="retro_beams")
    plan.add_argument("--theta-hi", type=float, dest="theta_hi")
    plan.add_argument("--gap", type=float)
    plan.add_argument("--forward-topk", type=int, dest="forward_topk")
    plan.add_argument("--config")
    plan.add_argument("--out", default="routes.json")
    plan.add_argument("--graph-out", dest="graph_out")
    plan.add_argument("--dot-out", dest="dot_out")
    plan.add_argument("--trace", help="write the expansion audit trail (JSONL)")
    plan.set_defaults(func=cmd_plan)

    ev = sub.add_parser("eval", help="evaluate a single-step retro model")
    ev.add_argument("--test", required=True, help="targets: text or JSONL file")
    ev.add_argument("--models")
    ev.add_argument("--beams", type=int)
    ev.add_argument("--bins", type=int)
    ev.add_argument("--log-base", dest="log_base")
    ev.add_argument("--include-unrecognized", action="store_true")
    ev.add_argument("--config")
    ev.add_argument("--report", default="metrics.json")
    ev.add_argument("--audit", help="per-suggestion audit JSONL")
    ev.add_argument("--hist-csv", dest="hist_csv")
    ev.set_defaults(func=cmd_eval)

    mock = sub.add_parser("mock-serve", help="serve the toy oracle over the wire protocol")
    mock.add_argument("templates")
    mock.add_argument("--transport", choices=("stdio", "http"), default="stdio")
    mock.add_argument("--host", default="127.0.0.1")
    mock.add_argument("--port", type=int, default=0)
    mock.set_defaults(func=cmd_mock_serve)

    export = sub.add_parser("export", help="render a graph snapshot as DOT")
    export.add_argument("graph")
    export.add_argument("--out")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the model child logs only the HTTP server's DEBUG lines, so without -v it never
    # loads logging; every other command may warn
    if args.verbose or args.func is not cmd_mock_serve:
        import logging
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
    try:
        return args.func(args)
    except EmptyEvaluation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_EVAL
    except RetroRouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
