"""Golden outputs: the bytes `plan`, `eval`, `export` and `mock-serve` write, pinned by digest.

Every invocation of the corpus runs in-process through `cli.main` over toy
manifests. Its digest covers its exit code, its stdout with the run
directory masked, and each file it writes with `generated_at` masked. On a
mismatch the test names the first invocation that differs; the outputs of
every invocation stay under the test's `tmp_path`. The mock-serve replay
answers `REPLAY` through `wire.answer_line` and digests the replies.

After a deliberate change of output, rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

from retroroute.cli import main
from retroroute.toy import ToyOracle
from retroroute.wire import answer_line

from conftest import STOCK_MOLECULES, TOY_TEMPLATES, make_templates, random_chemistry

GOLDEN = Path(__file__).with_name("golden.json")
# seeded random chemistries whose plans reject cycles and whose templates carry reagents
CHEMISTRY_SEEDS = (33, 34)
GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')
PLAN_OUTPUTS = ("routes.json", "trace.jsonl", "graph.json", "graph.dot")
# mock-serve request lines: one well-formed request per op, then the lines CI sends its
# model child. None is answered with text of the interpreter's own (a JSON decoder's
# message), which may differ between Python versions.
REPLAY = (
    '{"id":"r","op":"retro","inputs":["CNOS"],"params":{"beams":10}}',
    '{"id":"f","op":"forward","inputs":[["CN","O"]],"params":{"topk":3}}',
    '{"id":"s","op":"score","inputs":[["CN","O"],"CNO"],"params":{}}',
    '{"id":"c","op":"classify","inputs":["CN.O>>CNO"],"params":{}}',
    '{"id":"1","op":"retro","inputs":{},"params":{}}',
    '{"id":"2","op":"retro","inputs":["CN"],"params":[]}',
    '{"id":"3","op":"retro","inputs":["CN"],"params":{"beams":Infinity}}',
    '{"id":"4","op":"forward","inputs":["CN"],"params":{}}',
    '{"id":"5","op":"retro","inputs":[],"params":{}}',
    '{"id":"6","op":"classify","inputs":["C.N>>CN"],"params":{}}',
)


def chemistry(root: Path, name: str, entries, stock):
    """A toy manifest over `entries` and a stock file, written under `root`."""
    (root / f"{name}-templates.json").write_text(json.dumps(entries), "utf-8")
    manifest = root / f"{name}-manifest.json"
    manifest.write_text(
        json.dumps({"transport": "toy", "templates_path": f"{name}-templates.json"}), "utf-8"
    )
    stock_path = root / f"{name}-stock.txt"
    stock_path.write_text("".join(f"{m}\n" for m in stock), "utf-8")
    return manifest, stock_path


def invocations(root: Path):
    """(name, argv, output paths) of each invocation, in order, its inputs written under `root`."""

    def plan(name, target, manifest, stock, *extra):
        out = root / name
        out.mkdir()
        paths = [out / f for f in PLAN_OUTPUTS]
        argv = ["plan", target, "--models", str(manifest), "--stock", str(stock),
                "--out", str(paths[0]), "--trace", str(paths[1]),
                "--graph-out", str(paths[2]), "--dot-out", str(paths[3]), *extra]
        return name, argv, paths

    toy = chemistry(root, "toy", TOY_TEMPLATES, STOCK_MOLECULES)
    yield plan("plan-CNOS", "CNOS", *toy)
    yield plan("plan-CNOS-narrow", "CNOS", *toy, "--beams", "1", "--max-steps", "2")
    yield plan("plan-dead", "P", *toy)
    yield plan("plan-unparsable", "C !", *toy)
    export = root / "export.dot"
    yield "export", ["export", str(root / "plan-CNOS" / "graph.json"), "--out", str(export)], [export]
    # a hand-written snapshot: class codes not in canonical form (written back canonical)
    # and an arc with a reagent (drawn dashed)
    snapshot = root / "hand-graph.json"
    snapshot.write_text(json.dumps({"root": 0, "nodes": [
        {"id": i, "smiles": s, "in_stock": i > 1, "expanded": i < 2}
        for i, s in enumerate(("CNOS", "CNO", "S", "CN", "O", "N"))
    ], "arcs": [
        {"id": 0, "product": 0, "precursors": [1, 2], "likelihood": 0.9, "class": "01.2.3",
         "score": 1.2},
        {"id": 1, "product": 1, "precursors": [3, 4, 5], "reagents": [5], "likelihood": 0.8,
         "class": "1.02.03", "score": 1.1},
        {"id": 2, "product": 0, "precursors": [3, 2], "likelihood": 0.7, "class": "011.1.0",
         "score": 0.5},
        {"id": 3, "product": 1, "precursors": [3, 4], "likelihood": 0.6, "class": "0.0.0",
         "score": 0.4},
    ]}), "utf-8")
    export = root / "export-hand.dot"
    yield "export-hand", ["export", str(snapshot), "--out", str(export)], [export]

    for seed in CHEMISTRY_SEEDS:
        rng = random.Random(seed)
        molecules, templates = random_chemistry(rng, n_molecules=8, n_templates=10)
        entries = [{"lhs": list(t.reactants), "rhs": t.product, "weight": t.weight,
                    "class": t.reaction_class.code, "reagents": list(t.reagents)}
                   for t in templates]
        manifest, stock = chemistry(root, f"seed{seed}", entries, rng.sample(molecules, 3))
        for i, target in enumerate(molecules):
            yield plan(f"plan-seed{seed}-{i}", target, manifest, stock)

    def evaluate(name, targets, manifest, *extra):
        out = root / name
        out.mkdir()
        test = out / "targets.txt"
        test.write_text("".join(f"{t}\n" for t in targets), "utf-8")
        paths = [out / f for f in ("report.json", "audit.jsonl", "hist.csv")]
        return name, [
            "eval", "--test", str(test), "--models", str(manifest), "--report", str(paths[0]),
            "--audit", str(paths[1]), "--hist-csv", str(paths[2]), *extra,
        ], paths

    for beams in ("1", "10"):
        yield evaluate(f"eval-beams{beams}", molecules, manifest, "--beams", beams)

    # an excluded target, a syntactically invalid suggestion (reagents only) with a null
    # class, and one participating class, so 1/JSD is infinite
    shapes, _ = chemistry(root, "eval-shapes", [
        {"lhs": ["C", "N"], "rhs": "CN", "weight": 1.0, "class": "1.1.1"},
        {"lhs": [], "reagents": ["O"], "rhs": "CN", "weight": 1.0, "class": "2.1.1"},
    ], ())
    yield evaluate("eval-shapes", ("CN", "C !"), shapes, "--log-base", "2",
                   "--include-unrecognized")
    # two products of C.N at equal weight: every valid likelihood is 0.5, so JSD is undefined
    ties, _ = chemistry(root, "eval-ties", [
        {"lhs": ["C", "N"], "rhs": "CN", "weight": 1.0, "class": "1.1.1"},
        {"lhs": ["C", "N"], "rhs": "NC", "weight": 1.0, "class": "2.1.1"},
    ], ())
    yield evaluate("eval-undefined-jsd", ("CN",), ties)
    yield evaluate("eval-empty", ("C !",), shapes)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_corpus(root: Path) -> dict:
    """Each invocation's name -> its exit code and the digests of its stdout and files."""
    digests = {}
    for name, argv, outputs in invocations(root):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        entry = {"exit": code, "stdout": digest(stdout.getvalue().replace(str(root), "<tmp>").encode())}
        for path in outputs:
            if path.exists():
                entry[path.name] = digest(GENERATED_AT.sub(b'"generated_at": ""', path.read_bytes()))
        digests[name] = entry
    models = ToyOracle(make_templates(TOY_TEMPLATES))
    replies = "".join(answer_line(models, line) + "\n" for line in REPLAY)
    digests["mock-serve-replay"] = {"replies": digest(replies.encode())}
    return digests


def test_golden_outputs(tmp_path):
    golden = json.loads(GOLDEN.read_text("utf-8"))
    digests = run_corpus(tmp_path)
    assert list(digests) == list(golden), "the corpus changed; rewrite the digests (--write)"
    for name, expected in golden.items():
        assert digests[name] == expected, f"{name} differs; its outputs are in {tmp_path}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_corpus(Path(tmp))
    text = json.dumps(digests, indent=1) + "\n"
    if args.write:
        GOLDEN.write_text(text, "utf-8")
    else:
        sys.stdout.write(text)
