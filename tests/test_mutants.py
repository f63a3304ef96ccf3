"""Every value read from outside, set in turn to each JSON kind its field does not take.

One valid graph snapshot, template file, config file and model manifest are
each run once as they are (they must succeed). Then every value in them (the
whole document, each object's values and each list's items) is set, one at a
time, to a sample of each JSON kind that its field does not accept, and
`cli.main` runs in-process. Each mutant must exit 2 with exactly one short
`error:` line and no traceback. Wire request lines get the same sweep through
`wire.answer_line`, which must answer `ok: false` with a
`MalformedModelResponse`, and replies through a `WireClient`, which must raise
one.

The kinds a field accepts are read off its valid value, independently of the
package's own rule: a number field takes an integer too, and the fields named
as nullable take `null` (for them it means absent).
"""

import contextlib
import io
import json

import pytest

from retroroute.cli import main
from retroroute.errors import MalformedModelResponse
from retroroute.models import PrecursorSet
from retroroute.toy import ToyOracle
from retroroute.wire import WireClient, answer_line, encode_request

from conftest import TOY_TEMPLATES, make_templates

# one sample of each JSON kind; each would pass a field that only compares values
# (1 == True == 1.0, and "1" is a molecule name or a file name)
SAMPLES = {"object": {}, "list": [], "string": "1", "integer": 1, "number": 1.0,
           "boolean": True, "null": None}
# the types of the samples that a field holding a value of the key's type accepts
ACCEPTS = {dict: {dict}, list: {list}, str: {str}, int: {int}, float: {int, float},
           bool: {bool}}


def values(doc, path=()):
    """(path, value) of `doc` and of every value inside it, depth first."""
    yield path, doc
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        yield from values(value, (*path, key))


def mutants(doc, nullable=()):
    """(name, document) of each mutant of `doc`: one value set to a sample of a kind its field
    does not accept. A path in `nullable` accepts null."""
    for path, value in values(doc):
        accepted = ACCEPTS[type(value)] | ({type(None)} if path in nullable else set())
        for kind, sample in SAMPLES.items():
            if type(sample) in accepted:
                continue
            mutant = json.loads(json.dumps(doc))  # a deep copy
            if not path:
                mutant = sample
            else:
                holder = mutant
                for key in path[:-1]:
                    holder = holder[key]
                holder[path[-1]] = sample
            yield "/".join(map(str, path)) + f"={kind}", mutant


def run(argv):
    """(exit code, stderr) of `cli.main(argv)` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def refused_once(code, err):
    """True if a run exited 2 with one `error:` line of under 300 bytes, no traceback."""
    return (code == 2 and err.startswith("error: ") and err.count("\n") == 1
            and len(err.encode()) < 300 and "Traceback" not in err)


SNAPSHOT = {
    "root": 0,
    "nodes": [
        {"id": 0, "smiles": "CNO", "in_stock": False, "simplicity": 0.5, "expanded": True,
         "expandable": True},
        {"id": 1, "smiles": "CN", "in_stock": False, "simplicity": 0.75, "expanded": False,
         "expandable": True},
        {"id": 2, "smiles": "O", "in_stock": True, "simplicity": 1.0, "expanded": False,
         "expandable": False},
    ],
    "arcs": [
        {"id": 0, "product": 0, "precursors": [1, 2], "reagents": [2], "likelihood": 0.9,
         "class": "2.1.1", "score": 0.8},
    ],
}
# two templates, one with every key, over the stock C, N and O: CNO <- {CN, O} <- {C, N}
TEMPLATES = [
    {"lhs": ["C", "N"], "rhs": "CN", "weight": 1.0, "class": "1.1.1", "label": "amine"},
    {"lhs": ["CN"], "rhs": "CNO", "weight": 0.5, "class": "2.1.1", "label": "oxidation",
     "reagents": ["O"]},
]
MANIFEST = {"transport": "toy", "templates_path": "templates.json", "timeout": 5.0,
            "retries": 1, "command": ["model"], "endpoint": "http://localhost:1/",
            "token_dict_path": "tokens.tsv"}
# a namedtuple field left at None is the field left out
MANIFEST_NULLABLE = {("command",), ("endpoint",), ("token_dict_path",)}


@pytest.fixture
def files(tmp_path):
    """Write the valid documents under `tmp_path`; return a writer of one document."""
    (tmp_path / "stock.txt").write_text("C\nN\nO\n", "utf-8")
    (tmp_path / "tokens.tsv").write_text("[T]\tCN\n", "utf-8")

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), "utf-8")
        return path

    write("templates.json", TEMPLATES)
    write("manifest.json", MANIFEST)
    return write


def config(tmp_path):
    return {"beams": 3, "max_steps": 4, "retro_beams": 5, "theta_hi": 0.6, "gap": 0.2,
            "forward_topk": 3, "eval_beams": 5, "bins": 10, "log_base": "e",
            "stock": [str(tmp_path / "stock.txt")], "models": str(tmp_path / "manifest.json")}


def plan(tmp_path, *extra):
    return ["plan", "CNO", "--out", tmp_path / "routes.json", *extra]


# each document: its file name, its valid form (given the run directory), the null-taking
# paths, and the argv that reads it (given the run directory and its path)
DOCUMENTS = {
    "snapshot": ("graph.json", lambda tmp: SNAPSHOT, {("root",)},
                 lambda tmp, path: ["export", path, "--out", tmp / "graph.dot"]),
    "templates": ("templates.json", lambda tmp: TEMPLATES, set(),
                  lambda tmp, path: plan(tmp, "--models", tmp / "manifest.json",
                                         "--stock", tmp / "stock.txt")),
    "config": ("config.json", config, set(),
               lambda tmp, path: plan(tmp, "--config", path)),
    "manifest": ("manifest.json", lambda tmp: MANIFEST, MANIFEST_NULLABLE,
                 lambda tmp, path: plan(tmp, "--models", path, "--stock", tmp / "stock.txt")),
}


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_wrong_kind_exits_2_with_one_error_line(document, files, tmp_path):
    name, valid, nullable, argv = DOCUMENTS[document]
    doc = valid(tmp_path)
    path = files(name, doc)
    assert run(argv(tmp_path, path))[0] == 0
    failures, count = [], 0
    for mutant_name, mutant in mutants(doc, nullable):
        files(name, mutant)
        code, err = run(argv(tmp_path, path))
        count += 1
        if not refused_once(code, err):
            failures.append((mutant_name, code, err))
    assert count > 40
    assert failures == []


# one request per op, each param the op reads given
REQUESTS = {
    "retro": ("retro", ["CNOS"], {"beams": 10}),
    "forward": ("forward", [["CN", "O"]], {"topk": 3, "reagents": ["O"]}),
    "score": ("score", [["CN", "O"], "CNO"], {"reagents": ["O"]}),
    "classify": ("classify", ["CN.O>>CNO"], {}),
}


@pytest.mark.parametrize("op", REQUESTS)
def test_every_wrong_kind_in_a_request_is_answered_malformed(op):
    oracle = ToyOracle(make_templates(TOY_TEMPLATES))
    request = json.loads(encode_request("q", *REQUESTS[op]))
    assert json.loads(answer_line(oracle, json.dumps(request)))["ok"] is True
    failures = []
    for mutant_name, mutant in mutants(request):
        reply = json.loads(answer_line(oracle, json.dumps(mutant)))
        if reply["ok"] is not False or not reply["error"].startswith("MalformedModelResponse: "):
            failures.append((mutant_name, reply))
    assert failures == []


class Canned:
    """A transport that answers every request with `reply` under the request's id."""

    def __init__(self, reply):
        self.reply = reply

    def call(self, line, req_id, timeout):
        return json.dumps({**self.reply, "id": req_id})


# one reply per op, each field the client reads given, and the call that reads it
REPLIES = {
    "retro": ({"ok": True, "result": [{"precursors": ["CN", "O"], "reagents": ["O"]}]},
              lambda client: client.retro_predict("CNO", 5)),
    "forward": ({"ok": True, "result": [{"product": "CNO", "likelihood": 0.9}]},
                lambda client: client.forward_predict(PrecursorSet(("CN", "O")), 3)),
    "score": ({"ok": True, "result": [0.9]},
              lambda client: client.score_reaction(PrecursorSet(("CN", "O")), "CNO")),
    "classify": ({"ok": True, "result": {"superclass": 2, "category": 1, "named_reaction": 1,
                                         "label": "oxidation"}},
                 lambda client: client.classify("CN.O>>CNO")),
}


@pytest.mark.parametrize("op", REPLIES)
def test_every_wrong_kind_in_a_reply_is_refused(op):
    reply, call = REPLIES[op]
    call(WireClient(Canned(reply), retries=0))
    failures = []
    for mutant_name, mutant in mutants(reply):
        if type(mutant) is not dict:
            continue  # a reply line that is no object never leaves the transport
        try:
            value = call(WireClient(Canned(mutant), retries=0))
        except MalformedModelResponse:
            continue
        failures.append((mutant_name, value))
    assert failures == []
