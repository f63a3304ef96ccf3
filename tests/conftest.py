import json
import random

import pytest

from retroroute.smiles import ToyNormalizer
from retroroute.stock import StockSet
from retroroute.toy import ToyOracle, parse_templates

# Six-template toy chemistry used by the workflow tests: a unique 3-step
# route CNOS <- {CNO,S} <- {CN,O} <- {C,N} from the stock {C,N,O,S}, one
# competing product (CNP) to exercise selectivity, one dead-end alternative
# route to CN through unavailable P/F, and one unrelated distractor.
TOY_TEMPLATES = [
    {"lhs": ["C", "N"], "rhs": "CN", "weight": 1.0, "class": "1.1.1"},
    {"lhs": ["CN", "O"], "rhs": "CNO", "weight": 0.8, "class": "2.1.1"},
    {"lhs": ["CNO", "S"], "rhs": "CNOS", "weight": 0.9, "class": "3.2.1"},
    {"lhs": ["CN", "O"], "rhs": "CNP", "weight": 0.1, "class": "2.1.2"},
    {"lhs": ["P", "F"], "rhs": "CN", "weight": 0.3, "class": "4.1.1"},
    {"lhs": ["O", "S"], "rhs": "OS", "weight": 0.5, "class": "5.1.1"},
]

STOCK_MOLECULES = ("C", "N", "O", "S")


def make_templates(entries):
    return parse_templates(entries, "test templates")


def make_stock(molecules):
    normalizer = ToyNormalizer()
    return StockSet(entries=frozenset(normalizer.normalize(m) for m in molecules))


@pytest.fixture
def normalizer():
    return ToyNormalizer()


@pytest.fixture
def toy_oracle():
    return ToyOracle(make_templates(TOY_TEMPLATES))


@pytest.fixture
def toy_stock():
    return make_stock(STOCK_MOLECULES)


@pytest.fixture
def templates_file(tmp_path):
    path = tmp_path / "templates.json"
    path.write_text(json.dumps(TOY_TEMPLATES), "utf-8")
    return path


@pytest.fixture
def stock_file(tmp_path):
    path = tmp_path / "stock.txt"
    path.write_text("\n".join(STOCK_MOLECULES) + "\n", "utf-8")
    return path


@pytest.fixture
def toy_manifest(tmp_path, templates_file):
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps({"transport": "toy", "templates_path": templates_file.name}),
        "utf-8",
    )
    return path


def random_chemistry(rng: random.Random, n_molecules=8, n_templates=8, max_lhs=3,
                     allow_reagents=True):
    """A random template set over bracket-atom molecule names."""
    molecules = [f"[M{i}]" for i in range(n_molecules)]
    entries = []
    for _ in range(n_templates):
        rhs = rng.choice(molecules)
        others = [m for m in molecules if m != rhs]
        lhs = rng.sample(others, rng.randint(1, min(max_lhs, len(others))))
        reagents = []
        if allow_reagents and rng.random() < 0.3:
            spare = [m for m in others if m not in lhs]
            if spare:
                reagents = [rng.choice(spare)]
        entries.append({
            "lhs": lhs,
            "rhs": rhs,
            "weight": round(rng.uniform(0.05, 1.0), 3),
            "class": f"{rng.randint(1, 11)}.{rng.randint(1, 9)}.{rng.randint(1, 9)}",
            "reagents": reagents,
        })
    return molecules, make_templates(entries)
