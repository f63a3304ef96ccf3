"""Seeded generator of the benchmark inputs and of their ground truth.

The chemistry is layered. Level 0 holds purchasable building blocks. Each
molecule at level k >= 1 is the product of `alts` main templates. A main
template joins one solvable molecule of level k-1 with a building block
(for level-2 products, sometimes with a solvable level-1 molecule), and no
other main template uses the same reactant pair. A template may also carry
one reagent, which is always in stock.

Competing templates share a main template's reactant pair and make a side
product that is never planned. Their weights put the main template into
one of five filter regimes, so every branch of the expansion filter runs:

    auto              no competitor, likelihood 1
    auto_comp         one weak competitor, likelihood above 0.6
    selective         target is top-1 and leads the runner-up by > 0.2
    not_top1          a competitor is the forward top-1
    insufficient_gap  target is top-1 but leads by < 0.2

A "dead" molecule has only rejected templates, so it cannot be made. Dead
molecules are never used as reactants, so every arc the planner attaches
leads to a solvable subtree, and every route fits in levels + 1 <= 6 steps.
Hence the planner solves a target exactly when the target is not dead, and
`solved_frac` has an exact expected value.

The ground truth (likelihood, forward top-1 and filter regime per main
template) is worked out here from the weights as they are drawn; it shares
no code with the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

AUTO_ACCEPT = 0.6
SELECTIVITY_GAP = 0.2
ACCEPTED_REGIMES = ("auto", "auto_comp", "selective")
REJECTED_REGIMES = ("not_top1", "insufficient_gap")
COMPETING_REGIMES = ("auto_comp", "selective") + REJECTED_REGIMES

# Relative weights (main, competitors...) per regime, before jitter.
REGIME_WEIGHTS = {
    "auto": (1.0,),
    "auto_comp": (0.8, 0.2),
    "selective": (0.55, 0.25, 0.20),
    "not_top1": (0.30, 0.50, 0.20),
    "insufficient_gap": (0.50, 0.40, 0.10),
}

# Eight atom tokens spell the index digits of a molecule name in base 8.
_DIGITS = ("C", "N", "O", "S", "P", "F", "Cl", "Br")


@dataclass(frozen=True)
class ChemParams:
    """Shape of the layered chemistry and of the target lists."""

    levels: int = 5
    width: int = 40  # molecules per level
    alts: int = 3  # main templates per molecule
    blocks: int = 80  # purchasable level-0 building blocks
    reagents: int = 6  # purchasable reagents
    compete_share: float = 0.35  # share of optional alternatives that compete
    stock_share: float = 0.08  # share of solvable intermediates also in stock
    dead_share: float = 0.1  # share of molecules per level that cannot be made
    nonstock_second: float = 0.25  # level-2 products joining two level-1 molecules
    reagent_share: float = 0.1
    plan_targets: int = 100  # drawn from levels 3..levels
    dead_targets: int = 10  # of which cannot be made
    eval_chunks: int = 100  # one `evaluate` call each
    eval_chunk: int = 10  # molecules of levels 1..levels per chunk, plus one block


@dataclass(frozen=True)
class SnapshotParams:
    """Sizes and branching of the planner-shaped graph snapshots."""

    sizes: Tuple[int, ...] = (1000, 1100, 1200, 1300, 1400)
    per_size: int = 20
    arcs_per_node: Tuple[int, int] = (1, 4)
    share_reuse: float = 0.2  # precursors reused from nodes already in the graph
    expanded_share: float = 0.7


@dataclass
class Chemistry:
    params: ChemParams
    templates: List[dict]
    stock: List[str]
    level: Dict[str, int]
    dead: Set[str]
    # ground truth of every main template, keyed by product
    truth: Dict[str, List[dict]] = field(default_factory=dict)
    plan_targets: List[str] = field(default_factory=list)
    eval_chunks: List[List[str]] = field(default_factory=list)

    def write(self, directory: Path) -> Dict[str, Path]:
        """Write templates, stock, manifests and target lists; return paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "templates": directory / "templates.json",
            "stock": directory / "stock.txt",
            "toy_manifest": directory / "toy_manifest.json",
        }
        paths["templates"].write_text(json.dumps(self.templates), "utf-8")
        paths["stock"].write_text("\n".join(self.stock) + "\n", "utf-8")
        paths["toy_manifest"].write_text(
            json.dumps({"transport": "toy", "templates_path": "templates.json"}), "utf-8"
        )
        return paths


def molecule_name(tag: str, index: int, pad: int) -> str:
    """Unique molecule string in the package's token grammar.

    The bracket tag names the class, `pad` carbons grow the atom count with
    the level (so simplicity falls as molecules get larger), and five base-8
    atom digits spell the index.
    """
    digits = []
    for _ in range(5):
        digits.append(_DIGITS[index % 8])
        index //= 8
    if index:
        raise ValueError("molecule index too large for five digits")
    return f"[{tag}]" + "C" * pad + "".join(reversed(digits))


def _deal(rng: random.Random, items, n: int) -> list:
    """n items, each of `items` used equally often (give or take one), shuffled."""
    dealt: list = []
    while len(dealt) < n:
        batch = list(items)
        rng.shuffle(batch)
        dealt += batch
    dealt = dealt[:n]
    rng.shuffle(dealt)
    return dealt


def _class_code(rng: random.Random) -> str:
    return f"{rng.randint(1, 11)}.{rng.randint(1, 9)}.{rng.randint(1, 40)}"


def _regime_group(rng: random.Random, regime: str) -> List[float]:
    """Weights (main first) for a regime, jittered and scaled, with margins kept."""
    base = REGIME_WEIGHTS[regime]
    while True:
        jittered = [w * rng.uniform(0.93, 1.07) for w in base]
        scale = rng.uniform(0.5, 2.0)
        weights = [w * scale for w in jittered]
        if _regime_of(weights) == regime:
            return weights


def _regime_of(weights: List[float]) -> str:
    """Filter regime of the main template (index 0) given its pair's weights.

    Refuses weights within 1e-3 of a threshold so that rounding in the
    package cannot flip the outcome.
    """
    total = sum(weights)
    probs = [w / total for w in weights]
    main = probs[0]
    if abs(main - AUTO_ACCEPT) < 1e-3:
        return "ambiguous"
    if main > AUTO_ACCEPT:
        return "auto" if len(weights) == 1 else "auto_comp"
    others = sorted(probs[1:], reverse=True)
    if others[0] >= main - 1e-3:
        return "not_top1" if others[0] > main + 1e-3 else "ambiguous"
    gap = main - others[0]
    if abs(gap - SELECTIVITY_GAP) < 1e-3:
        return "ambiguous"
    return "selective" if gap > SELECTIVITY_GAP else "insufficient_gap"


def generate_chemistry(seed: int, params: ChemParams = ChemParams()) -> Chemistry:
    rng = random.Random(f"chemistry-{seed}")
    p = params
    blocks = [molecule_name("B", i, 1) for i in range(p.blocks)]
    reagents = [molecule_name("R", i, 0) for i in range(p.reagents)]
    level: Dict[str, int] = {m: 0 for m in blocks}
    by_level: List[List[str]] = [blocks]
    good_by_level: List[List[str]] = [blocks]
    dead: Set[str] = set()
    in_stock: Set[str] = set(blocks) | set(reagents)
    for k in range(1, p.levels + 1):
        names = [molecule_name(f"L{k}", i, 2 + 3 * k) for i in range(p.width)]
        n_dead = round(p.dead_share * p.width)
        dead_here = set(rng.sample(names, n_dead))
        good = [m for m in names if m not in dead_here]
        if k < p.levels:
            in_stock.update(rng.sample(good, round(p.stock_share * len(good))))
        for m in names:
            level[m] = k
        dead |= dead_here
        by_level.append(names)
        good_by_level.append(good)

    templates: List[dict] = []
    truth: Dict[str, List[dict]] = {}
    used_pairs: Set[frozenset] = set()
    side = 0
    for k in range(1, p.levels + 1):
        # Regimes, reactants and reagents are dealt in exact shares and
        # reactants are used evenly, so that seeds differ in layout only.
        good = good_by_level[k]
        n_optional = len(good) * (p.alts - 1)
        n_compete = round(p.compete_share * n_optional)
        first_regimes = _deal(rng, ACCEPTED_REGIMES, len(good))
        optional = _deal(rng, COMPETING_REGIMES, n_compete) + ["auto"] * (n_optional - n_compete)
        rng.shuffle(optional)
        dead_k = [m for m in by_level[k] if m in dead]
        rejected = _deal(rng, REJECTED_REGIMES, len(dead_k) * p.alts)
        plan = []
        for i, product in enumerate(good):
            plan.append((product, first_regimes[i]))
            plan += [(product, optional.pop()) for _ in range(p.alts - 1)]
        plan += [(product, rejected.pop()) for product in dead_k for _ in range(p.alts)]
        n = len(plan)
        firsts = _deal(rng, good_by_level[k - 1], n)
        seconds = _deal(rng, blocks, n)
        if k == 2:
            n_nonstock = round(p.nonstock_second * n)
            slots = rng.sample(range(n), n_nonstock)
            for i, m in zip(slots, _deal(rng, good_by_level[1], n_nonstock)):
                seconds[i] = m
        with_reagent = set(rng.sample(range(n), round(p.reagent_share * n)))
        for i, (product, regime) in enumerate(plan):
            first, second = firsts[i], seconds[i]
            pool = good_by_level[1] if second in level and level[second] == 1 else blocks
            while second == first or frozenset((first, second)) in used_pairs:
                second = rng.choice(pool)
            pair = frozenset((first, second))
            used_pairs.add(pair)
            lhs = sorted(pair)
            reagent = [rng.choice(reagents)] if i in with_reagent else []
            weights = _regime_group(rng, regime)
            cls = _class_code(rng)
            entry = {"lhs": lhs, "rhs": product, "weight": weights[0], "class": cls}
            if reagent:
                entry["reagents"] = reagent
            templates.append(entry)
            total = sum(weights)
            outcomes = [(weights[0] / total, product)]
            for w in weights[1:]:
                side_product = molecule_name("X", side, 3)
                side += 1
                templates.append(
                    {"lhs": lhs, "rhs": side_product, "weight": w, "class": _class_code(rng)}
                )
                outcomes.append((w / total, side_product))
            outcomes.sort(key=lambda o: (-o[0], o[1]))
            truth.setdefault(product, []).append(
                {
                    "reactants": lhs,
                    "reagents": reagent,
                    "class": cls,
                    "likelihood": weights[0] / total,
                    "top1": outcomes[0][1],
                    "regime": regime,
                    "accepted": regime in ACCEPTED_REGIMES,
                }
            )
    rng.shuffle(templates)

    chem = Chemistry(
        params=p,
        templates=templates,
        stock=sorted(in_stock),
        level=level,
        dead=dead,
        truth=truth,
    )
    chem.plan_targets = _plan_targets(rng, chem, by_level)
    chem.eval_chunks = _eval_chunks(rng, chem, by_level)
    return chem


def _plan_targets(rng: random.Random, chem: Chemistry, by_level) -> List[str]:
    """Same count per level and same dead count on every seed."""
    p = chem.params
    top = list(range(3, p.levels + 1))
    stock = set(chem.stock)
    targets: List[str] = []
    for i, k in enumerate(top):
        n = p.plan_targets // len(top) + (1 if i < p.plan_targets % len(top) else 0)
        n_dead = p.dead_targets // len(top) + (1 if i < p.dead_targets % len(top) else 0)
        dead = sorted(m for m in by_level[k] if m in chem.dead)
        good = sorted(m for m in by_level[k] if m not in chem.dead and m not in stock)
        targets += rng.sample(dead, n_dead) + rng.sample(good, n - n_dead)
    rng.shuffle(targets)
    return targets


def _eval_chunks(rng: random.Random, chem: Chemistry, by_level) -> List[List[str]]:
    """Test-set chunks: made molecules of every level plus one building block.

    Every molecule of levels 1..levels appears equally often over the chunks
    and at most once per chunk. The block has no template, so it exercises
    the no-suggestion path while every chunk keeps suggestions to score.
    """
    p = chem.params
    pool = [m for k in range(1, p.levels + 1) for m in by_level[k]]
    if len(pool) % p.eval_chunk:
        raise ValueError("eval_chunk must divide the number of made molecules")
    molecules: List[str] = []
    while len(molecules) < p.eval_chunks * p.eval_chunk:
        molecules += rng.sample(pool, len(pool))
    blocks = _deal(rng, by_level[0], p.eval_chunks)
    chunks = []
    for i, block in enumerate(blocks):
        chunk = molecules[i * p.eval_chunk:(i + 1) * p.eval_chunk]
        chunk.insert(rng.randint(0, len(chunk)), block)
        chunks.append(chunk)
    return chunks


# --- graph snapshots --------------------------------------------------------


def generate_snapshot(seed: int, n_nodes: int, params: SnapshotParams = SnapshotParams()) -> dict:
    """A planner-shaped hypergraph snapshot in the `retroroute export` format.

    Nodes are grown breadth-first from the root, as the planner grows them.
    Every precursor has a larger id than its product, so the graph is
    acyclic, and every node but the root is a precursor of some arc, so
    every node is rendered.
    """
    rng = random.Random(f"snapshot-{seed}-{n_nodes}")
    nodes: List[dict] = []
    arcs: List[dict] = []

    def new_node() -> int:
        node_id = len(nodes)
        nodes.append(
            {
                "id": node_id,
                "smiles": molecule_name("G", node_id, 1 + node_id % 13),
                "in_stock": False,
                "simplicity": round(rng.uniform(0.2, 0.95), 6),
                "expanded": False,
                "expandable": True,
            }
        )
        return node_id

    new_node()
    frontier = 0
    while len(nodes) < n_nodes:
        product = frontier
        frontier += 1
        # a node is left unexpanded only while others wait, so growth goes on
        if frontier < len(nodes) and rng.random() > params.expanded_share:
            nodes[product]["in_stock"] = rng.random() < 0.7
            continue
        nodes[product]["expanded"] = True
        for arc_index in range(rng.randint(*params.arcs_per_node)):
            if len(nodes) >= n_nodes:
                break
            precursors: List[int] = []
            for slot in range(2):
                later = len(nodes) - product - 1
                fresh = arc_index == 0 and slot == 0
                if not fresh and later > 0 and rng.random() < params.share_reuse:
                    candidate = rng.randint(product + 1, len(nodes) - 1)
                    if candidate not in precursors:
                        precursors.append(candidate)
                        continue
                if len(nodes) < n_nodes:
                    precursors.append(new_node())
            if not precursors:
                break
            reagents = []
            if len(precursors) == 2 and rng.random() < 0.1:
                reagents = [precursors[1]]
            arcs.append(
                {
                    "id": len(arcs),
                    "product": product,
                    "precursors": precursors,
                    "reagents": reagents,
                    "likelihood": round(rng.uniform(0.5, 1.0), 6),
                    "class": _class_code(rng),
                    "score": round(rng.uniform(0.05, 2.0), 6),
                }
            )
    for node in nodes[frontier:]:
        node["in_stock"] = rng.random() < 0.7
    return {"root": 0, "nodes": nodes, "arcs": arcs}


def generate_snapshots(seed: int, params: SnapshotParams = SnapshotParams()) -> Iterator[dict]:
    """`per_size` snapshots of each size in a seeded order, made one at a time."""
    specs = [(seed * 1000 + i, size) for size in params.sizes for i in range(params.per_size)]
    random.Random(f"snapshots-{seed}").shuffle(specs)
    for snapshot_seed, size in specs:
        yield generate_snapshot(snapshot_seed, size, params)
