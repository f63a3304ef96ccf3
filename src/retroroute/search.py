"""Arc scoring and the pathway beam search over the hypergraph.

An arc's score combines the forward likelihood with the simplicity of the
molecules involved; a pathway's score is the product of its arc scores.
The search repeatedly expands frontier nodes, forks one child pathway per
available arc, prunes the open set to the beam width and collects
terminated pathways until none remain open.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import DegenerateProduct, ScorerUnavailable
from .expand import ExpansionConfig, expand_node, node_simplicity
from .graph import HyperGraph
from .models import ChemModels
from .smiles import Normalizer, atom_count

logger = logging.getLogger(__name__)

# complexity scores live in [1, 5]; the product simplicity is floored before
# division to avoid a singularity at maximal complexity
SC_MIN = 1.0
SC_MAX = 5.0
PRODUCT_SIMPLICITY_FLOOR = 0.01
# atom-token count at which the surrogate complexity reaches SC_MAX
SATURATING_ATOMS = 40

OPEN = "open"
SOLVED = "solved"
MAX_STEPS = "max_steps"
DEAD = "dead"
CYCLIC = "cyclic"

# failed expansions of a node (model outages) after which it is marked dead
MAX_DEFERRALS = 3


# --- simplicity -------------------------------------------------------------


class ComplexityScorer:
    """Returns a synthetic-complexity score in [1, 5] for a molecule."""

    def sc(self, smiles: str) -> float:
        raise NotImplementedError


class HeavyTokenScorer(ComplexityScorer):
    """Deterministic surrogate: complexity grows with the atom-token count.

    Preserves the pull toward simpler precursors without a learned model;
    a trained scorer can be plugged in through the same interface.
    """

    def sc(self, smiles: str) -> float:
        try:
            n = atom_count(smiles)
        except Exception as exc:
            raise ScorerUnavailable(f"cannot score {smiles!r}: {exc}") from exc
        return min(SC_MAX, max(SC_MIN, 1.0 + 4.0 * n / SATURATING_ATOMS))


def simplicity(smiles: str, scorer: ComplexityScorer) -> float:
    """Map complexity in [1, 5] to simplicity in [0, 1] (1 = simplest)."""
    sc = scorer.sc(smiles)
    if not SC_MIN <= sc <= SC_MAX:
        logger.warning("complexity %s for %r outside [1, 5]; clamping", sc, smiles)
        sc = min(SC_MAX, max(SC_MIN, sc))
    return 1.0 - (sc - 1.0) / 4.0


def arc_score(
    likelihood: float, precursor_simplicities: Sequence[float], product_simplicity: float
) -> float:
    """Score of one retrosynthetic step; higher means preferred.

    Forward likelihood times the product of precursor simplicities over the
    product's simplicity. Reagent-flagged precursors must already be
    excluded by the caller.
    """
    if not 0.0 <= product_simplicity <= 1.0:
        raise DegenerateProduct(f"product simplicity {product_simplicity} outside [0,1]")
    numerator = likelihood
    for s in precursor_simplicities:
        numerator *= s
    return numerator / max(product_simplicity, PRODUCT_SIMPLICITY_FLOOR)


# --- pathways ---------------------------------------------------------------


@dataclass(frozen=True)
class Pathway:
    arcs: Tuple[int, ...]
    frontier: FrozenSet[int]
    cumulative_score: float
    steps: int
    status: str = OPEN

    def sort_key(self):
        return (-self.cumulative_score, self.steps, tuple(sorted(self.arcs)))


@dataclass(frozen=True)
class SearchConfig:
    n_beams: int = 10
    max_steps: int = 6
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)

    def __post_init__(self):
        if self.n_beams < 1:
            raise ValueError("n_beams must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class SearchOutcome:
    pathways: List[Pathway]
    graph: HyperGraph

    @property
    def solved(self) -> List[Pathway]:
        return [p for p in self.pathways if p.status == SOLVED]


def terminate_check(g: HyperGraph, p: Pathway, max_steps: int) -> str:
    """Status of a pathway after an expansion phase."""
    if not p.frontier:
        return SOLVED
    if p.steps >= max_steps:
        return MAX_STEPS
    has_dead = False
    has_cyclic = False
    for node_id in p.frontier:
        node = g.node(node_id)
        if not node.expandable:
            has_dead = True
        elif node.expanded and not g.arcs_by_product.get(node_id):
            if node.cycle_rejections > 0:
                has_cyclic = True
            else:
                has_dead = True
    if has_dead:
        return DEAD
    if has_cyclic:
        return CYCLIC
    return OPEN


def fork_pathway(g: HyperGraph, p: Pathway, arc_id: int) -> Pathway:
    """Child pathway with one more arc resolved."""
    arc = g.arcs[arc_id]
    arcs = p.arcs + (arc_id,)
    produced = {g.arcs[a].product for a in arcs}
    frontier = set(p.frontier)
    frontier.discard(arc.product)
    for prec in arc.precursors:
        if prec in arc.reagents or prec in produced:
            continue
        if g.node(prec).in_stock:
            continue
        frontier.add(prec)
    return Pathway(
        arcs=arcs,
        frontier=frozenset(frontier),
        cumulative_score=p.cumulative_score * arc.arc_score,
        steps=p.steps + 1,
        status=OPEN,
    )


def beam_search(
    target: str,
    cfg: SearchConfig,
    models: ChemModels,
    stock,
    normalizer: Normalizer,
    scorer: ComplexityScorer = HeavyTokenScorer(),
    trace: Optional[List[dict]] = None,
) -> SearchOutcome:
    """Plan routes for a target; returns all terminated pathways, best first.

    An empty result is a valid "no route found" outcome, not an error.
    """
    target_norm = normalizer.normalize(target)

    g = HyperGraph()
    s, expandable = node_simplicity(target_norm, scorer)
    root = g.get_or_insert_node(
        target_norm,
        in_stock=stock.contains(target_norm),
        simplicity=s,
        expandable=expandable,
    )

    root_path = Pathway(
        arcs=(),
        frontier=frozenset() if g.node(root).in_stock else frozenset({root}),
        cumulative_score=1.0,
        steps=0,
    )  # zero-arc score is the multiplicative identity
    terminated: List[Pathway] = []
    open_paths: Dict[FrozenSet[int], Pathway] = {frozenset(): root_path}

    while open_paths:
        # (1) expand every not-yet-expanded node on a live pathway (pathways
        # already at the step limit terminate regardless, so skip theirs)
        pending = sorted(
            {
                n
                for p in open_paths.values()
                if p.steps < cfg.max_steps
                for n in p.frontier
                if not g.node(n).expanded and g.node(n).expandable
            }
        )
        for node_id in pending:
            expand_node(g, node_id, cfg.expansion, models, normalizer, scorer, stock, trace)
            node = g.node(node_id)
            if not node.expanded and node.deferrals >= MAX_DEFERRALS:
                node.expandable = False

        # terminate-check now that the expansion state is known
        survivors: List[Pathway] = []
        for p in sorted(open_paths.values(), key=Pathway.sort_key):
            status = terminate_check(g, p, cfg.max_steps)
            if status == OPEN:
                survivors.append(p)
            else:
                terminated.append(replace(p, status=status))

        # (2) fork one child pathway per available arc
        children: Dict[FrozenSet[int], Pathway] = {}
        for p in survivors:
            candidate_arcs = [
                a for n in sorted(p.frontier) for a in g.arcs_by_product.get(n, ())
            ]
            if not candidate_arcs:
                # deferred node (model outage): carry the pathway, counting
                # the phase so the step limit still terminates it
                carried = replace(p, steps=p.steps + 1)
                children.setdefault(frozenset(carried.arcs), carried)
                continue
            for arc_id in candidate_arcs:
                child = fork_pathway(g, p, arc_id)
                children.setdefault(frozenset(child.arcs), child)

        # (4) prune open pathways to the beam width, (5) repeat
        pruned = sorted(children.values(), key=Pathway.sort_key)
        open_paths = {frozenset(p.arcs): p for p in pruned[: cfg.n_beams]}

    terminated.sort(key=Pathway.sort_key)
    unique: Dict[FrozenSet[int], Pathway] = {}
    for p in terminated:
        unique.setdefault(frozenset(p.arcs), p)
    return SearchOutcome(list(unique.values()), g)
