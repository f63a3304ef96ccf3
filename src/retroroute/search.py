"""Arc scoring, graph growth and the pathway beam search over the hypergraph.

An arc's score combines the forward likelihood with the simplicity of the
molecules involved; a pathway's score is the product of its arc scores.
The search repeatedly expands frontier nodes (attaching one arc per cluster
representative of the node's `expand.expansion`), forks one child pathway
per available arc, prunes the open set to the beam width and collects
terminated pathways until none remain open.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CycleRejected, ModelError, ScorerUnavailable
from .expand import ExpansionConfig, expansion, record
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
# complexities a HeavyTokenScorer remembers, least recently used out first
STORED_SCORES = 1 << 14

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


def _heavy_token_sc(smiles: str) -> float:
    try:
        n = atom_count(smiles)
    except Exception as exc:
        raise ScorerUnavailable(f"cannot score {smiles!r}: {exc}") from exc
    return min(SC_MAX, max(SC_MIN, 1.0 + 4.0 * n / SATURATING_ATOMS))


class HeavyTokenScorer(ComplexityScorer):
    """Deterministic surrogate: complexity grows with the atom-token count.

    Preserves the pull toward simpler precursors without a learned model;
    a trained scorer can be plugged in through the same interface. Each
    instance remembers its last `STORED_SCORES` answers (not refusals).
    """

    def __init__(self) -> None:
        # the memo wraps a module-level function, so it holds no reference to the scorer
        self.sc = lru_cache(STORED_SCORES)(_heavy_token_sc)


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
    numerator = likelihood
    for s in precursor_simplicities:
        numerator *= s
    return numerator / max(product_simplicity, PRODUCT_SIMPLICITY_FLOOR)


# --- graph growth -----------------------------------------------------------


def _molecule(g: HyperGraph, smiles: str, scorer: ComplexityScorer, stock) -> int:
    """The node for `smiles`, made on first sight; a failed scorer makes it unexpandable."""
    existing = g.index.get(smiles)
    if existing is not None:
        return existing
    try:
        s, expandable = simplicity(smiles, scorer), True
    except ScorerUnavailable as exc:
        logger.warning("simplicity scorer failed for %r: %s", smiles, exc)
        s, expandable = 0.0, False
    return g.get_or_insert_node(smiles, stock.contains(smiles), s, expandable)


def expand_node(
    g: HyperGraph,
    node_id: int,
    cfg: ExpansionConfig,
    models: ChemModels,
    normalizer: Normalizer,
    scorer: ComplexityScorer,
    stock,
    trace: Optional[List[dict]] = None,
) -> List[int]:
    """Expand one node; returns attached arc ids in deterministic order.

    A model outage defers the node: it stays unexpanded, to be retried by
    the driver, until its `MAX_DEFERRALS`-th outage makes it unexpandable.
    Otherwise copies of the expansion's trace records go to `trace` and one
    arc per cluster representative is attached; an arc that would close a
    cycle is recorded as `cycle_rejected` instead.
    """
    node = g.nodes[node_id]
    if node.expanded or not node.expandable:
        raise ValueError(f"node {node.smiles!r} is not pending expansion")
    try:
        records, representatives = expansion(node.smiles, cfg, models, normalizer)
    except ModelError as exc:
        logger.warning("retro model unavailable for %r: %s", node.smiles, exc)
        node.deferrals += 1
        node.expandable = node.deferrals < MAX_DEFERRALS
        return []
    if trace is not None:
        trace.extend(map(dict, records))

    attached, nodes = [], g.nodes
    for candidate, likelihood, class_code in representatives:
        molecules, reagents = candidate  # molecules are distinct, so an id names one
        precursor_ids = [_molecule(g, m, scorer, stock) for m in molecules]
        reagent_ids = reagents and {i for m, i in zip(molecules, precursor_ids) if m in reagents}
        score = arc_score(likelihood, [nodes[i].simplicity for i in precursor_ids
                                       if i not in reagent_ids], node.simplicity)
        try:
            arc_id = g.attach_arc(node_id, precursor_ids, likelihood, class_code, score,
                                  reagent_ids)
        except CycleRejected:
            node.cycle_rejections += 1
            if trace is not None:
                trace.append(record(node.smiles, candidate, "cycle_rejected", likelihood))
            continue
        attached.append(arc_id)

    node.expanded = True
    return attached


# --- pathways ---------------------------------------------------------------


class Pathway(NamedTuple):
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
    cyclic = False  # a dead node outranks a cyclic one
    for node_id in p.frontier:
        node = g.nodes[node_id]
        if not node.expandable:
            return DEAD
        if node.expanded and not g.arcs_by_product[node_id]:
            if not node.cycle_rejections:
                return DEAD
            cyclic = True
    return CYCLIC if cyclic else OPEN


def fork_pathway(g: HyperGraph, p: Pathway, arc_id: int) -> Pathway:
    """Child pathway with one more arc resolved."""
    arc = g.arcs[arc_id]
    arcs = p.arcs + (arc_id,)
    produced = {g.arcs[a].product for a in arcs}
    nodes, reagents = g.nodes, arc.reagents
    frontier = set(p.frontier)
    frontier.discard(arc.product)
    frontier.update(
        prec for prec in arc.precursors
        if prec not in reagents and prec not in produced and not nodes[prec].in_stock
    )
    return Pathway(arcs, frozenset(frontier), p.cumulative_score * arc.arc_score, p.steps + 1)


def beam_search(
    target: str,
    cfg: SearchConfig,
    models: ChemModels,
    stock,
    normalizer: Normalizer,
    scorer: Optional[ComplexityScorer] = None,
    trace: Optional[List[dict]] = None,
) -> SearchOutcome:
    """Plan routes for a target; returns all terminated pathways, best first.

    An empty result is "no route found", not an error; no `scorer` means a fresh HeavyTokenScorer.
    """
    target_norm = normalizer.normalize(target)
    if scorer is None:
        scorer = HeavyTokenScorer()

    g = HyperGraph()
    nodes = g.nodes
    root = _molecule(g, target_norm, scorer, stock)

    root_path = Pathway(
        arcs=(),
        frontier=frozenset() if nodes[root].in_stock else frozenset({root}),
        cumulative_score=1.0,
        steps=0,
    )  # zero-arc score is the multiplicative identity
    terminated: List[Pathway] = []
    open_paths = [root_path]  # best first

    while open_paths:
        # (1) expand every not-yet-expanded node on a live pathway (pathways
        # already at the step limit terminate regardless, so skip theirs)
        pending = sorted(
            {
                n
                for p in open_paths
                if p.steps < cfg.max_steps
                for n in p.frontier
                if not nodes[n].expanded and nodes[n].expandable
            }
        )
        for node_id in pending:
            expand_node(g, node_id, cfg.expansion, models, normalizer, scorer, stock, trace)

        # terminate-check now that the expansion state is known
        survivors: List[Pathway] = []
        for p in open_paths:
            status = terminate_check(g, p, cfg.max_steps)
            if status == OPEN:
                survivors.append(p)
            else:
                terminated.append(p._replace(status=status))

        # (2) fork one child pathway per available arc
        children: Dict[FrozenSet[int], Pathway] = {}
        for p in survivors:
            candidate_arcs = [a for n in sorted(p.frontier) for a in g.arcs_by_product[n]]
            if not candidate_arcs:
                # deferred node (model outage): carry the pathway, counting
                # the phase so the step limit still terminates it
                carried = p._replace(steps=p.steps + 1)
                children.setdefault(frozenset(carried.arcs), carried)
                continue
            for arc_id in candidate_arcs:
                child = fork_pathway(g, p, arc_id)
                children.setdefault(frozenset(child.arcs), child)

        # (4) prune open pathways to the beam width, (5) repeat
        open_paths = sorted(children.values(), key=Pathway.sort_key)[: cfg.n_beams]

    terminated.sort(key=Pathway.sort_key)
    unique: Dict[FrozenSet[int], Pathway] = {}
    for p in terminated:
        unique.setdefault(frozenset(p.arcs), p)
    return SearchOutcome(list(unique.values()), g)
