"""One node-expansion step: retro predictions to attached hyper-arcs.

Pipeline per node: predict candidate precursor sets, normalize and
deduplicate them, drop self-referential candidates, filter by forward-model
viability and selectivity, cluster equivalent disconnections and attach one
arc per cluster representative.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import CycleRejected, ModelError, NotCanonicalizable, ScorerUnavailable
from .graph import HyperGraph
from .models import (
    ChemModels,
    PrecursorSet,
    ReactionClass,
    UNRECOGNIZED,
)
from .smiles import Normalizer

logger = logging.getLogger(__name__)

AUTO_ACCEPT_LIKELIHOOD = 0.6
SELECTIVITY_GAP = 0.2


@dataclass(frozen=True)
class ExpansionConfig:
    retro_beams: int = 15
    auto_accept_likelihood: float = AUTO_ACCEPT_LIKELIHOOD
    selectivity_gap: float = SELECTIVITY_GAP
    forward_topk: int = 3

    def __post_init__(self):
        if not 0 < self.selectivity_gap < self.auto_accept_likelihood <= 1:
            raise ValueError(
                "need 0 < selectivity_gap < auto_accept_likelihood <= 1, got "
                f"{self.selectivity_gap} / {self.auto_accept_likelihood}"
            )
        if self.retro_beams < 1:
            raise ValueError("retro_beams must be >= 1")
        if self.forward_topk < 2:
            raise ValueError("forward_topk must be >= 2 (selectivity needs top-2)")


@dataclass(frozen=True)
class FilterVerdict:
    candidate: PrecursorSet
    outcome: str  # "auto" | "selective" | "not_top1" | "insufficient_gap" | "model_error"
    likelihood: float

    @property
    def accepted(self) -> bool:
        return self.outcome in ("auto", "selective")


@dataclass(frozen=True)
class Cluster:
    members: Tuple[FilterVerdict, ...]
    representative: FilterVerdict
    reaction_class: ReactionClass


def filter_candidate(
    n_smiles: str,
    candidate: PrecursorSet,
    cfg: ExpansionConfig,
    models: ChemModels,
    normalizer: Normalizer,
) -> FilterVerdict:
    """Viability/selectivity filter for one normalized candidate.

    Auto-accept when the reaction to the target scores above the likelihood
    threshold; otherwise accept only if the target is the top-1 forward
    product and leads the runner-up by strictly more than the gap.
    """
    try:
        likelihood = models.score_reaction(candidate, n_smiles)
        if likelihood > cfg.auto_accept_likelihood:
            return FilterVerdict(candidate, "auto", likelihood)
        predictions = models.forward_predict(candidate, cfg.forward_topk)
    except ModelError as exc:
        logger.warning("model failure while filtering %r: %s", candidate.joined(), exc)
        return FilterVerdict(candidate, "model_error", 0.0)
    if not predictions:
        return FilterVerdict(candidate, "not_top1", 0.0)
    top1 = predictions[0]
    runner_up = predictions[1].likelihood if len(predictions) > 1 else 0.0
    if not normalizer.spells(top1.product, n_smiles):
        return FilterVerdict(candidate, "not_top1", top1.likelihood)
    if top1.likelihood > cfg.selectivity_gap + runner_up:
        return FilterVerdict(candidate, "selective", top1.likelihood)
    return FilterVerdict(candidate, "insufficient_gap", top1.likelihood)


def cluster_candidates(
    accepted: Sequence[FilterVerdict],
    classify: Callable[[str], ReactionClass],
    product: str,
) -> List[Cluster]:
    """Group accepted candidates that realize the same disconnection.

    Cluster key: reaction superclass plus the set of reactant molecules
    (reagents and product-side duplicates stripped), which merges candidates
    differing only in suggested reaction conditions. The highest-likelihood
    member represents the cluster; ties break on the smaller joined string.
    """
    keyed: Dict[object, List[Tuple[FilterVerdict, ReactionClass]]] = {}
    singleton = 0
    for verdict in accepted:
        rxn = f"{verdict.candidate.joined()}>>{product}"
        try:
            cls = classify(rxn)
            key: object = (
                cls.superclass,
                frozenset(
                    m
                    for m in verdict.candidate.molecules
                    if m != product and m not in verdict.candidate.reagents
                ),
            )
        except ModelError as exc:
            logger.warning("classifier failure for %r: %s", rxn, exc)
            cls = UNRECOGNIZED
            key = ("singleton", singleton)
            singleton += 1
        keyed.setdefault(key, []).append((verdict, cls))
    clusters = []
    for members in keyed.values():
        rep, rep_cls = min(
            members, key=lambda item: (-item[0].likelihood, item[0].candidate.joined())
        )
        clusters.append(
            Cluster(
                members=tuple(v for v, _ in members),
                representative=rep,
                reaction_class=rep_cls,
            )
        )
    return clusters


def node_simplicity(smiles: str, scorer) -> Tuple[float, bool]:
    """(simplicity, ok); a failed scorer marks the molecule unexpandable."""
    from .search import simplicity

    try:
        return simplicity(smiles, scorer), True
    except ScorerUnavailable as exc:
        logger.warning("simplicity scorer failed for %r: %s", smiles, exc)
        return 0.0, False


def expand_node(
    g: HyperGraph,
    node_id: int,
    cfg: ExpansionConfig,
    models: ChemModels,
    normalizer: Normalizer,
    scorer,
    stock=None,
    trace: Optional[List[dict]] = None,
) -> List[int]:
    """Expand one node; returns attached arc ids in deterministic order.

    A model outage defers the node (it stays unexpanded and is retried by
    the driver); candidates that fail canonicalization are discarded.
    """
    from .search import arc_score

    node = g.node(node_id)
    if node.expanded or not node.expandable:
        raise ValueError(f"node {node.smiles!r} is not pending expansion")

    try:
        predictions = models.retro_predict(node.smiles, cfg.retro_beams)
    except ModelError as exc:
        logger.warning("retro model unavailable for %r: %s", node.smiles, exc)
        node.deferrals += 1
        return []

    candidates: List[PrecursorSet] = []
    seen_keys = set()
    for pred in predictions:
        try:
            candidate = pred.precursors.normalized(normalizer)
        except NotCanonicalizable:
            _trace(trace, node.smiles, pred.precursors, "not_canonicalizable", None)
            continue
        if node.smiles in candidate.molecules:
            _trace(trace, node.smiles, candidate, "self_precursor", None)
            continue
        if candidate.key() in seen_keys:
            _trace(trace, node.smiles, candidate, "duplicate", None)
            continue
        seen_keys.add(candidate.key())
        candidates.append(candidate)

    verdicts = [filter_candidate(node.smiles, c, cfg, models, normalizer) for c in candidates]
    accepted = [v for v in verdicts if v.accepted]
    clusters = cluster_candidates(accepted, models.classify, node.smiles)
    cluster_of = {
        member.candidate.key(): idx
        for idx, cluster in enumerate(clusters)
        for member in cluster.members
    }
    for verdict in verdicts:
        _trace(
            trace,
            node.smiles,
            verdict.candidate,
            verdict.outcome,
            verdict.likelihood,
            cluster_of.get(verdict.candidate.key()),
        )
    representatives = sorted(
        clusters,
        key=lambda c: (-c.representative.likelihood, c.representative.candidate.joined()),
    )

    attached: List[int] = []
    for cluster in representatives:
        rep = cluster.representative
        precursor_ids = []
        reagent_ids = set()
        for m in rep.candidate.molecules:
            existing = g.index.get(m)
            if existing is None:
                s, ok = node_simplicity(m, scorer)
                existing = g.get_or_insert_node(
                    m,
                    in_stock=bool(stock is not None and stock.contains(m)),
                    simplicity=s,
                    expandable=ok,
                )
            precursor_ids.append(existing)
            if m in rep.candidate.reagents:
                reagent_ids.add(existing)
        reactant_simplicities = [
            g.node(pid).simplicity for pid in precursor_ids if pid not in reagent_ids
        ]
        score = arc_score(rep.likelihood, reactant_simplicities, node.simplicity)
        try:
            arc_id = g.attach_arc(
                product=node_id,
                precursors=precursor_ids,
                reagents=reagent_ids,
                forward_likelihood=rep.likelihood,
                reaction_class=cluster.reaction_class,
                arc_score=score,
            )
        except CycleRejected:
            node.cycle_rejections += 1
            _trace(trace, node.smiles, rep.candidate, "cycle_rejected", rep.likelihood)
            continue
        attached.append(arc_id)

    node.expanded = True
    return attached


def _trace(
    trace: Optional[List[dict]],
    target: str,
    candidate: PrecursorSet,
    outcome: str,
    likelihood: Optional[float],
    cluster: Optional[int] = None,
) -> None:
    if trace is None:
        return
    trace.append(
        {
            "target": target,
            "precursors": list(candidate.molecules),
            "reagents": sorted(candidate.reagents),
            "outcome": outcome,
            "likelihood": likelihood,
            "cluster": cluster,
        }
    )
