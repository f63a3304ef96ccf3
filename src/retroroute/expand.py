"""What a molecule expands to: retro predictions to cluster representatives.

Pipeline per molecule: predict candidate precursor sets, normalize and
deduplicate them, drop self-referential candidates, filter by forward-model
viability and selectivity, and cluster equivalent disconnections. Nothing
here reads a graph; `search.expand_node` attaches one arc per cluster
representative to the target's graph.

Each `models` object keeps the expansions made with it, which another
target's graph then only attaches (see `expansion`).
"""

from __future__ import annotations

import logging
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import ModelError, NotCanonicalizable
from .models import UNRECOGNIZED, ChemModels, PrecursorSet, ReactionClass
from .smiles import Normalizer

logger = logging.getLogger(__name__)

AUTO_ACCEPT_LIKELIHOOD = 0.6
SELECTIVITY_GAP = 0.2

# expansions a models object keeps (about 2.9 kB each, 12 MB in all); the oldest goes first
STORED_EXPANSIONS = 1 << 12

# models object (held weakly) -> {(config, normalizer, molecule): expansion}, oldest first
_stores: "weakref.WeakKeyDictionary[ChemModels, OrderedDict]" = weakref.WeakKeyDictionary()
_stores_lock = threading.Lock()


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
    classified: bool = True  # False: the classifier failed, so a cluster of its own


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
    A candidate the classifier fails on is an unclassified cluster of its own.
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
            key = (None, singleton)
            singleton += 1
        keyed.setdefault(key, []).append((verdict, cls))
    clusters = []
    for (superclass, _), members in keyed.items():
        rep, rep_cls = min(
            members, key=lambda item: (-item[0].likelihood, item[0].candidate.joined())
        )
        clusters.append(
            Cluster(
                members=tuple(v for v, _ in members),
                representative=rep,
                reaction_class=rep_cls,
                classified=superclass is not None,
            )
        )
    return clusters


def record(target: str, candidate: PrecursorSet, outcome: str, likelihood=None, cluster=None):
    """The trace record of what became of `candidate` when `target` was expanded. Its
    values are immutable, so a copy of the dict shares nothing that can change."""
    return {
        "target": target,
        "precursors": tuple(candidate.molecules),
        "reagents": tuple(sorted(candidate.reagents)),
        "outcome": outcome,
        "likelihood": likelihood,
        "cluster": cluster,
    }


def expansion(smiles: str, cfg: ExpansionConfig, models: ChemModels, normalizer: Normalizer):
    """What `smiles` expands to, up to attach; a failed retro call raises `ModelError`.

    An expansion is its trace records (see `record`) and its cluster
    representatives, best first, as (candidate, likelihood, reaction class code).
    It reads no graph, so an expansion that met no model failure is stored
    with `models` and given to the next caller that asks for the same
    molecule; a caller copies the records before it hands them on.
    """
    key = (cfg, normalizer, smiles)
    with _stores_lock:
        store = _stores.setdefault(models, OrderedDict())
        stored = store.get(key)
    if stored is not None:
        return stored
    records: List[dict] = []
    candidates: List[PrecursorSet] = []
    seen_keys = set()
    for suggested in models.retro_predict(smiles, cfg.retro_beams):
        try:
            candidate = suggested.normalized(normalizer)
        except NotCanonicalizable:
            records.append(record(smiles, suggested, "not_canonicalizable"))
            continue
        if smiles in candidate.molecules:
            records.append(record(smiles, candidate, "self_precursor"))
            continue
        if candidate.key() in seen_keys:
            records.append(record(smiles, candidate, "duplicate"))
            continue
        seen_keys.add(candidate.key())
        candidates.append(candidate)

    verdicts = [filter_candidate(smiles, c, cfg, models, normalizer) for c in candidates]
    accepted = [v for v in verdicts if v.accepted]
    clusters = cluster_candidates(accepted, models.classify, smiles)
    cluster_of = {
        member.candidate.key(): idx
        for idx, cluster in enumerate(clusters)
        for member in cluster.members
    }
    for v in verdicts:
        cluster = cluster_of.get(v.candidate.key())
        records.append(record(smiles, v.candidate, v.outcome, v.likelihood, cluster))
    clusters.sort(key=lambda c: (-c.representative.likelihood, c.representative.candidate.joined()))
    stored = (
        tuple(records),
        tuple((c.representative.candidate, c.representative.likelihood, c.reaction_class.code)
              for c in clusters),
    )
    if all(v.outcome != "model_error" for v in verdicts) and all(c.classified for c in clusters):
        with _stores_lock:
            store[key] = stored
            while len(store) > STORED_EXPANSIONS:
                store.popitem(last=False)
    return stored
