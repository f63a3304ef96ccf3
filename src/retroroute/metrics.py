"""Single-step evaluation of a retro model with forward and classifier help.

Four metrics: round-trip accuracy (suggestions whose forward top-1 recovers
the target), coverage (targets with at least one such suggestion), class
diversity (mean distinct superclasses among a target's valid suggestions)
and the Jensen-Shannon divergence of the per-superclass forward-likelihood
distributions, plus the syntactically-invalid rate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import AllEmpty, EmptyEvaluation, ModelError, NotCanonicalizable
from .models import ChemModels, PrecursorSet, ReactionClass, UNRECOGNIZED
from .smiles import Normalizer

logger = logging.getLogger(__name__)

N_SUPERCLASSES = 12
LIKELIHOOD_THRESHOLD = 0.5
DEFAULT_BINS = 50
DEFAULT_EVAL_BEAMS = 10


@dataclass(frozen=True)
class Suggestion:
    precursors: PrecursorSet
    syntactically_valid: bool
    valid: bool
    forward_likelihood: Optional[float] = None
    reaction_class: Optional[ReactionClass] = None
    error: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "precursors": list(self.precursors.molecules),
            "syntactically_valid": self.syntactically_valid,
            "valid": self.valid,
            "forward_likelihood": self.forward_likelihood,
            "reaction_class": self.reaction_class.code if self.reaction_class else None,
            "error": self.error,
        }


@dataclass(frozen=True)
class EvalRecord:
    target: str
    suggestions: Tuple[Suggestion, ...]
    error: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "suggestions": [s.to_json() for s in self.suggestions],
            "error": self.error,
        }


@dataclass(frozen=True)
class ClassLikelihoodDistribution:
    """Histogram of forward likelihoods in (0.5, 1.0] for one superclass."""

    superclass: int
    counts: Tuple[int, ...]
    count: int

    def probabilities(self) -> np.ndarray:
        if self.count == 0:
            raise AllEmpty(f"superclass {self.superclass} has no samples")
        return np.asarray(self.counts, dtype=float) / self.count


@dataclass
class MetricsReport:
    round_trip: float
    coverage: float
    class_diversity: float
    class_diversity_defined: bool
    jsd: Optional[float]
    inv_jsd: Optional[float]  # None means infinite (identical distributions)
    jsd_defined: bool
    invalid_smiles: float
    n_targets: int
    n_suggestions: int
    n_excluded_targets: int
    n_excluded_suggestions: int
    participating_classes: List[int]
    bins: int
    log_base: str
    histograms: List[ClassLikelihoodDistribution]

    def to_json(self) -> dict:
        return {
            "round_trip_pct": self.round_trip,
            "coverage_pct": self.coverage,
            "class_diversity": self.class_diversity,
            "class_diversity_defined": self.class_diversity_defined,
            "jsd": self.jsd,
            "inv_jsd": self.inv_jsd,
            "jsd_defined": self.jsd_defined,
            "invalid_smiles_pct": self.invalid_smiles,
            "n_targets": self.n_targets,
            "n_suggestions": self.n_suggestions,
            "n_excluded_targets": self.n_excluded_targets,
            "n_excluded_suggestions": self.n_excluded_suggestions,
            "participating_classes": self.participating_classes,
            "bins": self.bins,
            "log_base": self.log_base,
            "histograms": [
                {
                    "superclass": h.superclass,
                    "count": h.count,
                    "counts": list(h.counts),
                }
                for h in self.histograms
            ],
        }


# --- record generation ------------------------------------------------------

def evaluate_target(
    target: str,
    models: ChemModels,
    normalizer: Normalizer,
    beams: int,
) -> EvalRecord:
    try:
        target_norm = normalizer.normalize(target)
    except NotCanonicalizable as exc:
        return EvalRecord(target=target, suggestions=(), error=str(exc))
    try:
        predictions = models.retro_predict(target_norm, beams)
    except ModelError as exc:
        return EvalRecord(target=target_norm, suggestions=(), error=str(exc))

    suggestions: List[Suggestion] = []
    for pred in predictions:
        molecules = []
        syntactically_valid = True
        for raw in pred.precursors.molecules:
            try:
                molecules.append(normalizer.normalize(raw))
            except NotCanonicalizable:
                syntactically_valid = False
                break
        if not syntactically_valid:
            suggestions.append(
                Suggestion(pred.precursors, syntactically_valid=False, valid=False)
            )
            continue
        candidate = PrecursorSet(tuple(molecules), pred.precursors.reagents)
        try:
            forward = models.forward_predict(candidate, 2)
        except ModelError as exc:
            suggestions.append(
                Suggestion(candidate, True, False, error=str(exc))
            )
            continue
        top1 = forward[0] if forward else None
        valid = top1 is not None and top1.product == target_norm
        likelihood = top1.likelihood if top1 is not None else 0.0
        try:
            cls = models.classify(f"{candidate.joined()}>>{target_norm}")
        except ModelError:
            cls = UNRECOGNIZED
        suggestions.append(
            Suggestion(
                candidate,
                syntactically_valid=True,
                valid=valid,
                forward_likelihood=likelihood,
                reaction_class=cls,
            )
        )
    return EvalRecord(target=target_norm, suggestions=tuple(suggestions))


def _counted(records: Sequence[EvalRecord]) -> List[Suggestion]:
    """Suggestions that enter metric denominators (model errors excluded)."""
    return [
        s
        for r in records
        if r.error is None
        for s in r.suggestions
        if s.error is None
    ]


# --- the four metrics + invalid rate ---------------------------------------

def round_trip(records: Sequence[EvalRecord]) -> float:
    counted = _counted(records)
    if not counted:
        raise EmptyEvaluation("no suggestions to evaluate")
    return 100.0 * sum(1 for s in counted if s.valid) / len(counted)


def coverage(records: Sequence[EvalRecord]) -> float:
    targets = [r for r in records if r.error is None]
    if not targets:
        raise EmptyEvaluation("no targets to evaluate")
    covered = sum(
        1 for r in targets if any(s.valid for s in r.suggestions if s.error is None)
    )
    return 100.0 * covered / len(targets)


def class_diversity(records: Sequence[EvalRecord]) -> Tuple[float, bool]:
    """Mean distinct superclasses among valid suggestions per covered target.

    Returns (value, defined); (0.0, False) when no target has a valid
    suggestion.
    """
    per_target = []
    for r in records:
        if r.error is not None:
            continue
        classes = {
            s.reaction_class.superclass
            for s in r.suggestions
            if s.error is None and s.valid and s.reaction_class is not None
        }
        if classes:
            per_target.append(len(classes))
    if not per_target:
        return 0.0, False
    return sum(per_target) / len(per_target), True


def invalid_rate(records: Sequence[EvalRecord]) -> float:
    counted = _counted(records)
    if not counted:
        raise EmptyEvaluation("no suggestions to evaluate")
    return 100.0 * sum(1 for s in counted if not s.syntactically_valid) / len(counted)


def build_distributions(
    records: Sequence[EvalRecord], bins: int = DEFAULT_BINS
) -> List[ClassLikelihoodDistribution]:
    """Per-superclass histograms of valid-suggestion likelihoods above 0.5."""
    edges = np.linspace(LIKELIHOOD_THRESHOLD, 1.0, bins + 1)
    samples: Dict[int, List[float]] = {i: [] for i in range(N_SUPERCLASSES)}
    for s in _counted(records):
        if (
            s.valid
            and s.forward_likelihood is not None
            and s.forward_likelihood > LIKELIHOOD_THRESHOLD
            and s.reaction_class is not None
        ):
            samples[s.reaction_class.superclass].append(s.forward_likelihood)
    distributions = []
    for superclass in range(N_SUPERCLASSES):
        values = samples[superclass]
        counts, _ = np.histogram(values, bins=edges)
        distributions.append(
            ClassLikelihoodDistribution(
                superclass=superclass,
                counts=tuple(int(c) for c in counts),
                count=len(values),
            )
        )
    return distributions


def _entropy(p: np.ndarray, base: Optional[float]) -> float:
    nonzero = p[p > 0]
    h = float(-(nonzero * np.log(nonzero)).sum())
    if base is not None:
        h /= math.log(base)
    return h


def jsd(
    distributions: Sequence[ClassLikelihoodDistribution],
    include_unrecognized: bool = False,
    base: Optional[float] = None,
) -> Tuple[float, float, List[int]]:
    """Divergence of the class likelihood distributions and its inverse.

    Empty classes are excluded and the uniform weight renormalized over the
    k participating classes; the superclass reserved for unrecognized
    reactions participates only on request. Returns
    (jsd, 1/jsd, participating superclasses); 1/jsd is ``inf`` when the
    distributions are identical.
    """
    participating = [
        d
        for d in distributions
        if d.count > 0 and (include_unrecognized or d.superclass != 0)
    ]
    if not participating:
        raise AllEmpty("every class likelihood distribution is empty")
    probs = [d.probabilities() for d in participating]
    mixture = np.mean(probs, axis=0)
    value = _entropy(mixture, base) - sum(_entropy(p, base) for p in probs) / len(probs)
    value = max(value, 0.0)
    inverse = math.inf if value == 0.0 else 1.0 / value
    return value, inverse, [d.superclass for d in participating]


# --- orchestration ----------------------------------------------------------

def evaluate(
    targets: Sequence[str],
    models: ChemModels,
    normalizer: Normalizer,
    beams: int = DEFAULT_EVAL_BEAMS,
    bins: int = DEFAULT_BINS,
    log_base: Optional[float] = None,
    include_unrecognized: bool = False,
) -> Tuple[MetricsReport, List[EvalRecord]]:
    """Run the full single-step evaluation over a target list."""
    records = [evaluate_target(t, models, normalizer, beams) for t in targets]
    counted = _counted(records)
    if not counted:
        raise EmptyEvaluation("no usable suggestions were generated")
    cd, cd_defined = class_diversity(records)
    histograms = build_distributions(records, bins)
    try:
        jsd_value, inv, participating = jsd(
            histograms, include_unrecognized=include_unrecognized, base=log_base
        )
        jsd_defined = True
    except AllEmpty:
        jsd_value, inv, participating = None, None, []
        jsd_defined = False
    n_excluded_targets = sum(1 for r in records if r.error is not None)
    n_excluded_suggestions = sum(
        1
        for r in records
        if r.error is None
        for s in r.suggestions
        if s.error is not None
    )
    report = MetricsReport(
        round_trip=round_trip(records),
        coverage=coverage(records),
        class_diversity=cd,
        class_diversity_defined=cd_defined,
        jsd=jsd_value,
        inv_jsd=None if inv is None or math.isinf(inv) else inv,
        jsd_defined=jsd_defined,
        invalid_smiles=invalid_rate(records),
        n_targets=len(records) - n_excluded_targets,
        n_suggestions=len(counted),
        n_excluded_targets=n_excluded_targets,
        n_excluded_suggestions=n_excluded_suggestions,
        participating_classes=participating or [],
        bins=bins,
        log_base="e" if log_base is None else str(log_base),
        histograms=histograms,
    )
    return report, records
