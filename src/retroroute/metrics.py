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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import AllEmpty, EmptyEvaluation, ModelError, NotCanonicalizable
from .models import ChemModels, PrecursorSet, ReactionClass, UNRECOGNIZED
from .smiles import Normalizer

logger = logging.getLogger(__name__)

N_SUPERCLASSES = 12
LIKELIHOOD_THRESHOLD = 0.5
DEFAULT_BINS = 50
DEFAULT_EVAL_BEAMS = 10


class Suggestion(NamedTuple):  # tuples, as immutable as frozen dataclasses and quicker to build
    precursors: PrecursorSet
    syntactically_valid: bool
    valid: bool
    forward_likelihood: Optional[float] = None
    reaction_class: Optional[ReactionClass] = None
    error: Optional[str] = None

    def to_json(self) -> dict:
        return {
            **self._asdict(),
            "precursors": list(self.precursors.molecules),
            "reaction_class": self.reaction_class.code if self.reaction_class else None,
        }


class EvalRecord(NamedTuple):
    target: str
    suggestions: Tuple[Suggestion, ...]
    error: Optional[str] = None

    def to_json(self) -> dict:
        return {**self._asdict(), "suggestions": [s.to_json() for s in self.suggestions]}


@dataclass(frozen=True)
class ClassLikelihoodDistribution:
    """Histogram of forward likelihoods in (0.5, 1.0] for one superclass."""

    superclass: int
    counts: Tuple[int, ...]
    count: int


@dataclass
class MetricsReport:
    """The report `eval` writes; its fields are the JSON keys."""

    round_trip_pct: float
    coverage_pct: float
    class_diversity: float
    class_diversity_defined: bool
    jsd: Optional[float]
    inv_jsd: Optional[float]  # None when infinite (identical distributions) or undefined
    jsd_defined: bool
    invalid_smiles_pct: float
    n_targets: int
    n_suggestions: int
    n_excluded_targets: int
    n_excluded_suggestions: int
    participating_classes: List[int]
    bins: int
    log_base: str
    histograms: List[ClassLikelihoodDistribution]

    def to_json(self) -> dict:
        return {**vars(self), "histograms": [dict(vars(h)) for h in self.histograms]}


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
        suggested = models.retro_predict(target_norm, beams)
    except ModelError as exc:
        return EvalRecord(target=target_norm, suggestions=(), error=str(exc))

    suggestions: List[Suggestion] = []
    for precursors in suggested:
        try:
            candidate = precursors.normalized(normalizer)
        except NotCanonicalizable:
            suggestions.append(Suggestion(precursors, syntactically_valid=False, valid=False))
            continue
        try:
            forward = models.forward_predict(candidate, 2)
        except ModelError as exc:
            suggestions.append(
                Suggestion(candidate, True, False, error=str(exc))
            )
            continue
        top1 = forward[0] if forward else None
        valid = top1 is not None and normalizer.spells(top1.product, target_norm)
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
    """Suggestions that enter metric denominators (model errors excluded); none is an EmptyEvaluation."""
    counted = [s for r in records if r.error is None for s in r.suggestions if s.error is None]
    if not counted:
        raise EmptyEvaluation("no usable suggestions were generated")
    return counted


# --- the four metrics + invalid rate ---------------------------------------

def round_trip(records: Sequence[EvalRecord]) -> float:
    counted = _counted(records)
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
    return 100.0 * sum(1 for s in counted if not s.syntactically_valid) / len(counted)


def histogram_edges(bins: int) -> List[float]:
    """`bins` equal bins over [0.5, 1.0], the edges `np.linspace` would give."""
    step = (1.0 - LIKELIHOOD_THRESHOLD) / bins
    return [i * step + LIKELIHOOD_THRESHOLD for i in range(bins)] + [1.0]


def histogram_counts(values: Sequence[float], edges: Sequence[float]) -> List[int]:
    """Counts per bin as `np.histogram` gives them: the last bin is closed."""
    counts = [0] * (len(edges) - 1)
    for v in values:
        if edges[0] <= v <= edges[-1]:
            counts[min(bisect_right(edges, v), len(counts)) - 1] += 1
    return counts


def build_distributions(
    records: Sequence[EvalRecord], bins: int = DEFAULT_BINS
) -> List[ClassLikelihoodDistribution]:
    """Per-superclass histograms of valid-suggestion likelihoods above 0.5."""
    edges = histogram_edges(bins)
    samples: Dict[int, List[float]] = {i: [] for i in range(N_SUPERCLASSES)}
    for s in _counted(records):
        if (
            s.valid
            and s.forward_likelihood is not None
            and s.forward_likelihood > LIKELIHOOD_THRESHOLD
            and s.reaction_class is not None
        ):
            samples[s.reaction_class.superclass].append(s.forward_likelihood)
    return [
        ClassLikelihoodDistribution(c, tuple(histogram_counts(values, edges)), len(values))
        for c, values in samples.items()
    ]


def _entropy(p: Sequence[float], base: Optional[float]) -> float:
    h = -math.fsum(x * math.log(x) for x in p if x > 0)
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
    # only nonzero probabilities: a zero changes no sum and no entropy
    columns: Dict[int, List[float]] = {}  # bin -> its probabilities, in class order
    entropies = []
    for d in participating:
        p = [c / d.count for c in filter(None, d.counts)]
        entropies.append(_entropy(p, base))
        for j, x in zip(compress(count(), d.counts), p):
            columns.setdefault(j, []).append(x)
    k = len(participating)
    value = _entropy([sum(c) / k for c in columns.values()], base) - sum(entropies) / k
    value = value if value > 0.0 else 0.0  # rounding may leave it below zero, or at -0.0
    inverse = math.inf if value == 0.0 else 1.0 / value
    return value, inverse, [d.superclass for d in participating]


# --- orchestration ----------------------------------------------------------

def check_settings(beams: int, bins: int, log_base: Optional[float]) -> None:
    """A ValueError unless beams and bins are at least 1 and log_base is None or finite, above 0 and not 1."""
    if log_base is not None and not (0 < log_base < math.inf and log_base != 1):
        raise ValueError(f"log base must be finite, above 0 and not 1, got {log_base:g}")
    if beams < 1 or bins < 1:
        raise ValueError(f"beams and bins must be at least 1, got {beams} and {bins}")


def evaluate(
    targets: Sequence[str],
    models: ChemModels,
    normalizer: Normalizer,
    beams: int = DEFAULT_EVAL_BEAMS,
    bins: int = DEFAULT_BINS,
    log_base: Optional[float] = None,
    include_unrecognized: bool = False,
) -> Tuple[MetricsReport, List[EvalRecord]]:
    """Run the full single-step evaluation over a target list; bad settings (`check_settings`) are
    a ValueError before the first model call."""
    check_settings(beams, bins, log_base)
    records = [evaluate_target(t, models, normalizer, beams) for t in targets]
    counted = _counted(records)
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
    n_excluded_suggestions = sum(len(r.suggestions) for r in records if r.error is None) - len(counted)
    report = MetricsReport(
        round_trip_pct=round_trip(records),
        coverage_pct=coverage(records),
        class_diversity=cd,
        class_diversity_defined=cd_defined,
        jsd=jsd_value,
        inv_jsd=None if inv is None or math.isinf(inv) else inv,
        jsd_defined=jsd_defined,
        invalid_smiles_pct=invalid_rate(records),
        n_targets=len(records) - n_excluded_targets,
        n_suggestions=len(counted),
        n_excluded_targets=n_excluded_targets,
        n_excluded_suggestions=n_excluded_suggestions,
        participating_classes=participating,
        bins=bins,
        log_base="e" if log_base is None else str(log_base),
        histograms=histograms,
    )
    return report, records
