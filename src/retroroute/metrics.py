"""Single-step evaluation of a retro model with forward and classifier help.

Four metrics: round-trip accuracy (suggestions whose forward top-1 recovers
the target), coverage (targets with at least one such suggestion), class
diversity (mean distinct superclasses among a target's valid suggestions)
and the Jensen-Shannon divergence of the per-superclass forward-likelihood
distributions, plus the syntactically-invalid rate. `tally` builds the report
in one walk over the records; it is the one way to get it from records.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import AllEmpty, EmptyEvaluation, ModelError, NotCanonicalizable
from .models import ChemModels, PrecursorSet, ReactionClass, UNRECOGNIZED
from .smiles import Normalizer

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


class ClassLikelihoodDistribution(NamedTuple):
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
        return {**vars(self), "histograms": [h._asdict() for h in self.histograms]}


# --- record generation ------------------------------------------------------

def evaluate_target(target: str, models: ChemModels, normalizer: Normalizer, beams: int) -> EvalRecord:
    try:
        target_norm = normalizer.normalize(target)
    except NotCanonicalizable as exc:
        return EvalRecord(target, (), str(exc))
    try:
        suggested = models.retro_predict(target_norm, beams)
    except ModelError as exc:
        return EvalRecord(target_norm, (), str(exc))

    suggestions: List[Suggestion] = []
    for precursors in suggested:
        try:
            candidate = precursors.normalized(normalizer)
        except NotCanonicalizable:
            suggestions.append(Suggestion(precursors, False, False))
            continue
        try:
            forward = models.forward_predict(candidate, 2)
        except ModelError as exc:
            suggestions.append(Suggestion(candidate, True, False, None, None, str(exc)))
            continue
        top1 = forward[0] if forward else None
        valid = top1 is not None and normalizer.spells(top1.product, target_norm)
        likelihood = top1.likelihood if top1 is not None else 0.0
        try:
            cls = models.classify(f"{candidate.joined()}>>{target_norm}")
        except ModelError:
            cls = UNRECOGNIZED
        suggestions.append(Suggestion(candidate, True, valid, likelihood, cls))
    return EvalRecord(target_norm, tuple(suggestions))


# --- the four metrics + invalid rate ---------------------------------------

def tally(records: Sequence[EvalRecord], bins: int = DEFAULT_BINS, log_base: Optional[float] = None,
          include_unrecognized: bool = False) -> MetricsReport:
    """The report of the records, from one walk over them: an errored record excludes its target,
    an errored suggestion enters no denominator, and none counted is an EmptyEvaluation. Each
    valid likelihood above 0.5 is binned once, in its superclass's histogram, and the JSD is that
    of these histograms; when all are empty (`AllEmpty`) it is undefined and no class participates.
    Bad bins or log base are `check_bins`'s ValueError."""
    check_bins(bins, log_base)
    edges = histogram_edges(bins)
    counts = [[0] * bins for _ in range(N_SUPERCLASSES)]  # each superclass's bin counts
    samples = [0] * N_SUPERCLASSES
    counted = valid = invalid = usable = covered = excluded = diversity_sum = diverse_targets = 0
    for r in records:
        if r.error is not None:
            continue
        usable += 1
        any_valid = False
        classes = set()
        for s in r.suggestions:
            if s.error is not None:
                excluded += 1
                continue
            counted += 1
            invalid += not s.syntactically_valid
            if not s.valid:
                continue
            valid += 1
            any_valid = True
            if s.reaction_class is None:
                continue
            c = s.reaction_class.superclass
            classes.add(c)
            v = s.forward_likelihood
            if v is not None and v > LIKELIHOOD_THRESHOLD:
                samples[c] += 1
                if v <= 1.0:  # `np.histogram`'s rule over edges from 0.5: the last bin is closed
                    counts[c][bisect_right(edges, v, 0, bins) - 1] += 1
        covered += any_valid
        if classes:
            diversity_sum += len(classes)
            diverse_targets += 1
    if not counted:
        raise EmptyEvaluation("no usable suggestions were generated")
    histograms = [ClassLikelihoodDistribution(c, tuple(counts[c]), n) for c, n in enumerate(samples)]
    try:
        value, inverse, participating = jsd(histograms, include_unrecognized, log_base)
    except AllEmpty:
        value, inverse, participating = None, math.inf, []
    return MetricsReport(
        round_trip_pct=100.0 * valid / counted,
        coverage_pct=100.0 * covered / usable,
        class_diversity=diversity_sum / diverse_targets if diverse_targets else 0.0,
        class_diversity_defined=diverse_targets > 0,
        jsd=value,
        inv_jsd=None if inverse == math.inf else inverse,
        jsd_defined=value is not None,
        invalid_smiles_pct=100.0 * invalid / counted,
        n_targets=usable,
        n_suggestions=counted,
        n_excluded_targets=len(records) - usable,
        n_excluded_suggestions=excluded,
        participating_classes=participating,
        bins=bins,
        log_base="e" if log_base is None else str(log_base),
        histograms=histograms,
    )


@lru_cache(maxsize=8)
def histogram_edges(bins: int) -> Tuple[float, ...]:
    """`bins` equal bins over [0.5, 1.0], the edges `np.linspace` would give."""
    step = (1.0 - LIKELIHOOD_THRESHOLD) / bins
    return (*(i * step + LIKELIHOOD_THRESHOLD for i in range(bins)), 1.0)


def _entropy(p: Sequence[float], base: Optional[float]) -> float:
    h = -math.fsum(x * math.log(x) for x in p if x > 0)
    if base is not None:
        h /= math.log(base)
    return h


def jsd(distributions: Sequence[ClassLikelihoodDistribution], include_unrecognized: bool = False,
        base: Optional[float] = None) -> Tuple[float, float, List[int]]:
    """Divergence of the class likelihood distributions and its inverse.

    Empty classes are excluded and the uniform weight renormalized over the
    k participating classes; the superclass reserved for unrecognized
    reactions participates only on request. Returns
    (jsd, 1/jsd, participating superclasses); 1/jsd is ``inf`` when the
    distributions are identical.
    """
    participating = [d for d in distributions
                     if d.count > 0 and (include_unrecognized or d.superclass != 0)]
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

def check_bins(bins: int, log_base: Optional[float]) -> None:
    """A ValueError unless bins is at least 1 and log_base is None or finite, above 0 and not 1."""
    if log_base is not None and not (0 < log_base < math.inf and log_base != 1):
        raise ValueError(f"log base must be finite, above 0 and not 1, got {log_base:g}")
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")


def check_settings(beams: int, bins: int, log_base: Optional[float]) -> None:
    """`check_bins`, and a ValueError unless beams is at least 1."""
    check_bins(bins, log_base)
    if beams < 1:
        raise ValueError(f"beams must be at least 1, got {beams}")


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
    return tally(records, bins, log_base, include_unrecognized), records
