"""Deterministic toy chemistry backing all three model roles.

A template rewrites a set of reactant strings into one product string and
carries a positive weight plus a reaction class. Forward likelihood of a
product is the weight of its template normalized over all templates
applicable to the given precursors, which makes every threshold in the
expansion filter controllable from a fixture file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigError, IoError, MalformedModelResponse, MalformedReaction, NotCanonicalizable
from .models import (
    ChemModels,
    ForwardPrediction,
    PrecursorSet,
    ReactionClass,
    RetroPrediction,
    UNRECOGNIZED,
)
from .smiles import ToyNormalizer, split_reaction


@dataclass(frozen=True)
class Template:
    reactants: Tuple[str, ...]
    product: str
    weight: float
    reaction_class: ReactionClass
    reagents: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigError(f"template weight must be positive: {self}")

    @property
    def precursors(self) -> Tuple[str, ...]:
        return self.reactants + self.reagents


def load_templates(path: str | Path) -> List[Template]:
    """Read a JSON template file: list of {lhs, rhs, weight, class[, reagents]}."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a JSON list of templates")
    templates = []
    for i, entry in enumerate(data):
        try:
            templates.append(
                Template(
                    reactants=tuple(entry["lhs"]),
                    product=entry["rhs"],
                    weight=float(entry["weight"]),
                    reaction_class=ReactionClass.parse(
                        entry["class"], entry.get("label", "")
                    ),
                    reagents=tuple(entry.get("reagents", ())),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: template #{i}: {exc}") from exc
    return templates


class ToyOracle(ChemModels):
    """All three model roles served consistently from one template set."""

    def __init__(self, templates: Sequence[Template]):
        self.normalizer = ToyNormalizer()
        self.templates = [self._normalized(t) for t in templates]
        # Candidate indexes, each list in template-file order: lookups must
        # visit templates in that order so that likelihood sums and
        # classification ties come out exactly as in a full scan.
        self._by_product: Dict[str, List[int]] = {}
        self._by_first_reactant: Dict[str, List[int]] = {}
        self._reactantless: List[int] = []
        for i, t in enumerate(self.templates):
            self._by_product.setdefault(t.product, []).append(i)
            if t.reactants:
                self._by_first_reactant.setdefault(t.reactants[0], []).append(i)
            else:
                self._reactantless.append(i)

    def _normalized(self, t: Template) -> Template:
        norm = self.normalizer.normalize
        return Template(
            reactants=tuple(norm(m) for m in t.reactants),
            product=norm(t.product),
            weight=t.weight,
            reaction_class=t.reaction_class,
            reagents=tuple(norm(m) for m in t.reagents),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ToyOracle":
        return cls(load_templates(path))

    # --- forward role -------------------------------------------------------

    def _applicable(self, molecules: Sequence[str]) -> List[Template]:
        pool = set(molecules)
        candidates = list(self._reactantless)
        for m in pool:
            candidates.extend(self._by_first_reactant.get(m, ()))
        templates = self.templates
        return [
            templates[i] for i in sorted(candidates)
            if pool.issuperset(templates[i].reactants)
        ]

    def _outcomes(self, precursors: PrecursorSet) -> List[Tuple[str, float]]:
        applicable = self._applicable(precursors.molecules)
        if not applicable:
            return []
        total = sum(t.weight for t in applicable)
        by_product: Dict[str, float] = {}
        for t in applicable:
            by_product[t.product] = by_product.get(t.product, 0.0) + t.weight / total
        return sorted(by_product.items(), key=lambda item: (-item[1], item[0]))

    def forward_predict(
        self, precursors: PrecursorSet, topk: int
    ) -> List[ForwardPrediction]:
        outcomes = self._outcomes(precursors)
        return [
            ForwardPrediction(product=p, likelihood=l, rank=i + 1)
            for i, (p, l) in enumerate(outcomes[:topk])
        ]

    def score_reaction(self, precursors: PrecursorSet, product: str) -> float:
        try:
            product = self.normalizer.normalize(product)
        except NotCanonicalizable:
            return 0.0
        for p, likelihood in self._outcomes(precursors):
            if p == product:
                return likelihood
        return 0.0

    # --- retro role ---------------------------------------------------------

    def retro_predict(self, target: str, beams: int) -> List[RetroPrediction]:
        target = self.normalizer.normalize(target)
        suggestions = []
        for i in self._by_product.get(target, ()):
            t = self.templates[i]
            candidate = PrecursorSet(
                molecules=t.precursors, reagents=frozenset(t.reagents)
            )
            confidence = self.score_reaction(candidate, target)
            suggestions.append((candidate, confidence))
        suggestions.sort(key=lambda item: (-item[1], item[0].key()))
        return [
            RetroPrediction(precursors=c, model_confidence=conf, rank=i + 1)
            for i, (c, conf) in enumerate(suggestions[:beams])
        ]

    # --- classification role ------------------------------------------------

    def classify(self, rxn: str) -> ReactionClass:
        try:
            lhs, rhs = split_reaction(rxn)
            lhs = [self.normalizer.normalize(m) for m in lhs]
            rhs = [self.normalizer.normalize(m) for m in rhs]
        except (MalformedReaction, NotCanonicalizable) as exc:
            raise MalformedModelResponse(f"cannot classify {rxn!r}: {exc}") from exc
        pool = set(lhs)
        candidates = sorted(i for p in set(rhs) for i in self._by_product.get(p, ()))
        best: Optional[Template] = None
        for i in candidates:
            t = self.templates[i]
            if pool.issuperset(t.reactants):
                if best is None or t.weight > best.weight:
                    best = t
        return best.reaction_class if best is not None else UNRECOGNIZED
