"""Deterministic toy chemistry backing all three model roles.

A template rewrites a set of reactant strings into one product string and
carries a positive weight plus a reaction class. Forward likelihood of a
product is the weight of the templates that give it over the weight of all
templates applicable to the given precursors, which makes every threshold
in the expansion filter controllable from a fixture file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigError, MalformedModelResponse, MalformedReaction, NotCanonicalizable, expect, read_json
from .models import ChemModels, ForwardPrediction, PrecursorSet, ReactionClass, UNRECOGNIZED
from .smiles import ToyNormalizer, split_reaction


@dataclass(frozen=True, slots=True)
class Template:
    reactants: Tuple[str, ...]
    product: str
    weight: float
    reaction_class: ReactionClass
    reagents: Tuple[str, ...] = ()


def parse_templates(entries: Sequence, source: str) -> List[Template]:
    """Templates, molecules in normal form, from a template file's entries {lhs, rhs, weight,
    class[, label, reagents]}; a bad entry is a ConfigError naming `source` and its index."""
    norm = ToyNormalizer().normalize
    templates = []
    for i, entry in enumerate(entries):
        try:
            weight = float(expect(entry["weight"], float, "weight"))
            if not 0 < weight < math.inf:
                raise ConfigError(f"weight must be positive and finite: {weight}")
            templates.append(Template(
                tuple(map(norm, expect(entry["lhs"], [str], "lhs"))),
                norm(expect(entry["rhs"], str, "rhs")),
                weight,
                ReactionClass.parse(entry["class"], entry.get("label", "")),
                tuple(map(norm, expect(entry.get("reagents", ()), [str], "reagents"))),
            ))
        except (ArithmeticError, KeyError, TypeError, ValueError, ConfigError,
                NotCanonicalizable) as exc:
            raise ConfigError(f"{source}: template #{i}: {exc}") from exc
    return templates


def load_templates(path: str | Path) -> List[Template]:
    """Read a JSON template file (see `parse_templates`)."""
    return parse_templates(read_json(path, list), str(path))


class ToyOracle(ChemModels):
    """All three model roles served consistently from one template set in normal form."""

    def __init__(self, templates: Sequence[Template]):
        self.normalizer = ToyNormalizer()
        self.templates = list(templates)
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
        total = sum(t.weight for t in applicable)
        by_product: Dict[str, float] = {}
        for t in applicable:
            by_product[t.product] = by_product.get(t.product, 0.0) + t.weight
        # each product's summed weight divided once: a sum of quotients can round above 1
        return sorted(((p, w / total) for p, w in by_product.items()),
                      key=lambda item: (-item[1], item[0]))

    def forward_predict(
        self, precursors: PrecursorSet, topk: int
    ) -> List[ForwardPrediction]:
        return [ForwardPrediction(p, l) for p, l in self._outcomes(precursors)[:topk]]

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

    def retro_predict(self, target: str, beams: int) -> List[PrecursorSet]:
        """Each template's precursors for `target`, by the forward score of its reaction."""
        target = self.normalizer.normalize(target)
        suggestions = []
        for i in self._by_product.get(target, ()):
            t = self.templates[i]
            candidate = PrecursorSet(t.reactants + t.reagents, frozenset(t.reagents))
            suggestions.append((self.score_reaction(candidate, target), candidate))
        suggestions.sort(key=lambda item: (-item[0], item[1].key()))
        return [candidate for _, candidate in suggestions[:beams]]

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
