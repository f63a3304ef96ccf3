"""Deterministic toy chemistry backing all three model roles.

A template rewrites a set of reactant strings into one product string and
carries a positive weight plus a reaction class. Forward likelihood of a
product is the weight of the templates that give it over the weight of all
templates applicable to the given precursors, which makes every threshold
in the expansion filter controllable from a fixture file.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, partial
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConfigError, MalformedModelResponse, MalformedReaction, NotCanonicalizable, expect, read_json
from .models import ChemModels, ForwardPrediction, PrecursorSet, ReactionClass, UNRECOGNIZED
from .smiles import ToyNormalizer, split_reaction

# forward tables an oracle keeps, least recently used out first: tables, not bytes (~720 B on the bench chemistry)
STORED_TABLES = 1 << 12


class Template(NamedTuple):  # a tuple is as immutable as a frozen dataclass, and quicker to build
    reactants: Tuple[str, ...]
    product: str
    weight: float
    reaction_class: ReactionClass
    reagents: Tuple[str, ...] = ()


class _Table(NamedTuple):
    """A pool's forward table: applicable templates in file order, likelihoods best first."""

    applicable: List[Template]
    likelihoods: Dict[str, float]


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
            t = Template(
                tuple(map(norm, expect(entry["lhs"], [str], "lhs"))),
                norm(expect(entry["rhs"], str, "rhs")),
                weight,
                ReactionClass.parse(entry["class"], entry.get("label", "")),
                tuple(map(norm, expect(entry.get("reagents", ()), [str], "reagents"))),
            )
            if not t.reactants + t.reagents:  # its suggestion would be empty
                raise ConfigError("template has neither reactants (lhs) nor reagents")
            templates.append(t)
        except (ArithmeticError, KeyError, TypeError, ValueError, ConfigError,
                NotCanonicalizable) as exc:
            raise ConfigError(f"{source}: template #{i}: {exc}") from exc
    return templates


def load_templates(path: str | Path) -> List[Template]:
    """Read a JSON template file (see `parse_templates`)."""
    return parse_templates(read_json(path, list), str(path))


def _build(templates: List[Template], by_reactant: Dict[Optional[str], List[int]],
           pool: frozenset) -> _Table:
    candidates = list(by_reactant.get(None, ()))
    for m in pool:
        candidates += by_reactant.get(m, ())
    applicable = [templates[i] for i in sorted(candidates) if pool.issuperset(templates[i].reactants)]
    total = sum(t.weight for t in applicable)
    by_product: Dict[str, float] = {}
    for t in applicable:
        by_product[t.product] = by_product.get(t.product, 0.0) + t.weight
    # each product's summed weight divided once: a sum of quotients can round above 1
    return _Table(applicable, dict(sorted(((p, w / total) for p, w in by_product.items()),
                                          key=lambda item: (-item[1], item[0]))))


class ToyOracle(ChemModels):
    """All three model roles served consistently from one template set in normal form."""

    def __init__(self, templates: Sequence[Template]):
        self.normalizer = ToyNormalizer()
        self.templates = list(templates)
        # Candidate indexes, each list in template-file order: lookups must
        # visit templates in that order so that likelihood sums and
        # classification ties come out exactly as in a full scan. A template
        # is keyed by its reactant that the fewest templates use (any key would
        # do: candidates are subset-checked), a reagent-only one by None.
        self._by_product: Dict[str, List[Template]] = {}
        self._by_reactant: Dict[Optional[str], List[int]] = {}
        uses = Counter(m for t in self.templates for m in t.reactants).__getitem__
        for i, t in enumerate(self.templates):
            self._by_product.setdefault(t.product, []).append(t)
            self._by_reactant.setdefault(min(t.reactants, key=uses, default=None), []).append(i)
        # the store holds the index, not the oracle, so a dropped oracle frees it at once
        self._tables = lru_cache(STORED_TABLES)(partial(_build, self.templates, self._by_reactant))

    def _table(self, molecules: Iterable[str]) -> _Table:
        return self._tables(frozenset(molecules))  # a table depends only on its pool

    # --- forward role -------------------------------------------------------

    def forward_predict(self, precursors: PrecursorSet, topk: int) -> List[ForwardPrediction]:
        ranked = self._table(precursors.molecules).likelihoods.items()
        return [ForwardPrediction(p, l) for p, l in islice(ranked, topk)]

    def score_reaction(self, precursors: PrecursorSet, product: str) -> float:
        try:
            product = self.normalizer.normalize(product)
        except NotCanonicalizable:
            return 0.0
        return self._table(precursors.molecules).likelihoods.get(product, 0.0)

    # --- retro role ---------------------------------------------------------

    def retro_predict(self, target: str, beams: int) -> List[PrecursorSet]:
        """Each template's precursors for `target`, by the forward score of its reaction."""
        target = self.normalizer.normalize(target)
        suggestions = []
        for t in self._by_product.get(target, ()):
            candidate = PrecursorSet(t.reactants + t.reagents, frozenset(t.reagents))
            suggestions.append((self._table(candidate.molecules).likelihoods.get(target, 0.0),
                                candidate))
        suggestions.sort(key=lambda item: (-item[0], item[1].key()))
        return [candidate for _, candidate in suggestions[:beams]]

    # --- classification role ------------------------------------------------

    def classify(self, rxn: str) -> ReactionClass:
        try:
            lhs, rhs = split_reaction(rxn)
            lhs = [self.normalizer.normalize(m) for m in lhs]
            rhs = {self.normalizer.normalize(m) for m in rhs}
        except (MalformedReaction, NotCanonicalizable) as exc:
            raise MalformedModelResponse(f"cannot classify {rxn!r}: {exc}") from exc
        # the heaviest template applicable to the left side that gives a right-side molecule
        best: Optional[Template] = None
        for t in self._table(lhs).applicable:
            if t.product in rhs and (best is None or t.weight > best.weight):
                best = t
        return best.reaction_class if best is not None else UNRECOGNIZED
