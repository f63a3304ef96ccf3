"""Lookup of commercially available starting materials."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Set

from .errors import NotCanonicalizable, read_text
from .smiles import Normalizer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StockSet:
    """Immutable set of canonical molecule strings, snapshot for one run.

    Membership is exact-string after normalization; ``~``-tied fragment
    entries are looked up as whole units.
    """

    entries: frozenset

    def contains(self, m: str) -> bool:
        """Exact membership; the caller must pass a normalized string."""
        return m in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def union(self, other: "StockSet") -> "StockSet":
        return StockSet(entries=self.entries | other.entries)


def load_stock(path: str | Path, normalizer: Normalizer) -> StockSet:
    """Read a stock file: one molecule per line, ``#`` comments allowed.

    Lines the normalizer rejects are logged and left out, not fatal.
    """
    entries: Set[str] = set()
    rejected = 0
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries.add(normalizer.normalize(line))
        except NotCanonicalizable:
            rejected += 1
            logger.warning("%s:%d: skipping unnormalizable entry %r", path, lineno, line)
    if rejected:
        logger.warning("%s: rejected %d unnormalizable entries", path, rejected)
    return StockSet(entries=frozenset(entries))


def load_stocks(paths: Iterable[str | Path], normalizer: Normalizer) -> StockSet:
    """Union of several stock files."""
    result = StockSet(entries=frozenset())
    for path in paths:
        result = result.union(load_stock(path, normalizer))
    return result
