"""Lookup of commercially available starting materials."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Set

from .errors import IoError, NotCanonicalizable
from .smiles import Normalizer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StockSet:
    """Immutable set of canonical molecule strings, snapshot for one run.

    Membership is exact-string after normalization; ``~``-tied fragment
    entries are looked up as whole units.
    """

    entries: frozenset
    source: str = ""
    skipped: int = 0

    def contains(self, m: str) -> bool:
        """Exact membership; the caller must pass a normalized string."""
        return m in self.entries

    def __contains__(self, m: str) -> bool:
        return self.contains(m)

    def __len__(self) -> int:
        return len(self.entries)

    def union(self, other: "StockSet") -> "StockSet":
        return StockSet(
            entries=self.entries | other.entries,
            source=f"{self.source}+{other.source}",
            skipped=self.skipped + other.skipped,
        )


def load_stock(path: str | Path, normalizer: Normalizer) -> StockSet:
    """Read a stock file: one molecule per line, ``#`` comments allowed.

    Lines the normalizer rejects are counted and skipped, not fatal.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    entries: Set[str] = set()
    skipped = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries.add(normalizer.normalize(line))
        except NotCanonicalizable:
            skipped += 1
            logger.warning("%s:%d: skipping unnormalizable entry %r", path, lineno, line)
    if skipped:
        logger.warning("%s: skipped %d unnormalizable entries", path, skipped)
    return StockSet(entries=frozenset(entries), source=str(path), skipped=skipped)


def load_stocks(paths: Iterable[str | Path], normalizer: Normalizer) -> StockSet:
    """Union of several stock files."""
    result = StockSet(entries=frozenset(), source="")
    for path in paths:
        result = result.union(load_stock(path, normalizer))
    return result
