"""Lookup of commercially available starting materials."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Set

from .errors import NotCanonicalizable, read_lines
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


def load_stocks(paths: Iterable[str | Path], normalizer: Normalizer) -> StockSet:
    """The molecules of stock files: one per line, as `errors.read_lines` reads them.

    Lines the normalizer rejects are logged and left out, not fatal.
    """
    entries: Set[str] = set()
    for path in paths:
        rejected = 0
        for lineno, line in read_lines(path):
            try:
                entries.add(normalizer.normalize(line))
            except NotCanonicalizable:
                rejected += 1
                logger.warning("%s:%d: skipping unnormalizable entry %r", path, lineno, line)
        if rejected:
            logger.warning("%s: rejected %d unnormalizable entries", path, rejected)
    return StockSet(entries=frozenset(entries))
