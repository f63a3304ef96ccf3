"""Tokenization, fragment-group handling and normalization of molecule strings.

Molecule strings follow the SMILES token grammar used by transformer-based
reaction models. Multi-fragment compounds are written with ``.`` between
fragments; fragments known to belong to one compound are tied with ``~`` so
that downstream splitting keeps them as a single unit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from .errors import (
    IndexOutOfRange,
    MalformedAnnotation,
    MalformedReaction,
    NotCanonicalizable,
    UnparsableCharacter,
)

# Token grammar of the Molecular Transformer family: bracket atoms, two-letter
# halogens, organic subset atoms, ring digits and %nn ring bonds, bond and
# branch punctuation, the ~ fragment tie and reaction arrows.
TOKEN_PATTERN = (
    r"(\[[^\]]+\]|Br?|Cl?|N|O|S|P|F|I|b|c|n|o|s|p|"
    r"\(|\)|\.|=|#|-|\+|\\|/|:|~|@|\?|>>?|\*|\$|%[0-9]{2}|[0-9])"
)
_TOKEN_RE = re.compile(TOKEN_PATTERN)

# Tokens that represent an atom (used by the simplicity surrogate).
_ATOM_RE = re.compile(r"\[[^\]]+\]|Br|Cl|[NOSPFI]|B|C|[bcnosp]")

# A whole string of tokens. The lookahead fixes each token as _TOKEN_RE would and
# \1 consumes it, so a reject takes linear time; a plain (?:TOKEN_PATTERN)+
# backtracks exponentially over runs that split two ways, such as ">>>>".
_TOKENS_RE = re.compile(rf"(?:(?={TOKEN_PATTERN})\1)+")

# Same character set as str.isspace.
_SPACE_RE = re.compile(r"\s")


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


@dataclass(frozen=True)
class TokenStream:
    """Lossless token sequence: joining the texts reproduces the input."""

    tokens: Tuple[Token, ...]

    def join(self) -> str:
        return "".join(t.text for t in self.tokens)


def _scan(s: str) -> List[str]:
    """Token texts of ``s``; raises UnparsableCharacter at the first gap.

    The matches are contiguous exactly when their lengths add up to the
    input's, so the match-by-match walk runs only to locate a rejection.
    """
    texts = _TOKEN_RE.findall(s)
    if s and sum(map(len, texts)) == len(s):
        return texts
    pos = 0
    for m in _TOKEN_RE.finditer(s):
        if m.start() != pos:
            break
        pos = m.end()
    raise UnparsableCharacter(s, pos)


def tokenize(s: str) -> TokenStream:
    """Tokenize a molecule or reaction string.

    Raises UnparsableCharacter at the first byte outside the token grammar.
    """
    tokens: List[Token] = []
    pos = 0
    for text in _scan(s):
        tokens.append(Token(text, pos, pos + len(text)))
        pos += len(text)
    return TokenStream(tuple(tokens))


def atom_count(s: str) -> int:
    """Number of atom tokens in a molecule string.

    Every atom token matches _ATOM_RE whole and no other token holds a letter
    or ``[``, so one pass over a fully tokenized string counts the atoms.
    """
    if not _TOKENS_RE.fullmatch(s):
        _scan(s)  # raises UnparsableCharacter at the first gap
    return len(_ATOM_RE.findall(s))


# --- fragment-group annotation ---------------------------------------------

_ANNOTATION_RE = re.compile(r"^(?P<body>\S+)(?: \|f:(?P<groups>[0-9.,]+)\|)?$")


def parse_fragment_groups(annotated: str) -> Tuple[str, List[List[int]]]:
    """Split ``BODY |f:1.2,4.5|`` into the body and the parsed index groups.

    A missing annotation yields empty groups. Indices must be unique and
    smaller than the number of ``.``-separated fragments of the body.
    """
    m = _ANNOTATION_RE.match(annotated)
    if m is None:
        raise MalformedAnnotation(f"bad annotation syntax: {annotated!r}")
    body = m.group("body")
    raw = m.group("groups")
    if raw is None:
        return body, []
    groups: List[List[int]] = []
    for part in raw.split(","):
        pieces = part.split(".")
        if any(not p.isdigit() for p in pieces) or len(pieces) < 2:
            raise MalformedAnnotation(f"bad group {part!r} in {annotated!r}")
        groups.append([int(p) for p in pieces])
    n_fragments = len(body.split("."))
    seen = set()
    for group in groups:
        for idx in group:
            if idx in seen:
                raise MalformedAnnotation(f"duplicate index {idx} in {annotated!r}")
            seen.add(idx)
            if idx >= n_fragments:
                raise IndexOutOfRange(
                    f"index {idx} >= fragment count {n_fragments} in {annotated!r}"
                )
    return body, groups


def render_fragment_groups(body: str, groups: Sequence[Sequence[int]]) -> str:
    """Inverse of parse_fragment_groups."""
    if not groups:
        return body
    rendered = ",".join(".".join(str(i) for i in g) for g in groups)
    return f"{body} |f:{rendered}|"


def bind_fragments(body: str, groups: Sequence[Sequence[int]]) -> str:
    """Join grouped fragments with ``~`` so they travel as one unit.

    Grouped fragments become adjacent (joined by ``~``, in index order);
    units are emitted in order of their smallest original fragment index.
    """
    fragments = body.split(".")
    seen = set()
    for group in groups:
        for idx in group:
            if idx >= len(fragments) or idx < 0:
                raise IndexOutOfRange(f"index {idx} >= fragment count {len(fragments)}")
            if idx in seen:
                raise IndexOutOfRange(f"duplicate index {idx}")
            seen.add(idx)
    units: List[Tuple[int, str]] = []
    for group in groups:
        ordered = sorted(group)
        units.append((ordered[0], "~".join(fragments[i] for i in ordered)))
    for idx, frag in enumerate(fragments):
        if idx not in seen:
            units.append((idx, frag))
    units.sort(key=lambda item: item[0])
    return ".".join(text for _, text in units)


def split_units(side: str) -> List[str]:
    """Split a molecule list on ``.`` keeping ``~``-tied fragments whole."""
    return side.split(".") if side else []


def split_reaction(rxn: str) -> Tuple[List[str], List[str]]:
    """Split ``precursors>>products`` into the two molecule lists."""
    parts = rxn.split(">>")
    if len(parts) != 2:
        raise MalformedReaction(
            f"expected exactly one '>>' separator, got {len(parts) - 1}: {rxn!r}"
        )
    return split_units(parts[0]), split_units(parts[1])


# --- normalizers ------------------------------------------------------------


class Normalizer:
    """Maps a raw molecule string to the normal form used as node identity."""

    def normalize(self, s: str) -> str:
        raise NotImplementedError

    def spells(self, s: str, normal: str) -> bool:
        """True iff raw `s` has the normal form `normal`; unnormalizable `s` never does.

        Normal forms are fixed points of `normalize`, so an exact match needs no call.
        """
        if s == normal:
            return True
        try:
            return self.normalize(s) == normal
        except NotCanonicalizable:
            return False


class ToyNormalizer(Normalizer):
    """Sort-based normal form for the synthetic chemistry used in tests.

    Validates the token grammar, sorts ``~``-tied members inside each unit,
    then sorts the units themselves. Idempotent by construction. The process
    remembers the normal forms it computed; a rejection is raised afresh each time.
    """

    def normalize(self, s: str) -> str:
        return _normal_form(s)

    def __repr__(self) -> str:
        return "ToyNormalizer()"


# One memo of normal forms per process, of at most 16384 strings (least recently used
# dropped first); lru_cache never stores an exception, so a rejection is raised again.
@lru_cache(maxsize=1 << 14)
def _normal_form(s: str) -> str:
    if not s or _SPACE_RE.search(s):
        raise NotCanonicalizable(f"empty or whitespace-bearing input: {s!r}")
    try:
        _scan(s)
    except UnparsableCharacter as exc:
        raise NotCanonicalizable(str(exc)) from exc
    units = []
    for unit in split_units(s):
        members = unit.split("~")
        if any(not m for m in members):
            raise NotCanonicalizable(f"empty fragment in {s!r}")
        units.append("~".join(sorted(members)))
    if not units:
        raise NotCanonicalizable(f"no fragments in {s!r}")
    return ".".join(sorted(units))
