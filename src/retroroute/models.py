"""Client-side types for the three chemistry models.

One interface covers the single-step retro model, the forward prediction
model and the reaction classifier. Implementations: the in-process toy
oracle (`retroroute.toy`) and the wire-protocol clients (`retroroute.wire`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigError, IoError
from .smiles import split_units


@dataclass(frozen=True)
class PrecursorSet:
    """Ordered, deduplicated molecules of one suggested disconnection.

    `reagents` lists the molecules flagged as not contributing atoms to the
    product (solvents, catalysts); they are a subset of `molecules`.
    """

    molecules: Tuple[str, ...]
    reagents: frozenset = frozenset()

    def __post_init__(self):
        if len(set(self.molecules)) != len(self.molecules):
            object.__setattr__(
                self, "molecules", tuple(dict.fromkeys(self.molecules))
            )
        object.__setattr__(
            self, "reagents", frozenset(self.reagents) & set(self.molecules)
        )

    @property
    def reactants(self) -> Tuple[str, ...]:
        return tuple(m for m in self.molecules if m not in self.reagents)

    def key(self) -> str:
        """Order-independent identity used for candidate deduplication."""
        return ".".join(sorted(self.molecules))

    def joined(self) -> str:
        return ".".join(self.molecules)


@dataclass(frozen=True)
class RetroPrediction:
    precursors: PrecursorSet
    model_confidence: float
    rank: int


@dataclass(frozen=True)
class ForwardPrediction:
    product: str
    likelihood: float
    rank: int


@dataclass(frozen=True)
class ReactionClass:
    """NameRXN-style three-number identifier; superclass 0 = unrecognized."""

    superclass: int
    category: int = 0
    named_reaction: int = 0
    label: str = ""

    def __post_init__(self):
        if not 0 <= self.superclass <= 11:
            raise ValueError(f"superclass {self.superclass} outside 0..11")

    @classmethod
    def parse(cls, code: str, label: str = "") -> "ReactionClass":
        parts = code.split(".")
        if len(parts) != 3 or any(not p.isdigit() for p in parts):
            raise ValueError(f"bad reaction class code {code!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]), label)

    @property
    def code(self) -> str:
        return f"{self.superclass}.{self.category}.{self.named_reaction}"


UNRECOGNIZED = ReactionClass(0, 0, 0, "unrecognized")


class ChemModels:
    """Uniform access to retro, forward and classification models."""

    def retro_predict(self, target: str, beams: int) -> List[RetroPrediction]:
        raise NotImplementedError

    def forward_predict(
        self, precursors: PrecursorSet, topk: int
    ) -> List[ForwardPrediction]:
        raise NotImplementedError

    def score_reaction(self, precursors: PrecursorSet, product: str) -> float:
        raise NotImplementedError

    def classify(self, rxn: str) -> ReactionClass:
        raise NotImplementedError


class TokenSubstitution:
    """Bidirectional token <-> molecule dictionary.

    Long common precursors are replaced by single molecule tokens on the way
    into the retro model and expanded back before any forward-model call.
    File format: one ``token<TAB>smiles`` pair per line, UTF-8.
    """

    def __init__(self, pairs: Dict[str, str]):
        self.token_to_smiles = dict(pairs)
        self.smiles_to_token = {v: k for k, v in pairs.items()}
        if len(self.smiles_to_token) != len(self.token_to_smiles):
            raise ConfigError("token substitution dictionary is not bijective")

    @classmethod
    def load(cls, path: str | Path) -> "TokenSubstitution":
        pairs: Dict[str, str] = {}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(str(exc)) from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                token, smiles = line.split("\t")
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: expected token<TAB>smiles") from exc
            pairs[token.strip()] = smiles.strip()
        return cls(pairs)

    def encode(self, s: str) -> str:
        """Replace known molecules (whole ``.``-units) by their tokens."""
        return ".".join(self.smiles_to_token.get(u, u) for u in split_units(s))

    def decode(self, s: str) -> str:
        """Expand molecule tokens back to their full strings."""
        return ".".join(self.token_to_smiles.get(u, u) for u in split_units(s))


@dataclass
class ModelManifest:
    """How to reach the models."""

    transport: str  # "toy" | "subprocess" | "http"
    templates_path: Optional[str] = None
    command: Optional[Sequence[str]] = None
    endpoint: Optional[str] = None
    token_dict_path: Optional[str] = None
    timeout: float = 60.0
    retries: int = 2
    max_in_flight: int = 8

    def __post_init__(self):
        if self.transport not in ("toy", "subprocess", "http"):
            raise ConfigError(f"unknown transport {self.transport!r}")
        if self.transport == "toy" and not self.templates_path:
            raise ConfigError("toy transport requires templates_path")
        if self.transport == "subprocess" and not self.command:
            raise ConfigError("subprocess transport requires command")
        if self.transport == "http" and not self.endpoint:
            raise ConfigError("http transport requires endpoint")

    @classmethod
    def load(cls, path: str | Path) -> "ModelManifest":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise IoError(str(exc)) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{path}: unknown manifest keys {sorted(unknown)}")
        base = Path(path).parent
        for key in ("templates_path", "token_dict_path"):
            if data.get(key):
                data[key] = str((base / data[key]).resolve())
        return cls(**data)

    def token_substitution(self) -> Optional[TokenSubstitution]:
        if self.token_dict_path:
            return TokenSubstitution.load(self.token_dict_path)
        return None
