"""Client-side types for the three chemistry models.

One interface covers the single-step retro model, the forward prediction
model and the reaction classifier. Implementations: the in-process toy
oracle (`retroroute.toy`) and the wire-protocol clients (`retroroute.wire`).
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from .errors import ConfigError, NotCanonicalizable, expect, read_json, read_lines
from .smiles import Normalizer, split_units


class PrecursorSet(namedtuple("PrecursorSet", "molecules reagents")):
    """Ordered, deduplicated molecules of one suggested disconnection.

    `reagents` lists the molecules flagged as not contributing atoms to the
    product (solvents, catalysts); they are a subset of `molecules`.
    """

    __slots__ = ()

    def __new__(cls, molecules: Tuple[str, ...], reagents: frozenset = frozenset()):
        if len(set(molecules)) != len(molecules):
            molecules = tuple(dict.fromkeys(molecules))
        if type(reagents) is not frozenset or reagents:
            reagents = frozenset(reagents) & set(molecules)
        return tuple.__new__(cls, (molecules, reagents))

    def normalized(self, normalizer: Normalizer) -> "PrecursorSet":
        """Each molecule normalized, reagent flags kept; raises NotCanonicalizable."""
        if len(self.reagents) == len(self.molecules):
            raise NotCanonicalizable("precursor set without a reactant")
        molecules = tuple(normalizer.normalize(m) for m in self.molecules)
        if molecules == self.molecules:  # already in normal form
            return self
        if not self.reagents:
            return PrecursorSet(molecules)
        return PrecursorSet(
            molecules,
            frozenset(n for m, n in zip(self.molecules, molecules) if m in self.reagents),
        )

    def key(self) -> str:
        """Order-independent identity used for candidate deduplication."""
        return ".".join(sorted(self.molecules))

    def joined(self) -> str:
        return ".".join(self.molecules)


class ForwardPrediction(NamedTuple):  # as immutable as a frozen dataclass, quicker to build
    """One forward product; a list of them is most likely first."""

    product: str
    likelihood: float


_CLASS_CODE_RE = re.compile(r"([0-9]+)\.([0-9]+)\.([0-9]+)")  # ASCII digits only


class ReactionClass(namedtuple("ReactionClass", "superclass category named_reaction label")):
    """NameRXN-style three-number identifier; superclass 0 = unrecognized.

    A tuple: as immutable as a frozen dataclass and cheaper to build."""

    __slots__ = ()

    def __new__(cls, superclass: int, category: int = 0, named_reaction: int = 0, label: str = ""):
        if not 0 <= superclass <= 11:
            raise ValueError(f"superclass {superclass} outside 0..11")
        return tuple.__new__(cls, (superclass, category, named_reaction, label))

    @classmethod
    def parse(cls, code: str, label: str = "") -> "ReactionClass":
        m = _CLASS_CODE_RE.fullmatch(code) if isinstance(code, str) else None
        if m is None:
            raise ValueError(f"bad reaction class code {code!r}")
        return cls(int(m[1]), int(m[2]), int(m[3]), label)

    @property
    def code(self) -> str:
        return f"{self.superclass}.{self.category}.{self.named_reaction}"


UNRECOGNIZED = ReactionClass(0, 0, 0, "unrecognized")


class ChemModels:
    """Uniform access to retro, forward and classification models."""

    def retro_predict(self, target: str, beams: int) -> List[PrecursorSet]:
        """At most `beams` suggested precursor sets, best first."""
        raise NotImplementedError

    def forward_predict(
        self, precursors: PrecursorSet, topk: int
    ) -> List[ForwardPrediction]:
        raise NotImplementedError

    def score_reaction(self, precursors: PrecursorSet, product: str) -> float:
        raise NotImplementedError

    def classify(self, rxn: str) -> ReactionClass:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the models hold; an in-process model holds nothing."""


class TokenSubstitution:
    """Bidirectional token <-> molecule dictionary.

    Long common precursors are replaced by single molecule tokens on the way
    into the retro model and expanded back before any forward-model call.
    File format: one ``token<TAB>smiles`` pair per line (see `errors.read_lines`). Each token
    and molecule is non-empty, holds no ``.`` (it could never match a unit) and is on one line.
    """

    def __init__(self, pairs: Dict[str, str]):
        self.token_to_smiles = dict(pairs)
        self.smiles_to_token = {v: k for k, v in pairs.items()}

    @classmethod
    def load(cls, path: str | Path) -> "TokenSubstitution":
        pairs: Dict[str, str] = {}
        lines: Dict[str, int] = {}  # each token and molecule -> its line
        for lineno, line in read_lines(path):
            try:
                token, smiles = (part.strip() for part in line.split("\t"))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: expected token<TAB>smiles") from exc
            for kind, text in (("token", token), ("molecule", smiles)):
                if "." in text:
                    raise ConfigError(f"{path}:{lineno}: '.'-bearing {kind} {text!r}")
                if lines.get(text, lineno) != lineno:  # an identity line maps its molecule to itself
                    raise ConfigError(f"{path}:{lineno}: {kind} {text!r} repeats line {lines[text]}")
                lines[text] = lineno
            pairs[token] = smiles
        return cls(pairs)

    def encode(self, s: str) -> str:
        """Replace known molecules (whole ``.``-units) by their tokens."""
        return ".".join(self.smiles_to_token.get(u, u) for u in split_units(s))

    def decode(self, s: str) -> str:
        """Expand molecule tokens back to their full strings."""
        return ".".join(self.token_to_smiles.get(u, u) for u in split_units(s))


class ModelManifest(namedtuple(
    "ModelManifest", "transport templates_path command endpoint token_dict_path timeout retries",
    defaults=(None, None, None, None, 60.0, 2),
)):
    """How to reach the models: the "toy" transport reads `templates_path`, "subprocess"
    starts `command` (a list of strings) and "http" posts to `endpoint`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.transport not in ("toy", "subprocess", "http"):
            raise ConfigError(f"unknown transport {self.transport!r}")
        for key in ("templates_path", "token_dict_path", "endpoint", "command"):
            if getattr(self, key) is not None:
                expect(getattr(self, key), [str] if key == "command" else str, f"manifest {key}")
        if self.transport == "toy" and not self.templates_path:
            raise ConfigError("toy transport requires templates_path")
        if self.transport == "subprocess" and not self.command:
            raise ConfigError("subprocess transport requires a command")
        if self.transport == "http" and not self.endpoint:
            raise ConfigError("http transport requires endpoint")
        if not 0 < expect(self.timeout, float, "manifest timeout") < math.inf:
            raise ConfigError(f"timeout must be a positive number of seconds: {self.timeout!r}")
        if expect(self.retries, int, "manifest retries") < 0:
            raise ConfigError(f"retries must be a non-negative integer: {self.retries!r}")
        return self

    @classmethod
    def load(cls, path: str | Path) -> "ModelManifest":
        data = read_json(path, dict, cls._fields)
        expect(data.get("transport"), str, f"{path}: transport")
        base = Path(path).parent
        for key in ("templates_path", "token_dict_path"):
            if data.get(key):
                data[key] = str((base / expect(data[key], str, f"manifest {key}")).resolve())
        return cls(**data)
