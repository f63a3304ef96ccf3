"""Exception hierarchy shared across the package."""


class RetroRouteError(Exception):
    """Base class for all package errors."""


# --- text / parsing ---------------------------------------------------------

class UnparsableCharacter(RetroRouteError):
    def __init__(self, text: str, position: int):
        self.text = text
        self.position = position
        offending = text[position] if position < len(text) else "<end>"
        super().__init__(
            f"unparsable character {offending!r} at position {position} in {text!r}"
        )


class MalformedAnnotation(RetroRouteError):
    """Fragment-group annotation does not match the ``|f:i.j,k.l|`` syntax."""


class IndexOutOfRange(RetroRouteError):
    """A fragment-group index points past the last fragment."""


class MalformedReaction(RetroRouteError):
    """Reaction string does not contain exactly one ``>>`` separator."""


class NotCanonicalizable(RetroRouteError):
    """The active normalizer rejected the molecule; the caller must discard it."""


# --- model gateway ----------------------------------------------------------

class ModelError(RetroRouteError):
    """Base for model-call failures."""


class ModelUnavailable(ModelError):
    pass


class ModelTimeout(ModelError):
    pass


class MalformedModelResponse(ModelError):
    pass


class ScorerUnavailable(ModelError):
    """Simplicity scorer failed; the affected node is marked unexpandable."""


# --- graph ------------------------------------------------------------------

class CycleRejected(RetroRouteError):
    """Attaching the arc would create a directed cycle."""


class DegenerateProduct(RetroRouteError):
    """Product simplicity is invalid for arc scoring."""


# --- evaluation -------------------------------------------------------------

class EmptyEvaluation(RetroRouteError):
    """No suggestions were generated, metrics are undefined."""


class AllEmpty(RetroRouteError):
    """Every class-likelihood distribution is empty."""


class IoError(RetroRouteError):
    pass


class ConfigError(RetroRouteError):
    pass
