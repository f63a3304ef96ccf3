"""Exception hierarchy shared across the package, and the reader and writer of files."""

import itertools
import json
import re
import reprlib
from pathlib import Path


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


# --- evaluation -------------------------------------------------------------

class EmptyEvaluation(RetroRouteError):
    """No suggestions were generated, metrics are undefined."""


class AllEmpty(RetroRouteError):
    """Every class-likelihood distribution is empty."""


class IoError(RetroRouteError):
    pass


class ConfigError(RetroRouteError):
    pass


# --- input and output files -------------------------------------------------

_WORDS = {dict: "a JSON object", list: "a list", str: "a string", int: "an integer", float: "a number"}
_STR = itertools.repeat(str)


def expect(value, kind, where: str):
    """`value` if it is a `kind`: dict, list, str, int, float (any number but a
    bool) or [str] (a list of strings). Otherwise a ConfigError naming `where`."""
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    # all(map(...)) runs in C: a generator over the items would slow load_templates
    if type(kind) is list and type(value) in (list, tuple) and all(map(isinstance, value, _STR)):
        return value
    words = "a list of strings" if type(kind) is list else _WORDS[kind]
    raise ConfigError(f"{where}: expected {words}, got {reprlib.repr(value)}")


def read_text(path) -> str:
    """The UTF-8 text of a file; an unreadable one is an IoError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


_COMMENT_RE = re.compile(r"(?:^|\s)#")  # a '#' that begins a line or follows whitespace


def read_lines(path):
    """(line number, text) of each line of a UTF-8 file that holds something once its
    comment is cut and it is stripped. No molecule string holds whitespace, so a '#'
    inside an entry is a triple bond and stays."""
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        text = _COMMENT_RE.split(line, 1)[0].strip()
        if text:
            yield lineno, text


def write_text(path, text: str) -> None:
    """Write `text` to a file as UTF-8; an unwritable one is an IoError naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def parse_json(text: str, where: str, error=ConfigError):
    """The JSON value of `text`. Text that is not JSON, an integer too long to convert
    or nesting too deep for the decoder is an `error` whose message begins with `where`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: {exc}") from exc


def read_json(path, kind, keys=None):
    """The JSON value in a UTF-8 file, which must be of `kind` (see `expect`); an
    object with a key outside `keys`, when they are given, is a ConfigError."""
    value = expect(parse_json(read_text(path), str(path)), kind, str(path))
    if keys is not None and not set(keys).issuperset(value):
        raise ConfigError(f"{path}: unknown keys {sorted(set(value).difference(keys))}")
    return value
