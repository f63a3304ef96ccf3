"""Exception hierarchy shared across the package, and the reader and writer of files."""

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

# The one rule for every value read from outside (files, wire lines, snapshots): each JSON kind by
# the type that names it, the types json.loads gives it (a bool is no int or number), its name.
KINDS = {kind: (frozenset(types), name) for kind, types, name in (
    (dict, {dict}, "a JSON object"), (list, {list}, "a list"), (str, {str}, "a string"),
    (int, {int}, "an integer"), (float, {int, float}, "a number"), (bool, {bool}, "a boolean"))}

class _Excerpt(reprlib.Repr):
    def repr(self, x) -> str:  # cut at 200 characters, however deep the value nests
        return text if len(text := super().repr(x)) <= 200 else text[:197] + "..."


EXCERPT = _Excerpt()  # how a message quotes such a value: as reprlib.repr, but with 3 items
EXCERPT.maxlist = EXCERPT.maxdict = 3  # of a list or object, not 6 (6 reply objects fill 300 bytes)


def expect(value, kind, where: str, error=ConfigError):
    """`value` if it is of `kind`, a key of `KINDS`, or of `[kind]`, a list or tuple of such
    values (tested in C, by issuperset over map); otherwise the `error` of `refusal`."""
    t = type(value)
    if t is kind or (t in KINDS[kind][0] if type(kind) is not list else
                     (t is list or t is tuple) and KINDS[kind[0]][0].issuperset(map(type, value))):
        return value
    raise refusal(value, kind, where, error)


def refusal(value, kind, where: str, error=ConfigError) -> Exception:
    """An `error` naming `where`: `value` is not of `kind`, a list kind named by its item kind's
    name without the article ("a list of strings")."""
    words = f"a list of {KINDS[kind[0]][1].split(' ', 1)[1]}s" if type(kind) is list else KINDS[kind][1]
    return error(f"{where}: expected {words}, got {EXCERPT.repr(value)}")


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
