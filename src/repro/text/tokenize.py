"""The paper's *Tokenizer*: attribute-prefixed, position-enumerated tokens.

Landmark Explanation perturbs entities at the granularity of individual
tokens, but after the perturbation the surviving tokens must be reassembled
into a well-formed entity (the *pair reconstruction* step, which the batch
builders in :mod:`repro.core.columnar` perform).  To make that possible
each token carries:

* the **attribute** it came from, and
* its **position** inside the attribute value, which disambiguates multiple
  occurrences of the same word (the paper: "The prefix enumerates the
  tokens, to manage multiple occurrences of the same word in an attribute
  value").

The string form is ``<attribute>#<position>_<word>``, e.g. the value
``"sony digital camera"`` of attribute ``name`` becomes::

    name#0_sony   name#1_digital   name#2_camera

``#`` is safe as a separator because :func:`repro.text.normalize
.normalize_value` drops it from attribute values, and attribute names are
validated at schema construction time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.exceptions import TokenizationError
from repro.text.normalize import tokens_of

_ATTR_SEPARATOR = "#"
_POSITION_SEPARATOR = "_"


@dataclass(frozen=True, slots=True)
class PrefixedToken:
    """A single token of an entity, tagged with its attribute and position."""

    attribute: str
    position: int
    word: str

    def __post_init__(self) -> None:
        if _ATTR_SEPARATOR in self.attribute:
            raise TokenizationError(
                f"attribute name {self.attribute!r} contains the reserved "
                f"separator {_ATTR_SEPARATOR!r}"
            )
        if self.position < 0:
            raise TokenizationError(f"negative token position: {self.position}")
        if not self.word:
            raise TokenizationError("empty token word")

    @property
    def prefixed(self) -> str:
        """The full prefixed string form, unique within one entity."""
        return format_prefixed_token(self.attribute, self.position, self.word)

    def shifted(self, offset: int) -> "PrefixedToken":
        """Return a copy with the position shifted by *offset*.

        Used by double-entity generation to append landmark tokens after the
        varying entity's own tokens without position collisions.
        """
        return PrefixedToken(self.attribute, self.position + offset, self.word)


def format_prefixed_token(attribute: str, position: int, word: str) -> str:
    """Render a prefixed token string: ``<attribute>#<position>_<word>``."""
    return f"{attribute}{_ATTR_SEPARATOR}{position}{_POSITION_SEPARATOR}{word}"


def parse_prefixed_token(token: str) -> PrefixedToken:
    """Parse a prefixed token string back into a :class:`PrefixedToken`.

    Raises :class:`~repro.exceptions.TokenizationError` when the string does
    not follow the ``<attribute>#<position>_<word>`` layout.
    """
    attribute, sep, rest = token.partition(_ATTR_SEPARATOR)
    if not sep or not attribute:
        raise TokenizationError(f"missing attribute prefix in token {token!r}")
    position_text, sep, word = rest.partition(_POSITION_SEPARATOR)
    if not sep or not word:
        raise TokenizationError(f"missing position prefix in token {token!r}")
    try:
        position = int(position_text)
    except ValueError as exc:
        raise TokenizationError(
            f"non-numeric position {position_text!r} in token {token!r}"
        ) from exc
    return PrefixedToken(attribute, position, word)


class Tokenizer:
    """Transforms entities (attribute → value mappings) to prefixed tokens.

    The tokenizer is stateless and has one policy: the words of
    :func:`~repro.text.normalize.tokens_of`, numbered by position.  The
    explainers do not take a tokenizer.  The columnar batch builders
    (:mod:`repro.core.columnar`) rebuild values by joining kept words in
    position order with single spaces, which is right only for this
    policy, so a subclass with another policy would not reach them.
    """

    def tokenize_value(self, attribute: str, value: object) -> list[PrefixedToken]:
        """Tokenize one attribute value into position-enumerated tokens."""
        return [
            PrefixedToken(attribute, position, word)
            for position, word in enumerate(tokens_of(value))
        ]

    def tokenize_entity(self, entity: Mapping[str, object]) -> list[PrefixedToken]:
        """Tokenize a whole entity, attribute by attribute, in schema order."""
        tokens: list[PrefixedToken] = []
        for attribute, value in entity.items():
            tokens.extend(self.tokenize_value(attribute, value))
        return tokens
