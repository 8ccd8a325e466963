"""Landmark generation: choosing what is frozen and what is perturbed.

For a record pair and a chosen landmark side this component produces the
token list that the perturbation explainer will operate on:

* **single-entity** generation — the varying entity's own tokens.  A
  perturbation highlights how the varying entity differs from the landmark;
  the paper finds it most reliable for records predicted *matching*.
* **double-entity** generation — the varying entity's tokens **plus the
  landmark's tokens injected per attribute** (appended after the varying
  tokens, with shifted positions).  Perturbations of the augmented entity
  reach into the matching class even for strongly non-matching records,
  which is what makes non-match explanations "interesting".

``injection_fraction`` (default 1.0 = the paper's behaviour) is exposed for
the ablation benchmark: inject only the first ``ceil(fraction · n)``
landmark tokens per attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.data.records import RecordPair
from repro.exceptions import ConfigurationError, ExplanationError
from repro.text.tokenize import PrefixedToken, Tokenizer

GENERATION_SINGLE = "single"
GENERATION_DOUBLE = "double"

_OPPOSITE_SIDE = {"left": "right", "right": "left"}


@dataclass(frozen=True)
class GeneratedInstance:
    """The perturbation-ready view of one (record, landmark side) choice.

    ``tokens[i]`` is the i-th perturbable token of the varying entity and
    ``injected[i]`` tells whether it was copied in from the landmark
    (always ``False`` under single-entity generation).
    """

    pair: RecordPair
    landmark_side: str
    generation: str
    tokens: tuple[PrefixedToken, ...]
    injected: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.injected):
            raise ExplanationError(
                f"{len(self.tokens)} tokens but {len(self.injected)} "
                "injection flags"
            )
        names = [token.prefixed for token in self.tokens]
        if len(set(names)) != len(names):
            raise ExplanationError("duplicate prefixed tokens in instance")

    @property
    def varying_side(self) -> str:
        return _OPPOSITE_SIDE[self.landmark_side]

    @property
    def landmark_entity(self):
        return self.pair.entity(self.landmark_side)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Prefixed token strings — the interpretable feature names."""
        return tuple(token.prefixed for token in self.tokens)

    @property
    def n_injected(self) -> int:
        return sum(self.injected)


class LandmarkGenerator:
    """Builds :class:`GeneratedInstance` objects for both generation modes."""

    def __init__(self, injection_fraction: float = 1.0) -> None:
        if not 0.0 < injection_fraction <= 1.0:
            raise ConfigurationError(
                f"injection_fraction must be in (0, 1], got {injection_fraction}"
            )
        self.tokenizer = Tokenizer()
        self.injection_fraction = injection_fraction

    def generate(
        self,
        pair: RecordPair,
        landmark_side: str,
        generation: str = GENERATION_SINGLE,
    ) -> GeneratedInstance:
        """Prepare the perturbable token list for one landmark choice."""
        if landmark_side not in _OPPOSITE_SIDE:
            raise ConfigurationError(
                f"landmark_side must be 'left' or 'right', got {landmark_side!r}"
            )
        if generation not in (GENERATION_SINGLE, GENERATION_DOUBLE):
            raise ConfigurationError(
                f"generation must be 'single' or 'double', got {generation!r}"
            )
        varying_side = _OPPOSITE_SIDE[landmark_side]
        varying_entity = pair.entity(varying_side)
        tokens: list[PrefixedToken] = []
        injected: list[bool] = []
        for attribute in pair.schema.attributes:
            own = self.tokenizer.tokenize_value(attribute, varying_entity[attribute])
            tokens.extend(own)
            injected.extend([False] * len(own))
            if generation == GENERATION_DOUBLE:
                landmark_tokens = self.tokenizer.tokenize_value(
                    attribute, pair.entity(landmark_side)[attribute]
                )
                n_inject = math.ceil(len(landmark_tokens) * self.injection_fraction)
                for landmark_token in landmark_tokens[:n_inject]:
                    tokens.append(landmark_token.shifted(len(own)))
                    injected.append(True)
        return GeneratedInstance(
            pair=pair,
            landmark_side=landmark_side,
            generation=generation,
            tokens=tuple(tokens),
            injected=tuple(injected),
        )
