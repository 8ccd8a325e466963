"""Global explanation summaries (the paper's stated future work).

"Future work includes the study of techniques for summarizing the
explanations to facilitate the interpretation of the EM model as a whole."
This module implements a straightforward such technique: aggregate many
local (dual) explanations into global per-word and per-attribute impact
statistics.

For every word we track how often it appeared, its mean signed weight and
its mean absolute weight; attributes aggregate the same over their tokens.
The result answers questions like "which words does the model treat as
match evidence across the whole dataset?".

The summary is a *streaming* accumulator: it holds per-token aggregates,
never the explanations themselves, so memory is bounded by the vocabulary
regardless of how many explanations flow through.  Partial summaries are
**mergeable** (:meth:`GlobalSummary.merge` is associative) and round-trip
through JSON (:meth:`~GlobalSummary.to_payload` /
:meth:`~GlobalSummary.from_payload`) without losing a bit — floats
survive the trip exactly — which is what lets the bulk runner
(:mod:`repro.bulk`) journal one partial per completed chunk and rebuild
the dataset-wide report bit-identically on ``--resume``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.explanation import DualExplanation
from repro.exceptions import ExplanationError

#: Canonical fold order of a result payload's generations.
_CANONICAL_GENERATIONS = ("single", "double")


def _generation_order(duals: dict) -> list[str]:
    """Keys of *duals* in canonical fold order.

    JSON round trips (``sort_keys=True`` in the store) reorder dict
    keys; folding in a fixed order instead keeps the arithmetic — and
    therefore the summary bits — independent of where a payload has
    been.
    """
    known = [g for g in _CANONICAL_GENERATIONS if g in duals]
    extra = sorted(set(duals) - set(_CANONICAL_GENERATIONS))
    return known + extra


@dataclass
class _Accumulator:
    count: int = 0
    total_weight: float = 0.0
    total_abs_weight: float = 0.0

    def add(self, weight: float) -> None:
        self.count += 1
        self.total_weight += weight
        self.total_abs_weight += abs(weight)

    def merge(self, other: "_Accumulator") -> None:
        self.count += other.count
        self.total_weight += other.total_weight
        self.total_abs_weight += other.total_abs_weight

    @property
    def mean_weight(self) -> float:
        return self.total_weight / self.count if self.count else 0.0

    @property
    def mean_abs_weight(self) -> float:
        return self.total_abs_weight / self.count if self.count else 0.0


@dataclass
class GlobalSummary:
    """Aggregated impact of words and attributes across many explanations."""

    n_explanations: int = 0
    words: dict[str, _Accumulator] = field(default_factory=dict)
    attributes: dict[str, _Accumulator] = field(default_factory=dict)

    def add(self, dual: DualExplanation) -> None:
        """Fold one dual explanation into the summary (original tokens only)."""
        self.n_explanations += 1
        for entry in dual.combined().entries:
            self.words.setdefault(entry.word, _Accumulator()).add(entry.weight)
            self.attributes.setdefault(entry.attribute, _Accumulator()).add(
                entry.weight
            )

    def add_result_payload(self, payload: dict) -> None:
        """Fold a service/bulk result payload (its ``duals`` section).

        The payload shape is what :class:`~repro.service.service.
        ExplanationService` stores and returns.  Generations fold in the
        *canonical* order (single, then double, then anything unknown
        alphabetically) — never the dict's own order, because a
        ``sort_keys`` JSON round trip through the store reorders keys
        and float addition is order-sensitive.  Canonical order is what
        makes a store-served payload fold bit-identically to the freshly
        computed one.
        """
        from repro.core.serialize import dual_from_dict

        duals = payload.get("duals")
        if not isinstance(duals, dict):
            raise ExplanationError(
                "result payload has no 'duals' section to summarize"
            )
        for generation in _generation_order(duals):
            self.add(dual_from_dict(duals[generation]))

    def merge(self, other: "GlobalSummary") -> "GlobalSummary":
        """Fold *other* into this summary in place (and return ``self``).

        Counts merge exactly; weight totals are float sums, so a merge
        of chunk partials agrees with a one-pass fold only up to float
        regrouping noise (identical rendered reports, ~1e-16 totals).
        Merging the *same* partials in the *same* order is always
        bit-reproducible.  For bit-identical ``--resume`` the bulk
        runner therefore journals the cumulative summary after each
        chunk — restoring it via :meth:`from_payload` and continuing
        the fold replays the uninterrupted arithmetic exactly.
        """
        self.n_explanations += other.n_explanations
        for word, acc in other.words.items():
            self.words.setdefault(word, _Accumulator()).merge(acc)
        for attribute, acc in other.attributes.items():
            self.attributes.setdefault(attribute, _Accumulator()).merge(acc)
        return self

    def to_payload(self) -> dict:
        """A JSON-serializable snapshot (exact float round-trip)."""
        return {
            "n_explanations": self.n_explanations,
            "words": {
                word: [acc.count, acc.total_weight, acc.total_abs_weight]
                for word, acc in sorted(self.words.items())
            },
            "attributes": {
                attribute: [acc.count, acc.total_weight, acc.total_abs_weight]
                for attribute, acc in sorted(self.attributes.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GlobalSummary":
        """Rebuild a summary written by :meth:`to_payload`."""
        try:
            summary = cls(n_explanations=int(payload["n_explanations"]))
            for section, target in (
                ("words", summary.words),
                ("attributes", summary.attributes),
            ):
                for name, (count, total, total_abs) in payload[section].items():
                    target[name] = _Accumulator(
                        count=int(count),
                        total_weight=float(total),
                        total_abs_weight=float(total_abs),
                    )
        except (KeyError, TypeError, ValueError) as error:
            raise ExplanationError(
                f"malformed summary payload: {error}"
            ) from error
        return summary

    def top_words(
        self, k: int = 20, min_count: int = 2, sign: str | None = None
    ) -> list[tuple[str, float, int]]:
        """(word, mean weight, count), strongest mean |weight| first.

        ``sign`` filters to words whose *mean* weight is positive (global
        match evidence) or negative (global mismatch evidence).
        """
        rows = [
            (word, acc.mean_weight, acc.count)
            for word, acc in self.words.items()
            if acc.count >= min_count
        ]
        if sign == "positive":
            rows = [row for row in rows if row[1] > 0]
        elif sign == "negative":
            rows = [row for row in rows if row[1] < 0]
        elif sign is not None:
            raise ValueError(f"sign must be 'positive', 'negative' or None: {sign!r}")
        rows.sort(key=lambda row: -abs(row[1]))
        return rows[:k]

    def attribute_report(self) -> list[tuple[str, float, int]]:
        """(attribute, mean |weight|, token count), heaviest first."""
        rows = [
            (attribute, acc.mean_abs_weight, acc.count)
            for attribute, acc in self.attributes.items()
        ]
        rows.sort(key=lambda row: -row[1])
        return rows

    def render(self, k: int = 15) -> str:
        """Readable global report."""
        lines = [f"global summary over {self.n_explanations} explanations"]
        lines.append("attributes by mean |weight|:")
        for attribute, weight, count in self.attribute_report():
            lines.append(f"  {attribute:<20} {weight:+.4f}  (n={count})")
        lines.append(f"top {k} words by mean |weight|:")
        for word, weight, count in self.top_words(k):
            lines.append(f"  {word:<24} {weight:+.4f}  (n={count})")
        return "\n".join(lines)


def summarize_explanations(
    explanations: Iterable[DualExplanation] | Sequence[DualExplanation],
) -> GlobalSummary:
    """Aggregate an iterable of dual explanations into a global summary."""
    summary = GlobalSummary()
    for dual in explanations:
        summary.add(dual)
    return summary
