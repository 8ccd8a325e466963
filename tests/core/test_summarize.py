"""Tests for global explanation summaries."""

import json

import pytest

from repro.core.landmark import LandmarkExplainer
from repro.core.summarize import GlobalSummary, summarize_explanations
from repro.exceptions import ExplanationError
from repro.explainers.lime_text import LimeConfig


def merge_summaries(partials) -> GlobalSummary:
    """Merge chunk partials, in iteration order, into one summary."""
    merged = GlobalSummary()
    for partial in partials:
        merged.merge(partial)
    return merged


@pytest.fixture(scope="module")
def duals(beer_matcher, beer_dataset):
    explainer = LandmarkExplainer(
        beer_matcher, lime_config=LimeConfig(n_samples=32, seed=0), seed=0
    )
    return [explainer.explain(pair) for pair in beer_dataset.pairs[:6]]


class TestGlobalSummary:
    def test_counts_explanations(self, duals):
        summary = summarize_explanations(duals)
        assert summary.n_explanations == len(duals)

    def test_attribute_report_covers_schema(self, duals, beer_dataset):
        summary = summarize_explanations(duals)
        attributes = {attribute for attribute, _, _ in summary.attribute_report()}
        assert attributes <= set(beer_dataset.schema.attributes)
        assert attributes  # at least one attribute got tokens

    def test_attribute_report_sorted(self, duals):
        summary = summarize_explanations(duals)
        weights = [weight for _, weight, _ in summary.attribute_report()]
        assert weights == sorted(weights, reverse=True)

    def test_top_words_min_count_filter(self, duals):
        summary = summarize_explanations(duals)
        frequent = summary.top_words(k=100, min_count=2)
        assert all(count >= 2 for _, _, count in frequent)

    def test_top_words_sign_filter(self, duals):
        summary = summarize_explanations(duals)
        for _, weight, _ in summary.top_words(k=10, min_count=1, sign="positive"):
            assert weight > 0
        with pytest.raises(ValueError):
            summary.top_words(sign="weird")

    def test_incremental_add_matches_batch(self, duals):
        batch = summarize_explanations(duals)
        incremental = GlobalSummary()
        for dual in duals:
            incremental.add(dual)
        assert incremental.n_explanations == batch.n_explanations
        assert incremental.attribute_report() == batch.attribute_report()

    def test_render(self, duals):
        text = summarize_explanations(duals).render(5)
        assert "global summary" in text
        assert "attributes by mean" in text

    def test_empty_summary(self):
        summary = GlobalSummary()
        assert summary.n_explanations == 0
        assert summary.top_words() == []
        assert summary.attribute_report() == []


def _exact_state(summary):
    """Every accumulator bit, for exact-equality assertions."""
    return summary.to_payload()


class TestStreamingMerge:
    """The mergeable streaming accumulator (bulk-job substrate)."""

    def test_chunked_merge_matches_in_memory_report(self, duals):
        """Chunk partials merged in order reproduce the one-pass report.

        Counts are exact; weight totals agree to float-regrouping noise
        (~1e-16), which vanishes in the rendered report.
        """
        reference = summarize_explanations(duals)
        partials = [
            summarize_explanations(duals[i:i + 2])
            for i in range(0, len(duals), 2)
        ]
        merged = merge_summaries(partials)
        assert merged.n_explanations == reference.n_explanations
        assert set(merged.words) == set(reference.words)
        for word, acc in merged.words.items():
            assert acc.count == reference.words[word].count
            assert acc.total_weight == pytest.approx(
                reference.words[word].total_weight, rel=1e-12, abs=1e-15
            )
        assert merged.render(10) == reference.render(10)

    def test_resume_fold_is_bit_identical_to_uninterrupted(self, duals):
        """The bulk --resume arithmetic: fold a prefix, round-trip the
        cumulative summary through JSON (a journal chunk event), restore,
        fold the remainder — bit-identical to one uninterrupted fold."""
        uninterrupted = summarize_explanations(duals)
        running = summarize_explanations(duals[:3])
        restored = GlobalSummary.from_payload(
            json.loads(json.dumps(running.to_payload()))
        )
        for dual in duals[3:]:
            restored.add(dual)
        assert _exact_state(restored) == _exact_state(uninterrupted)
        assert restored.render(10) == uninterrupted.render(10)

    def test_merge_is_associative_over_grouping(self, duals):
        flat = merge_summaries(summarize_explanations([d]) for d in duals)
        left = summarize_explanations(duals[:3]).merge(
            summarize_explanations(duals[3:])
        )
        assert flat.n_explanations == left.n_explanations
        assert set(flat.words) == set(left.words)
        for word in flat.words:
            assert flat.words[word].count == left.words[word].count
            assert flat.words[word].total_weight == pytest.approx(
                left.words[word].total_weight, rel=1e-12, abs=1e-15
            )

    def test_payload_round_trip_is_exact(self, duals):
        reference = summarize_explanations(duals)
        payload = json.loads(json.dumps(reference.to_payload()))
        restored = GlobalSummary.from_payload(payload)
        assert _exact_state(restored) == _exact_state(reference)
        assert restored.render(8) == reference.render(8)

    def test_journaled_chunk_merge_is_bit_identical(self, duals):
        """The bulk resume arithmetic: JSON-journaled partials merged in
        chunk order equal the uninterrupted merge of the same partials."""
        partials = [summarize_explanations([d]) for d in duals]
        uninterrupted = merge_summaries(partials)
        journaled = merge_summaries(
            GlobalSummary.from_payload(json.loads(json.dumps(p.to_payload())))
            for p in partials
        )
        assert _exact_state(journaled) == _exact_state(uninterrupted)

    def test_add_result_payload_matches_direct_add(self, duals):
        from repro.core.serialize import dual_to_dict

        direct = summarize_explanations(duals[:2])
        streamed = GlobalSummary()
        for dual in duals[:2]:
            streamed.add_result_payload(
                {"duals": {"single": dual_to_dict(dual)}}
            )
        assert _exact_state(streamed) == _exact_state(direct)

    def test_add_result_payload_rejects_malformed(self):
        with pytest.raises(ExplanationError):
            GlobalSummary().add_result_payload({"nope": 1})

    def test_from_payload_rejects_malformed(self):
        with pytest.raises(ExplanationError):
            GlobalSummary.from_payload({"n_explanations": "x"})
        with pytest.raises(ExplanationError):
            GlobalSummary.from_payload({"n_explanations": 1})

    def test_merge_empty_is_identity(self, duals):
        reference = summarize_explanations(duals)
        merged = merge_summaries([GlobalSummary(), reference, GlobalSummary()])
        assert _exact_state(merged) == _exact_state(reference)
