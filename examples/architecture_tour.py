"""A tour of the pipeline — the paper's Figure 2, executed step by step.

Figure 2 contrasts a generic post-hoc perturbation explainer (top row) with
its Landmark extension (bottom row).  This script drives each component by
hand on one record, printing the intermediate artifacts, so the
architecture is visible in data rather than in a diagram:

    Landmark generation → Perturbation generation → Pair reconstruction
        → Dataset reconstruction → Surrogate model creation
"""

import numpy as np

from repro import LogisticRegressionMatcher, PredictionEngine, load_dataset
from repro.core.columnar import landmark_batch
from repro.core.generation import GENERATION_DOUBLE, LandmarkGenerator
from repro.explainers.perturbation import sample_masks
from repro.surrogate.kernels import cosine_distance_to_ones, exponential_kernel
from repro.surrogate.linear_model import WeightedRidge

ASCII_PIPELINE = """
 generic explainer (Fig. 2, top):
   [record] -> Perturbation generation -> Dataset reconstruction
            -> Surrogate model creation -> explanation

 Landmark Explanation (Fig. 2, bottom):
   [record] -> Landmark generation  (x2: one per landmark side)
            -> Perturbation generation   (varying entity only)
            -> Pair reconstruction       (re-attach the frozen landmark)
            -> Dataset reconstruction    (black-box model labels pairs)
            -> Surrogate model creation  (weighted ridge)
            -> dual explanation
"""


def main() -> None:
    print(ASCII_PIPELINE)
    dataset = load_dataset("S-BR", seed=0, size_cap=450)
    matcher = LogisticRegressionMatcher().fit(dataset)
    record = next(pair for pair in dataset if not pair.is_match)
    print("record under explanation:")
    print(record.describe())

    # --- 1. Landmark generation -------------------------------------------
    generator = LandmarkGenerator()
    instance = generator.generate(record, "left", GENERATION_DOUBLE)
    print(f"\n[1] landmark generation: landmark={instance.landmark_side}, "
          f"varying={instance.varying_side}, generation={instance.generation}")
    print(f"    {len(instance.tokens)} perturbable tokens "
          f"({instance.n_injected} injected from the landmark):")
    print("    " + " ".join(token.prefixed for token in instance.tokens[:8]) + " ...")

    # --- 2. Perturbation generation ----------------------------------------
    rng = np.random.default_rng(0)
    masks = sample_masks(len(instance.tokens), 64, rng)
    print(f"\n[2] perturbation generation: {masks.shape[0]} binary masks over "
          f"{masks.shape[1]} tokens (first row = unperturbed)")

    # --- 3. Pair reconstruction --------------------------------------------
    batch = landmark_batch(instance, masks)
    example_pair = batch.pairs()[1]
    print(f"\n[3] pair reconstruction: {len(batch)} pairs as one columnar batch;"
          " mask #1 (varying side only changes):")
    print(f"    right.beer_name: {example_pair.right['beer_name']!r}")
    print(f"    left .beer_name: {example_pair.left['beer_name']!r}  (frozen)")

    # --- 4. Dataset reconstruction -----------------------------------------
    engine = PredictionEngine(matcher)
    probabilities = engine.predict_instance(instance, masks)
    print(f"\n[4] dataset reconstruction: model probabilities for every mask")
    print(f"    p(original augmented record) = {probabilities[0]:.3f}, "
          f"range over perturbations = [{probabilities.min():.3f}, "
          f"{probabilities.max():.3f}]")

    # --- 5. Surrogate model creation ----------------------------------------
    distances = cosine_distance_to_ones(masks)
    weights = exponential_kernel(distances)
    surrogate = WeightedRidge(alpha=1.0).fit(
        masks.astype(float), probabilities, weights
    )
    print("\n[5] surrogate model creation (weighted ridge):")
    print(f"    R² = {surrogate.score(masks.astype(float), probabilities, weights):.3f}")
    order = np.argsort(-np.abs(surrogate.coef_))[:5]
    for index in order:
        token = instance.tokens[int(index)]
        origin = "injected" if instance.injected[int(index)] else "own"
        print(f"    {surrogate.coef_[int(index)]:+.4f}  {token.word:<16} "
              f"[{token.attribute}, {origin}]")
    print("\nThese five steps are exactly what LandmarkExplainer.explain() runs, "
          "once per landmark side.")


if __name__ == "__main__":
    main()
