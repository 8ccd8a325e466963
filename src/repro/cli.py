"""The ``repro-em`` command line.

Sub-commands:

* ``datasets`` — print Table 1 (nominal, or measured with ``--materialize``)
  and optionally export the synthetic CSVs.
* ``train`` — train a matcher on one dataset and print its quality report.
* ``explain`` — explain one record of a dataset with Landmark Explanation
  (and optionally the baselines) and print the rendered explanations.
* ``experiment`` — run the full evaluation protocol and print Tables 2-4
  (``--preset fast`` by default; ``--preset paper`` reproduces the paper's
  sample sizes).
* ``summarize`` — aggregate explanations over many records into a global
  model summary (the paper's future-work direction).
* ``serve`` — run the long-lived explanation service (JSONL over
  stdin/stdout, or a localhost HTTP endpoint with ``--http``), backed by
  the persistent explanation store.  With ``--backend HOST:PORT`` the
  service computes no predictions locally: every matcher call goes to a
  shared ``serve-matcher`` process.
* ``serve-matcher`` — run the standalone matcher server one or many
  service shards dial with ``--backend``.
* ``serve-shard`` — run one standing shard host of a cross-host fleet;
  a ``serve --fleet fleet.json`` supervisor adopts it over TCP and it
  keeps its engines and store partition warm across supervisor
  disconnects (partitions).
* ``precompute`` — warm the explanation store for a dataset split,
  resumable with ``--resume``, which skips every key the store can
  already serve (the store-only bulk job in :mod:`repro.bulk.warm`).
* ``bulk`` — dataset-scale bulk explanation job: stream a pair source
  (dataset rows, blocker candidates, an explicit pair list, or an
  external CSV via ``--input``) through the prediction engine in chunks,
  deduplicate against the explanation store, fold every explanation into
  a streaming global aggregation report, and journal completed chunks so
  ``--resume`` reproduces an uninterrupted run byte-for-byte.
* ``counterfactual`` — search the minimal token edits that flip one
  record's prediction.
* ``report`` — write one record's explanation as an HTML or markdown
  report.
* ``profile`` — print a dataset's token-overlap profile.
* ``compare`` — diff two saved experiment runs.
* ``selftest`` — a ~10 s end-to-end installation check.

Every flag that sets a config field is declared once, on that field in
:mod:`repro.config`: :func:`~repro.config.add_config_arguments` builds it
and :func:`~repro.config.config_from_namespace` reads it back.

``train``, ``explain``, ``serve`` and ``precompute`` accept
``--model-dir``: trained matchers are persisted there as fingerprinted
artifacts and reused instead of retraining on every invocation.  On the
serving paths (``serve-matcher``) artifact loading is *strict*: a
fingerprint mismatch is :class:`~repro.exceptions.ArtifactMismatchError`,
never a silent retrain.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from repro.config import (
    EngineConfig,
    GuardConfig,
    ServiceConfig,
    ShardConfig,
    StoreConfig,
    add_config_arguments,
    config_from_namespace,
    get_preset,
)
from repro.core.engine import PredictionEngine
from repro.data.io import write_csv
from repro.data.splits import sample_per_label
from repro.data.synthetic.magellan import (
    DATASET_CODES,
    load_benchmark,
    load_dataset,
    table1_rows,
)
from repro.core.landmark import LandmarkExplainer
from repro.exceptions import ExplanationError, ReproError
from repro.explainers.lime_text import LimeConfig
from repro.matchers.evaluate import evaluate_matcher
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.embedding import EmbeddingMatcher
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.matchers.neural import MLPMatcher
from repro.matchers.rules import RuleBasedMatcher

_MATCHERS = {
    "logistic": LogisticRegressionMatcher,
    "mlp": MLPMatcher,
    "rules": RuleBasedMatcher,
    "boosted": GradientBoostedStumpsMatcher,
    "embedding": EmbeddingMatcher,
}


def _add_common_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="S-BR", choices=DATASET_CODES, help="benchmark code"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--size-cap", type=int, default=None, help="cap the generated dataset size"
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", nargs="?", const="trace.json", default=None, metavar="PATH",
        help="record pipeline trace spans and write them as JSON on exit "
             "(default path: trace.json); results are identical either way",
    )


def _obs_registry(args: argparse.Namespace):
    """The run's metrics registry; starts tracing when --trace asks."""
    from repro.obs import MetricsRegistry, trace

    if getattr(args, "trace", None) is not None:
        trace.enable()
    return MetricsRegistry()


def _obs_finish(args: argparse.Namespace, registry,
                metrics_path: Path | None = None) -> None:
    """Write the trace / metrics artifacts the flags asked for."""
    from repro.evaluation.persistence import save_metrics
    from repro.obs import trace

    if getattr(args, "trace", None) is not None:
        path = trace.save(args.trace)
        trace.disable()
        print(f"wrote {path}", file=sys.stderr)
    if metrics_path is not None:
        save_metrics(registry, metrics_path)
        print(f"wrote {metrics_path}", file=sys.stderr)


def _add_matcher_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--matcher", default="logistic", choices=sorted(_MATCHERS)
    )
    parser.add_argument(
        "--model-dir", type=Path, default=None,
        help="persist/load trained matchers as fingerprinted artifacts "
             "here instead of retraining on every invocation",
    )


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    _add_matcher_arguments(parser)
    parser.add_argument(
        "--store-dir", type=Path, default=None,
        help="directory of the persistent explanation store",
    )
    parser.add_argument(
        "--samples", type=int, default=128,
        help="default perturbation budget per request",
    )
    parser.add_argument(
        "--explainer", default="lime", choices=("lime", "shap"),
        help="default generic explainer per request",
    )
    parser.add_argument(
        "--backend", default=None, metavar="HOST:PORT",
        help="serve predictions from a remote serve-matcher process at "
             "this address instead of training/loading a matcher locally "
             "(all shards share the one model; the routing fingerprint "
             "is taken from its handshake)",
    )
    parser.add_argument(
        "--fleet", type=Path, default=None, metavar="FLEET.JSON",
        help="run the shards on standing serve-shard hosts described by "
             "this fleet file ({\"shards\": [{\"id\", \"host\", \"port\"}], "
             "\"standbys\": [...], \"quorum\": N}) instead of spawning "
             "local processes; the file, not a flag, sets the shard count",
    )
    add_config_arguments(
        parser, ServiceConfig, ShardConfig, StoreConfig, GuardConfig
    )
    _add_obs_arguments(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-em",
        description="Landmark Explanation (EDBT 2021) reproduction toolkit",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser("datasets", help="print/export Table 1")
    datasets.add_argument("--materialize", action="store_true")
    datasets.add_argument("--export-dir", type=Path, default=None)
    datasets.add_argument("--seed", type=int, default=0)
    datasets.add_argument("--size-cap", type=int, default=None)

    train = subparsers.add_parser("train", help="train and evaluate a matcher")
    _add_common_dataset_arguments(train)
    _add_matcher_arguments(train)
    train.add_argument("--threshold", type=float, default=0.5)

    explain = subparsers.add_parser("explain", help="explain one record")
    _add_common_dataset_arguments(explain)
    _add_matcher_arguments(explain)
    explain.add_argument("--record", type=int, default=0, help="record index")
    explain.add_argument(
        "--generation", default="auto", choices=("auto", "single", "double")
    )
    explain.add_argument("--samples", type=int, default=256)
    explain.add_argument("--top", type=int, default=5)
    explain.add_argument(
        "--explainer", default="lime", choices=("lime", "shap"),
        help="generic explainer to couple with the landmark pipeline",
    )
    explain.add_argument(
        "--baselines", action="store_true", help="also run LIME drop / Mojito copy"
    )
    _add_obs_arguments(explain)

    experiment = subparsers.add_parser("experiment", help="run Tables 2-4")
    experiment.add_argument(
        "--preset", default="fast", choices=("fast", "paper", "bench")
    )
    experiment.add_argument(
        "--datasets", nargs="*", default=None, choices=DATASET_CODES, metavar="CODE"
    )
    experiment.add_argument("--output", type=Path, default=None)
    experiment.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (datasets run in parallel)",
    )
    experiment.add_argument(
        "--run-dir", type=Path, default=None,
        help="checkpoint each completed grid cell into this directory",
    )
    experiment.add_argument(
        "--resume", action="store_true",
        help="resume the run checkpointed in --run-dir (config is read "
             "from the checkpoint; completed cells are skipped)",
    )
    add_config_arguments(experiment, GuardConfig)
    _add_obs_arguments(experiment)

    serve = subparsers.add_parser(
        "serve", help="long-running explanation service (JSONL stdio / HTTP)"
    )
    _add_common_dataset_arguments(serve)
    _add_service_arguments(serve)
    serve.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="serve over HTTP on this address instead of stdin/stdout",
    )

    serve_matcher = subparsers.add_parser(
        "serve-matcher",
        help="standalone matcher server shared by service shards",
    )
    _add_common_dataset_arguments(serve_matcher)
    _add_matcher_arguments(serve_matcher)
    serve_matcher.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_matcher.add_argument(
        "--port", type=int, default=7654,
        help="bind port (0 picks an ephemeral one)",
    )
    serve_matcher.add_argument(
        "--server-workers", type=int, default=4,
        help="prediction threads serving concurrent in-flight batches",
    )
    serve_matcher.add_argument(
        "--max-batch-size", type=int, default=None,
        help="largest row count one predict call may carry "
             "(default: the protocol default, 4096)",
    )

    serve_shard = subparsers.add_parser(
        "serve-shard",
        help="standing shard host adopted by a --fleet supervisor",
    )
    serve_shard.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_shard.add_argument(
        "--port", type=int, default=9301,
        help="bind port (0 picks an ephemeral one)",
    )
    serve_shard.add_argument(
        "--store-dir", type=Path, default=None,
        help="host-local directory for this shard's store partition "
             "(default: serve without a persistent store)",
    )
    add_config_arguments(serve_shard, StoreConfig)

    precompute = subparsers.add_parser(
        "precompute", help="warm the explanation store for a dataset split"
    )
    _add_common_dataset_arguments(precompute)
    _add_service_arguments(precompute)
    precompute.add_argument(
        "--per-label", type=int, default=None,
        help="records per label to warm (default: every record)",
    )
    precompute.add_argument(
        "--method", default="both",
        choices=("single", "double", "auto", "both"),
    )
    precompute.add_argument(
        "--resume", action="store_true",
        help="skip keys the store can already serve, whoever warmed them",
    )

    bulk = subparsers.add_parser(
        "bulk",
        help="dataset-scale bulk explanation job with streaming "
             "aggregation and resumable chunk journaling",
    )
    _add_common_dataset_arguments(bulk)
    bulk.add_argument(
        "--input", type=Path, default=None, metavar="CSV",
        help="explain pairs from this CSV instead of a synthetic "
             "benchmark; ill-formed rows are ledgered per record and "
             "skipped, never fatal",
    )
    _add_matcher_arguments(bulk)
    bulk.add_argument(
        "--source", default="rows", choices=("rows", "block"),
        help="'rows' explains the dataset's own pairs; 'block' re-blocks "
             "the two entity tables with the inverted-index blocker and "
             "explains every candidate",
    )
    bulk.add_argument(
        "--pairs-file", type=Path, default=None,
        help="explicit pair list (one row index or 'left,right' per "
             "line); overrides --source",
    )
    bulk.add_argument(
        "--per-label", type=int, default=None,
        help="with --source rows: records per label (default: all rows)",
    )
    bulk.add_argument(
        "--min-shared-tokens", type=int, default=1,
        help="blocker threshold for --source block",
    )
    bulk.add_argument(
        "--max-token-frequency", type=float, default=0.25,
        help="blocker stop-token cutoff for --source block",
    )
    bulk.add_argument(
        "--method", default="both",
        choices=("single", "double", "auto", "both"),
    )
    bulk.add_argument("--samples", type=int, default=128)
    bulk.add_argument(
        "--explainer", default="lime", choices=("lime", "shap")
    )
    bulk.add_argument(
        "--chunk-size", type=int, default=64,
        help="pairs per chunk (one store transaction and one journal "
             "event per chunk; results are identical for any size)",
    )
    bulk.add_argument(
        "--run-dir", type=Path, default=None,
        help="journal completed chunks here so --resume can continue",
    )
    bulk.add_argument(
        "--resume", action="store_true",
        help="resume the job journaled in --run-dir; the finished report "
             "is byte-identical to an uninterrupted run's",
    )
    bulk.add_argument(
        "--report", type=Path, default=None,
        help="write the JSON aggregation report here",
    )
    bulk.add_argument(
        "--store-dir", type=Path, default=None,
        help="deduplicate against (and warm) this explanation store",
    )
    bulk.add_argument("--top", type=int, default=15)
    add_config_arguments(bulk, StoreConfig, GuardConfig)
    _add_obs_arguments(bulk)

    selftest = subparsers.add_parser(
        "selftest", help="end-to-end installation check (~10 s)"
    )
    selftest.add_argument("--seed", type=int, default=0)

    summarize = subparsers.add_parser(
        "summarize", help="global explanation summary over many records"
    )
    _add_common_dataset_arguments(summarize)
    summarize.add_argument("--per-label", type=int, default=10)
    summarize.add_argument("--samples", type=int, default=128)
    summarize.add_argument("--top", type=int, default=15)

    counterfactual = subparsers.add_parser(
        "counterfactual", help="minimal token edits that flip a prediction"
    )
    _add_common_dataset_arguments(counterfactual)
    counterfactual.add_argument("--record", type=int, default=0)
    counterfactual.add_argument(
        "--landmark", default="left", choices=("left", "right")
    )
    counterfactual.add_argument("--samples", type=int, default=128)
    counterfactual.add_argument("--max-edits", type=int, default=10)

    report = subparsers.add_parser(
        "report", help="write an HTML / markdown explanation report"
    )
    _add_common_dataset_arguments(report)
    report.add_argument("--record", type=int, default=0)
    report.add_argument("--samples", type=int, default=128)
    report.add_argument(
        "--format", default="html", choices=("html", "markdown")
    )
    report.add_argument("--output", type=Path, required=True)

    profile = subparsers.add_parser(
        "profile", help="token-overlap profile of a benchmark dataset"
    )
    _add_common_dataset_arguments(profile)

    compare = subparsers.add_parser(
        "compare", help="diff two saved experiment runs (JSON)"
    )
    compare.add_argument("baseline", type=Path)
    compare.add_argument("candidate", type=Path)
    return parser


# ---------------------------------------------------------------------------
# Matcher resolution (train-or-load behind --model-dir)
# ---------------------------------------------------------------------------


def _artifact_path(model_dir: Path, args: argparse.Namespace) -> Path:
    cap = args.size_cap if args.size_cap is not None else "full"
    name = f"{args.matcher}-{args.dataset}-seed{args.seed}-cap{cap}.pkl"
    return model_dir / name


def _resolve_matcher(args: argparse.Namespace, dataset):
    """Train the requested matcher, or reuse a persisted artifact.

    Without ``--model-dir`` this trains from scratch (the historical
    behaviour).  With it, the trained matcher is saved once as a
    fingerprinted artifact and loaded on every later invocation with the
    same (matcher, dataset, seed, size-cap) coordinates; an artifact that
    fails its integrity check is retrained and rewritten.
    """
    model_dir: Path | None = getattr(args, "model_dir", None)
    if model_dir is not None:
        from repro.core.serialize import load_matcher, save_matcher
        from repro.exceptions import ArtifactError

        path = _artifact_path(model_dir, args)
        if path.exists():
            try:
                matcher = load_matcher(path)
                logging.getLogger("repro.cli").info("loaded matcher %s", path)
                return matcher
            except ArtifactError as error:
                print(
                    f"warning: {error}; retraining", file=sys.stderr
                )
        matcher = _MATCHERS[args.matcher]().fit(dataset)
        fingerprint = save_matcher(matcher, path)
        # stderr: in `serve` stdio mode, stdout is the JSONL channel.
        print(
            f"saved matcher artifact {path} ({fingerprint[:12]})",
            file=sys.stderr,
        )
        return matcher
    return _MATCHERS[args.matcher]().fit(dataset)


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.evaluation.tables import format_table1

    materialized = None
    if args.materialize or args.export_dir:
        materialized = load_benchmark(seed=args.seed, size_cap=args.size_cap)
    print(format_table1(table1_rows(materialized)))
    if args.export_dir:
        args.export_dir.mkdir(parents=True, exist_ok=True)
        assert materialized is not None
        for code, dataset in materialized.items():
            path = args.export_dir / f"{code}.csv"
            write_csv(dataset, path)
            print(f"wrote {path} ({len(dataset)} pairs)")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    matcher = _resolve_matcher(args, dataset)
    quality = evaluate_matcher(matcher, dataset, threshold=args.threshold)
    print(f"{args.matcher} matcher on {args.dataset} ({len(dataset)} pairs)")
    print(quality.report())
    ranking = getattr(matcher, "attribute_ranking", None)
    if callable(ranking):
        print("attribute ranking:", " > ".join(ranking()))
    describe = getattr(matcher, "describe", None)
    if callable(describe):
        print(describe())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.service.request import ExplainRequest
    from repro.service.service import build_landmark_explainer

    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    if not 0 <= args.record < len(dataset):
        print(f"record index {args.record} out of range 0..{len(dataset) - 1}")
        return 2
    pair = dataset[args.record]
    matcher = _resolve_matcher(args, dataset)
    registry = _obs_registry(args)
    engine = PredictionEngine(matcher, metrics=registry)
    print(pair.describe())
    print(f"model match probability: {matcher.predict_one(pair):.3f}")
    explainer = build_landmark_explainer(
        matcher,
        engine,
        ExplainRequest(
            pair=pair,
            samples=args.samples,
            explainer=args.explainer,
            seed=args.seed,
        ),
    )
    dual = explainer.explain(pair, generation=args.generation)
    print(dual.render(args.top))
    if args.baselines:
        from repro.baselines.mojito import MojitoCopyExplainer, MojitoDropExplainer

        lime_config = LimeConfig(n_samples=args.samples, seed=args.seed)
        drop = MojitoDropExplainer(
            matcher, lime_config=lime_config, seed=args.seed, engine=engine
        )
        print(drop.explain(pair).render(args.top))
        copy = MojitoCopyExplainer(
            matcher, lime_config=lime_config, seed=args.seed, engine=engine
        )
        print(copy.explain(pair).render(args.top))
    print(engine.stats.summary())
    _obs_finish(args, registry)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.evaluation.runner import ExperimentRunner
    from repro.evaluation.tables import format_all_tables

    if args.resume:
        # The checkpoint, not the command line, is the source of truth for
        # a resumed run's configuration: mixing presets would corrupt it.
        from repro.evaluation.persistence import load_checkpoint

        if args.run_dir is None:
            print("error: --resume requires --run-dir", file=sys.stderr)
            return 2
        config = load_checkpoint(args.run_dir).config
    else:
        config = dataclasses.replace(
            get_preset(args.preset),
            engine=config_from_namespace(EngineConfig, args),
        )
    registry = _obs_registry(args)
    runner = ExperimentRunner(config, metrics=registry)
    result = runner.run(
        args.datasets,
        n_jobs=args.jobs,
        run_dir=str(args.run_dir) if args.run_dir else None,
        resume=args.resume,
    )
    report = format_all_tables(result)
    print(report)
    totals = result.engine_totals()
    if totals is not None:
        print(totals.summary())
    ledger = result.ledger()
    if len(ledger):
        print(ledger.summary())
    if args.output:
        args.output.write_text(report + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    # metrics.json lands next to the run's checkpoint journal (or the
    # report, when only --output was given).  With --jobs > 1 the worker
    # processes accumulate into their own registry copies, so only the
    # serial path yields a complete snapshot — same rule as checkpoints.
    metrics_path = None
    if args.run_dir is not None:
        metrics_path = Path(args.run_dir) / "metrics.json"
    elif args.output is not None:
        metrics_path = args.output.parent / "metrics.json"
    _obs_finish(args, registry, metrics_path)
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.core.summarize import summarize_explanations

    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    explainer = LandmarkExplainer(
        matcher,
        lime_config=LimeConfig(n_samples=args.samples, seed=args.seed),
        seed=args.seed,
    )
    sample = sample_per_label(dataset, args.per_label, seed=args.seed)
    explanations = []
    for pair in sample:
        try:
            explanations.append(explainer.explain(pair))
        except ExplanationError:
            continue
    summary = summarize_explanations(explanations)
    print(summary.render(args.top))
    return 0


def _cmd_counterfactual(args: argparse.Namespace) -> int:
    from repro.core.counterfactual import greedy_counterfactual

    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    if not 0 <= args.record < len(dataset):
        print(f"record index {args.record} out of range 0..{len(dataset) - 1}")
        return 2
    pair = dataset[args.record]
    matcher = LogisticRegressionMatcher().fit(dataset)
    explainer = LandmarkExplainer(
        matcher,
        lime_config=LimeConfig(n_samples=args.samples, seed=args.seed),
        seed=args.seed,
    )
    print(pair.describe())
    landmark = explainer.explain_landmark(pair, args.landmark)
    counterfactual = greedy_counterfactual(
        landmark, matcher, max_edits=args.max_edits
    )
    print(counterfactual.render())
    return 0 if counterfactual.flipped else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import save_html, to_markdown

    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    if not 0 <= args.record < len(dataset):
        print(f"record index {args.record} out of range 0..{len(dataset) - 1}")
        return 2
    pair = dataset[args.record]
    matcher = LogisticRegressionMatcher().fit(dataset)
    explainer = LandmarkExplainer(
        matcher,
        lime_config=LimeConfig(n_samples=args.samples, seed=args.seed),
        seed=args.seed,
    )
    dual = explainer.explain(pair)
    if args.format == "html":
        save_html(dual, args.output)
    else:
        args.output.write_text(to_markdown(dual) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.data.profiling import profile_dataset

    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    profile = profile_dataset(dataset)
    print(profile.render())
    print("attributes by class separation:",
          " > ".join(profile.ranking_by_separation()))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.evaluation.persistence import compare_results, load_result

    baseline = load_result(args.baseline)
    candidate = load_result(args.candidate)
    print(compare_results(baseline, candidate))
    return 0


def _build_service(args: argparse.Namespace):
    """Assemble (service, store, dataset, defaults) from the service flags.

    Every config is built from the flags before any data is loaded, so an
    invalid value fails with its :class:`~repro.exceptions.ConfigurationError`
    before a dataset is generated or a matcher trained.  More than one
    shard (or ``--fleet``) builds the multi-process
    :class:`~repro.service.supervisor.ShardedService`; each shard then
    owns its own store partition, so the returned ``store`` is ``None``
    (shutdown is entirely ``service.close()``'s job).
    """
    from repro.service import ExplanationService, ExplanationStore

    service_config = config_from_namespace(ServiceConfig, args)
    shard_config = config_from_namespace(ShardConfig, args)
    store_config = config_from_namespace(StoreConfig, args)
    engine_config = config_from_namespace(EngineConfig, args)
    fleet = None
    if args.fleet is not None:
        from repro.service import load_fleet_config

        fleet = load_fleet_config(args.fleet)
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    # Backend mode trains nothing: the model lives in the serve-matcher
    # process and its handshake fingerprint keys every request.
    matcher = None if args.backend else _resolve_matcher(args, dataset)
    registry = _obs_registry(args)
    defaults = {
        "method": "both",
        "samples": args.samples,
        "explainer": args.explainer,
        "seed": args.seed,
    }
    if fleet is not None or shard_config.n_shards > 1:
        from repro.service import ShardedService

        service = ShardedService(
            matcher,
            store_dir=args.store_dir,
            config=service_config,
            engine_config=engine_config,
            store_config=store_config,
            shard_config=shard_config,
            metrics=registry,
            backend_address=args.backend,
            fleet=fleet,
        )
        return service, None, dataset, defaults
    store = None
    if args.store_dir is not None:
        store = ExplanationStore(args.store_dir, store_config, metrics=registry)
    source = matcher
    if args.backend is not None:
        from repro.backends import RemoteBackend

        source = RemoteBackend(args.backend, metrics=registry)
    service = ExplanationService(
        source,
        store=store,
        config=service_config,
        engine_config=engine_config,
        metrics=registry,
    )
    return service, store, dataset, defaults


def _write_service_stats(service, store_dir: Path | None) -> None:
    if store_dir is None:
        return
    from repro.evaluation.persistence import save_service_stats

    # In fleet mode the store partitions live on the shard hosts, so
    # nothing has created the local store_dir yet.
    Path(store_dir).mkdir(parents=True, exist_ok=True)
    path = Path(store_dir) / "service_stats.json"
    save_service_stats(service.stats_payload(), path)
    print(f"wrote {path}", file=sys.stderr)


def _install_drain_handler() -> None:
    """Turn SIGTERM into a graceful drain (via the serve cleanup path).

    Raising ``SystemExit`` in the main thread unwinds ``serve_forever`` /
    the stdio loop into ``_cmd_serve``'s ``finally`` block, which closes
    the service with its drain budget and prints the drain summary.
    """
    import signal

    def _on_sigterm(signum, frame):
        print("received SIGTERM: draining...", file=sys.stderr)
        raise SystemExit(0)

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - not in the main thread
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve_http, serve_stdio

    service, store, dataset, defaults = _build_service(args)
    _install_drain_handler()
    try:
        if args.http:
            host, _, port = args.http.rpartition(":")
            server = serve_http(
                service, dataset, defaults,
                host=host or "127.0.0.1", port=int(port),
            )
            address = "http://%s:%d" % server.server_address[:2]
            print(f"serving on {address} (Ctrl-C to stop)", file=sys.stderr)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                server.shutdown()
                server.server_close()
        else:
            serve_stdio(service, dataset, defaults)
    finally:
        drain = service.close()
        if "shards" in drain:
            print(
                f"drain: {len(drain['shards'])} shard(s) drained, "
                f"{drain.get('abandoned', 0)} request(s) abandoned",
                file=sys.stderr,
            )
        else:
            print(
                f"drain: {drain.get('pending_at_close', 0)} pending at close, "
                f"{drain.get('cancelled', 0)} cancelled, "
                f"{drain.get('seconds', 0.0)}s",
                file=sys.stderr,
            )
        print(service.stats.summary(), file=sys.stderr)
        _write_service_stats(service, args.store_dir)
        metrics_path = (
            Path(args.store_dir) / "metrics.json"
            if args.store_dir is not None else None
        )
        _obs_finish(args, service.metrics, None)
        if metrics_path is not None:
            # service.metrics_json() is fleet-aware: sharded, it merges
            # every shard's final families next to the router's own.
            import json as _json

            metrics_path.write_text(
                _json.dumps(
                    service.metrics_json(), indent=2, sort_keys=True
                ),
                encoding="utf-8",
            )
            print(f"wrote {metrics_path}", file=sys.stderr)
        if store is not None:
            store.close()
    return 0


def _cmd_serve_matcher(args: argparse.Namespace) -> int:
    """Run the standalone matcher server behind ``--backend``."""
    from repro.backends import DEFAULT_MAX_BATCH_SIZE, MatcherServer

    if args.model_dir is not None:
        # Strict on serving paths: a bad or stale artifact is a startup
        # failure (ArtifactError / ArtifactMismatchError), never a
        # silent retrain — shards already minted keys for a fingerprint.
        from repro.core.serialize import load_matcher

        path = _artifact_path(args.model_dir, args)
        matcher = load_matcher(path)
        print(f"loaded matcher artifact {path}", file=sys.stderr)
    else:
        dataset = load_dataset(
            args.dataset, seed=args.seed, size_cap=args.size_cap
        )
        matcher = _MATCHERS[args.matcher]().fit(dataset)
    server = MatcherServer(
        matcher,
        host=args.host,
        port=args.port,
        max_batch_size=(
            DEFAULT_MAX_BATCH_SIZE if args.max_batch_size is None
            else args.max_batch_size
        ),
        workers=args.server_workers,
    )
    host, port = server.start()
    capabilities = server.capabilities
    print(
        f"serving matcher on {host}:{port} "
        f"({capabilities.matcher_class}, fingerprint "
        f"{capabilities.fingerprint[:12]}, pid {os.getpid()})",
        file=sys.stderr,
    )
    _install_drain_handler()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print("matcher server stopped", file=sys.stderr)
    return 0


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    """Run one standing shard host for a ``--fleet`` supervisor."""
    from repro.service import ShardServer

    server = ShardServer(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        store_config=config_from_namespace(StoreConfig, args),
    )
    print(
        f"serving shard on {server.host}:{server.port} (pid {os.getpid()})",
        file=sys.stderr,
    )
    _install_drain_handler()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print("shard host stopped", file=sys.stderr)
    return 0


def _cmd_precompute(args: argparse.Namespace) -> int:
    from repro.bulk.warm import precompute

    service, store, dataset, _ = _build_service(args)
    try:
        report = precompute(
            service,
            dataset,
            per_label=args.per_label,
            method=args.method,
            samples=args.samples,
            explainer=args.explainer,
            seed=args.seed,
            resume=args.resume,
        )
    finally:
        service.close()
    print(report.summary())
    print(service.stats.summary())
    _write_service_stats(service, args.store_dir)
    metrics_path = (
        Path(args.store_dir) / "metrics.json"
        if args.store_dir is not None else None
    )
    _obs_finish(args, service.metrics, metrics_path)
    if store is not None:
        store.close()
    return 0 if report.n_failed == 0 else 1


def _cmd_bulk(args: argparse.Namespace) -> int:
    import json

    from repro.bulk import (
        BlockedSource,
        BulkJob,
        BulkJobSpec,
        DatasetSource,
        PairListSource,
    )
    from repro.data.io import read_csv
    from repro.evaluation.ledger import (
        KIND_SKIPPED,
        FailureEntry,
        FailureLedger,
    )
    from repro.service import ExplanationStore

    if args.resume and args.run_dir is None:
        print("error: --resume requires --run-dir", file=sys.stderr)
        return 2
    store_config = config_from_namespace(StoreConfig, args)
    engine_config = config_from_namespace(EngineConfig, args)

    input_ledger = FailureLedger()
    if args.input is not None:
        dataset = read_csv(
            args.input,
            name=args.input.stem,
            on_row_error=lambda row, error: input_ledger.add(
                FailureEntry.from_exception(
                    dataset=args.input.stem,
                    label=-1,
                    method="read_csv",
                    record_id=row,
                    error=error,
                    kind=KIND_SKIPPED,
                )
            ),
        )
        if len(input_ledger):
            print(
                f"input: skipped {len(input_ledger)} ill-formed row(s) of "
                f"{args.input}",
                file=sys.stderr,
            )
    else:
        dataset = load_dataset(
            args.dataset, seed=args.seed, size_cap=args.size_cap
        )
    matcher = _resolve_matcher(args, dataset)
    registry = _obs_registry(args)

    if args.pairs_file is not None:
        source = PairListSource(dataset, args.pairs_file)
    elif args.source == "block":
        source = BlockedSource(
            dataset,
            min_shared_tokens=args.min_shared_tokens,
            max_token_frequency=args.max_token_frequency,
        )
    else:
        source = DatasetSource(dataset, per_label=args.per_label,
                               seed=args.seed)

    store = None
    if args.store_dir is not None:
        store = ExplanationStore(args.store_dir, store_config, metrics=registry)
    job = BulkJob(
        matcher,
        source,
        spec=BulkJobSpec(
            method=args.method,
            samples=args.samples,
            explainer=args.explainer,
            seed=args.seed,
            chunk_size=args.chunk_size,
        ),
        store=store,
        run_dir=args.run_dir,
        engine_config=engine_config,
        metrics=registry,
    )
    try:
        report = job.run(resume=args.resume)
    finally:
        if store is not None:
            store.close()
    report.ledger.extend(input_ledger)
    print(report.render(args.top))
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(
                report.report_payload(
                    job.spec, source.describe(), job.fingerprint
                ),
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.report}", file=sys.stderr)
    metrics_path = None
    if args.run_dir is not None:
        stats_path = Path(args.run_dir) / "stats.json"
        stats_path.write_text(
            json.dumps(report.stats_payload(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {stats_path}", file=sys.stderr)
        metrics_path = Path(args.run_dir) / "metrics.json"
    _obs_finish(args, registry, metrics_path)
    return 0 if report.n_failed == 0 else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    """A fast end-to-end exercise of every major subsystem."""
    from repro.core.counterfactual import greedy_counterfactual
    from repro.core.serialize import dual_from_dict, dual_to_dict
    from repro.data.records import NON_MATCH

    checks: list[tuple[str, bool]] = []

    dataset = load_dataset("S-BR", seed=args.seed, size_cap=200)
    checks.append(("dataset generation", len(dataset) == 200))

    matcher = LogisticRegressionMatcher().fit(dataset)
    quality = evaluate_matcher(matcher, dataset)
    checks.append(("matcher training (f1 > 0.7)", quality.f1 > 0.7))

    explainer = LandmarkExplainer(
        matcher, lime_config=LimeConfig(n_samples=48, seed=args.seed),
        seed=args.seed,
    )
    non_match = next(p for p in dataset if p.label == NON_MATCH)
    dual = explainer.explain(non_match)
    checks.append(("dual explanation", len(dual.combined()) > 0))
    checks.append(
        ("double generation on non-match", dual.generation == "double")
    )

    restored = dual_from_dict(dual_to_dict(dual))
    checks.append(
        ("explanation serialization", restored.generation == dual.generation)
    )

    counterfactual = greedy_counterfactual(
        dual.left_landmark, matcher, max_edits=10
    )
    checks.append(("counterfactual search ran", counterfactual.n_edits >= 1))

    ok = True
    for name, passed in checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {name}")
        ok = ok and passed
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


_COMMANDS = {
    "datasets": _cmd_datasets,
    "train": _cmd_train,
    "explain": _cmd_explain,
    "experiment": _cmd_experiment,
    "summarize": _cmd_summarize,
    "counterfactual": _cmd_counterfactual,
    "report": _cmd_report,
    "profile": _cmd_profile,
    "compare": _cmd_compare,
    "serve": _cmd_serve,
    "serve-matcher": _cmd_serve_matcher,
    "serve-shard": _cmd_serve_shard,
    "precompute": _cmd_precompute,
    "bulk": _cmd_bulk,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-em`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(
            level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
        )
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
