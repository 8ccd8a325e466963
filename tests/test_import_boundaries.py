"""Import boundaries of ``src/repro``, checked by source walk and at run time.

Four rules:

* Production modules never import the test doubles in ``repro.testing``.
  Fault injection lives outside the serving stack: a drill or test
  signals a process or mangles a TCP stream, and no serving module
  carries a hook for it.
* No module imports scipy while it is itself being imported.  scipy
  costs about a second of every process start, and no serving path
  calls it, so its three callers (``attribute_correlation``,
  ``record_stability`` and ``EmbeddingMatcher._averaging_matrix``)
  import it inside the function.  An import under ``if TYPE_CHECKING:``
  never runs and is allowed.
* Only ``repro/obs/metrics.py`` creates instruments.  Every other module
  declares its counters as fields of a stats dataclass and binds them
  through ``StatsInstruments``, so no module calls ``.counter(``,
  ``.gauge(`` or ``.histogram(`` on a registry.
* Perturbed pairs are rebuilt by one route, the batch builders of
  ``repro/core/columnar.py``.  Outside that module and
  ``repro/data/records.py``, which defines them, no module touches
  ``RecordPair.with_left``, ``with_right`` or ``with_side``; a caller
  that needs one rebuilt pair takes a row of a batch.

All four walk every module under ``src/repro`` with :mod:`ast` and check
that every import spelling is caught.  A runtime test then imports
every module a pipe shard's fork server preloads in a fresh interpreter,
builds a shard there and asserts a module budget: the package
namespaces are lazy, so neither the preload nor the shard loads any of
the evaluation, bulk, baseline, blocking, synthetic-data, test-double or
fleet-control modules.  The same interpreter then imports
the serving entry points, computes a LIME and a SHAP explanation, and
asserts that scipy was never loaded.  A fresh ``import repro.cli`` (the
start of ``serve-shard`` and ``serve-matcher`` hosts) must load neither
the experiment runner, the table renderers, the baselines nor the
summarizer, and a fresh ``import repro.service.server`` (the start of
the ``serve`` child) no evaluation, bulk or baseline module.
"""

from __future__ import annotations

import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.transport import _PRELOAD

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = "repro.testing"
DEFERRED = "scipy"
INSTRUMENT_FACTORIES = {"counter", "gauge", "histogram"}
METRICS_MODULE = "repro.obs.metrics"
PAIR_REBUILDERS = {"with_left", "with_right", "with_side"}
PAIR_REBUILD_MODULES = {"repro.core.columnar", "repro.data.records"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _import_time_nodes(tree: ast.Module):
    """Every node that runs when the module is imported.

    Skips function bodies and the body of ``if TYPE_CHECKING:``; class
    bodies and ``try`` blocks run at import time and are kept.
    """
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                stack.extend(child.orelse)
                continue
            stack.append(child)


def _imported_modules(
    source: str, module: str, is_package: bool, *, import_time_only: bool = False
) -> set[str]:
    """Every absolute module name *source* may import, one per spelling.

    With *import_time_only*, only the imports that run while the module
    itself is imported.
    """
    package = module if is_package else module.rpartition(".")[0]
    tree = ast.parse(source)
    found: set[str] = set()
    for node in _import_time_nodes(tree) if import_time_only else ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module
            found.add(target)
            # ``from repro import testing`` names the package as a member.
            found.update(f"{target}.{alias.name}" for alias in node.names)
    return found


def _is_forbidden(name: str) -> bool:
    return name == FORBIDDEN or name.startswith(FORBIDDEN + ".")


def _is_deferred(name: str) -> bool:
    return name == DEFERRED or name.startswith(DEFERRED + ".")


def _violations(path: Path) -> list[str]:
    module = _module_name(path)
    imported = _imported_modules(
        path.read_text(encoding="utf-8"), module, path.name == "__init__.py"
    )
    return sorted(name for name in imported if _is_forbidden(name))


def _import_time_scipy(path: Path) -> list[str]:
    imported = _imported_modules(
        path.read_text(encoding="utf-8"),
        _module_name(path),
        path.name == "__init__.py",
        import_time_only=True,
    )
    return sorted(name for name in imported if _is_deferred(name))


def test_no_production_module_imports_repro_testing():
    modules = [
        path for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if not _module_name(path).startswith(FORBIDDEN)
    ]
    assert len(modules) > 50, "the walk found too few modules"
    offenders = {
        str(path.relative_to(PACKAGE_ROOT.parent)): names
        for path in modules
        if (names := _violations(path))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "import repro.testing",
        "import repro.testing.chaos as chaos",
        "from repro.testing.chaos import ChaosProxy",
        "from repro import testing",
        "from ..testing import faults",
        "from ..testing.faults import SlowMatcher",
        "def f():\n    from repro.testing import chaos\n",
    ],
    ids=[
        "import", "import-submodule", "from-submodule", "from-package",
        "relative", "relative-submodule", "function-local",
    ],
)
def test_every_import_spelling_is_caught(source):
    imported = _imported_modules(source, "repro.service.shard", False)
    assert any(_is_forbidden(name) for name in imported)


@pytest.mark.parametrize(
    "source",
    [
        "import repro.testingish",
        "from repro.service import testing_helpers",
        "from . import transport",
        "from ..obs import metrics",
    ],
    ids=["prefix-name", "prefix-member", "relative-sibling", "relative-other"],
)
def test_neighbouring_names_are_not_flagged(source):
    imported = _imported_modules(source, "repro.service.shard", False)
    assert not any(_is_forbidden(name) for name in imported)


def test_no_module_imports_scipy_at_import_time():
    modules = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert len(modules) > 50, "the walk found too few modules"
    offenders = {
        str(path.relative_to(PACKAGE_ROOT.parent)): names
        for path in modules
        if (names := _import_time_scipy(path))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.stats",
        "from scipy import stats",
        "import scipy as sp",
        "try:\n    from scipy import sparse\nexcept ImportError:\n    pass\n",
        "class Model:\n    from scipy import sparse\n",
    ],
    ids=["import-submodule", "from-package", "import-alias", "try-block", "class-body"],
)
def test_every_import_time_scipy_spelling_is_caught(source):
    imported = _imported_modules(
        source, "repro.matchers.embedding", False, import_time_only=True
    )
    assert any(_is_deferred(name) for name in imported)


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    from scipy import sparse\n",
        "class Model:\n    def f(self):\n        import scipy.stats\n",
        "if TYPE_CHECKING:\n    from scipy import sparse\n",
        "import scipyish",
    ],
    ids=["function-local", "method-local", "type-checking", "prefix-name"],
)
def test_deferred_and_neighbouring_scipy_imports_are_not_flagged(source):
    imported = _imported_modules(
        source, "repro.matchers.embedding", False, import_time_only=True
    )
    assert not any(_is_deferred(name) for name in imported)


def _instrument_calls(source: str) -> list[str]:
    """``line:name`` of every ``<expr>.counter/gauge/histogram(...)`` call."""
    return [
        f"{node.lineno}:{node.func.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in INSTRUMENT_FACTORIES
    ]


def test_only_the_metrics_module_creates_instruments():
    modules = [
        path for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if _module_name(path) != METRICS_MODULE
    ]
    assert len(modules) > 50, "the walk found too few modules"
    offenders = {
        str(path.relative_to(PACKAGE_ROOT.parent)): calls
        for path in modules
        if (calls := _instrument_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "registry.counter('repro_x_total', 'help')",
        "self.metrics.gauge('repro_x', 'help', component='c')",
        "registry.histogram('repro_x_seconds', 'help', buckets=(1.0,))",
        "def f(self):\n    return self._registry().counter('repro_x')\n",
        "class Bundle:\n    def __init__(self, r):\n"
        "        self.x = r.histogram('repro_x')\n",
        "make = lambda registry: registry.gauge('repro_x')",
    ],
    ids=["counter", "attribute-chain", "histogram-buckets", "call-result",
         "method-body", "lambda"],
)
def test_every_instrument_creation_spelling_is_caught(source):
    assert _instrument_calls(source)


@pytest.mark.parametrize(
    "source",
    [
        "from collections import Counter\ncounts = Counter('abc')",
        "import itertools\nids = itertools.count(1)",
        "self.requests.inc()",
        "histogram.observe(0.5)",
        "value = counter('repro_x')",
        "kind = stats.counters",
    ],
    ids=["collections-counter", "itertools-count", "bound-instrument",
         "observe", "bare-function", "attribute-read"],
)
def test_neighbouring_calls_are_not_flagged(source):
    assert not _instrument_calls(source)


def _pair_rebuilds(source: str) -> list[str]:
    """``line:name`` of every ``<expr>.with_left/with_right/with_side``,
    called or not."""
    return [
        f"{node.lineno}:{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PAIR_REBUILDERS
    ]


def test_only_the_batch_builders_rebuild_pairs():
    modules = [
        path for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if _module_name(path) not in PAIR_REBUILD_MODULES
    ]
    assert len(modules) > 50, "the walk found too few modules"
    offenders = {
        str(path.relative_to(PACKAGE_ROOT.parent)): uses
        for path in modules
        if (uses := _pair_rebuilds(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "pair.with_left({'name': 'x'})",
        "instance.pair.with_side(side, entity)",
        "pair.with_left(a).with_right(b)",
        "rebuild = pair.with_side",
        "def f(pair):\n    return pair.with_right({})\n",
    ],
    ids=["call", "attribute-chain", "chained-calls", "bound-method",
         "function-body"],
)
def test_every_pair_rebuild_spelling_is_caught(source):
    assert _pair_rebuilds(source)


@pytest.mark.parametrize(
    "source",
    [
        "def with_side(pair, side):\n    return side\n",
        "with_left = {'name': 'x'}",
        "pair.with_sides()",
        "text = 'pair.with_side'",
    ],
    ids=["definition", "bare-name", "longer-attribute", "string"],
)
def test_neighbouring_pair_names_are_not_flagged(source):
    assert not _pair_rebuilds(source)


SHARD_EXCLUDED = (
    "repro.evaluation",
    "repro.bulk",
    "repro.baselines",
    "repro.blocking",
    "repro.data.synthetic",
    "repro.testing",
    "repro.service.supervisor",
    "repro.service.fleet",
    "repro.service.server",
)
CLI_EXCLUDED = (
    "repro.evaluation.runner",
    "repro.evaluation.tables",
    "repro.baselines",
    "repro.core.summarize",
)

SERVING_PROCESS = """
import importlib
import json
import sys

for name in json.loads(sys.argv[2]):
    importlib.import_module(name)
from repro.service.shard import ShardSpec, build_shard_service

with open(sys.argv[1], "rb") as handle:
    spec = ShardSpec(shard_id=0, matcher_blob=handle.read())
shard_service, _ = build_shard_service(spec)
shard_service.close()
shard_modules = sorted(m for m in sys.modules if m.startswith("repro"))

import repro
import repro.backends.server
import repro.cli
import repro.service.fleet
import repro.service.server
import repro.service.shard
from repro.core.engine import PredictionEngine
from repro.core.serialize import matcher_fingerprint
from repro.matchers import LogisticRegressionMatcher
from repro.service.request import ExplainRequest, request_key
from repro.service.service import compute_explanation_payload

dataset = repro.load_dataset("S-BR", seed=0, size_cap=60)
matcher = LogisticRegressionMatcher().fit(dataset)
engine = PredictionEngine(matcher)
fingerprint = matcher_fingerprint(matcher)
generations = {}
for explainer in ("lime", "shap"):
    request = ExplainRequest(
        dataset.pairs[0], method="both", samples=32, explainer=explainer
    )
    key = request_key(fingerprint, request)
    payload = compute_explanation_payload(matcher, engine, fingerprint, key, request)
    generations[explainer] = sorted(payload["duals"])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
report = {"generations": generations, "scipy": scipy, "shard": shard_modules}
print(json.dumps(report))
"""

CLI_PROCESS = """
import json
import sys

import repro.cli

print(json.dumps(sorted(sys.modules)))
"""

SERVER_PROCESS = CLI_PROCESS.replace("repro.cli", "repro.service.server")
SERVER_EXCLUDED = ("repro.evaluation", "repro.bulk", "repro.baselines")
WARM_PROCESS = CLI_PROCESS.replace("repro.cli", "repro.bulk.warm")


def _run_fresh(script: str, *args: str):
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _within(modules, packages) -> list[str]:
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in packages)
    )


def test_serving_process_never_loads_scipy(beer_matcher, tmp_path):
    blob = tmp_path / "matcher.pkl"
    blob.write_bytes(pickle.dumps(beer_matcher))
    report = _run_fresh(SERVING_PROCESS, str(blob), json.dumps(_PRELOAD))
    # A started shard, with all its fork server preloads, holds only the
    # serving stack and the matchers.
    assert "repro.matchers.logistic" in report["shard"]
    assert _within(report["shard"], SHARD_EXCLUDED) == []
    # Both explainers really ran both generations, so the check covers them.
    assert report["generations"] == {
        "lime": ["double", "single"],
        "shap": ["double", "single"],
    }
    assert report["scipy"] == []
    # ``serve-shard`` and ``serve-matcher`` hosts start through the CLI.
    assert _within(_run_fresh(CLI_PROCESS), CLI_EXCLUDED) == []


def test_http_front_end_loads_no_experiment_or_bulk_module():
    # The ``serve`` child starts by importing the front ends; the bulk
    # runner and the ``precompute`` warmer live in ``repro.bulk``.
    assert _within(_run_fresh(SERVER_PROCESS), SERVER_EXCLUDED) == []


def test_store_warmer_loads_no_evaluation_module():
    # Warming needs the serving stack and the pair source only; the
    # experiment runner and table renderers stay out of its process.
    assert _within(_run_fresh(WARM_PROCESS), ("repro.evaluation",)) == []
