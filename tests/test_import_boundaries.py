"""Import boundaries of ``src/repro``, checked by source walk and at run time.

Six rules:

* Production modules never import the test doubles in ``repro.testing``.
  Fault injection lives outside the serving stack: a drill or test
  signals a process or mangles a TCP stream, and no serving module
  carries a hook for it.
* No module imports scipy while it is itself being imported.  scipy
  costs about a second of every process start, so its three callers
  (``attribute_correlation``, ``record_stability`` and
  ``EmbeddingMatcher._averaging_matrix``) import it inside the
  function.  One of them is on a serving path: the embedding matcher's
  first prediction imports ``scipy.sparse``, about 0.1 s in a serving
  process, so the runtime check below covers the other CLI matchers.
  An import under ``if TYPE_CHECKING:`` never runs and is allowed.
* Only ``repro/obs/metrics.py`` creates instruments.  Every other module
  declares its counters as fields of a stats dataclass and binds them
  through ``StatsInstruments``, so no module calls ``.counter(``,
  ``.gauge(`` or ``.histogram(`` on a registry.
* Perturbed pairs are rebuilt by one route, the batch builders of
  ``repro/core/columnar.py``.  Outside that module and
  ``repro/data/records.py``, which defines them, no module touches
  ``RecordPair.with_left``, ``with_right`` or ``with_side``; a caller
  that needs one rebuilt pair takes a row of a batch.
* No module draws from numpy's global ``RandomState``: no
  ``np.random.<legacy function>``, ``numpy.random.<legacy function>``
  or ``from numpy.random import <legacy function>``.  A pipe shard's
  fork server preloads ``numpy.random``, so every forked shard inherits
  one global state; every stream in ``src`` is a seeded ``Generator``
  (``default_rng``, ``SeedSequence`` and the bit generators are fine).
* A matcher call has one retry owner, the engine's guard.  Only
  ``repro/core/engine.py`` and ``repro/backends/client.py`` (whose guard
  is a fixed breaker) construct a ``MatcherGuard``, and no dataclass but
  ``EngineConfig`` has a ``GuardConfig`` field, so no second retry
  policy can be configured beside ``EngineConfig.guard``.

All six walk every module under ``src/repro`` with :mod:`ast` and check
that every import spelling is caught.  A runtime test then imports
every module a pipe shard's fork server preloads in a fresh interpreter,
builds a shard there and asserts a module budget: the package
namespaces are lazy, so neither the preload nor the shard loads any of
the evaluation, bulk, baseline, blocking, synthetic-data, test-double or
fleet-control modules.  The same interpreter then imports the serving
entry points, computes a LIME and a SHAP explanation with the shard's
matcher, and asserts that scipy was never loaded, once for each
scipy-free CLI matcher (logistic, mlp, rules and boosted).  A fresh
``import repro.cli`` (the start of ``serve-shard`` and ``serve-matcher``
hosts) must load neither the experiment runner, the table renderers,
the baselines nor the summarizer, and a fresh
``import repro.service.server`` (the start of the ``serve`` child) no
evaluation, bulk or baseline module.
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

from repro.cli import _MATCHERS
from repro.service.transport import _PRELOAD

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = "repro.testing"
DEFERRED = "scipy"
INSTRUMENT_FACTORIES = {"counter", "gauge", "histogram"}
METRICS_MODULE = "repro.obs.metrics"
PAIR_REBUILDERS = {"with_left", "with_right", "with_side"}
PAIR_REBUILD_MODULES = {"repro.core.columnar", "repro.data.records"}
NUMPY_NAMES = {"np", "numpy"}
#: ``(module, owner)`` pairs allowed a guard: the engine's and the
#: client's ``MatcherGuard`` constructions, and ``EngineConfig.guard``.
RETRY_OWNERS = {
    ("repro.core.engine", "MatcherGuard"),
    ("repro.backends.client", "MatcherGuard"),
    ("repro.config", "EngineConfig.guard"),
}
#: The functions of ``numpy.random`` that act on its global
#: ``RandomState``; the seeded API (``default_rng``, ``SeedSequence``,
#: ``Generator``, the bit generators) is not among them.
GLOBAL_RNG_FUNCTIONS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_bit_generator",
    "get_state", "gumbel", "hypergeometric", "laplace", "logistic",
    "lognormal", "logseries", "multinomial", "multivariate_normal",
    "negative_binomial", "noncentral_chisquare", "noncentral_f", "normal",
    "pareto", "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_bit_generator", "set_state", "shuffle",
    "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_normal", "standard_t", "triangular", "uniform", "vonmises",
    "wald", "weibull", "zipf",
})


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


def _global_rng_uses(source: str) -> list[str]:
    """``line:name`` of every ``np.random.<legacy>`` or ``numpy.random.<legacy>``
    attribute, called or not, and every ``from numpy.random import <legacy>``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in GLOBAL_RNG_FUNCTIONS
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in NUMPY_NAMES
        ):
            uses.append(f"{node.lineno}:{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            uses.extend(
                f"{node.lineno}:{alias.name}"
                for alias in node.names
                if alias.name in GLOBAL_RNG_FUNCTIONS
            )
    return uses


def test_no_module_uses_numpys_global_rng():
    modules = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert len(modules) > 50, "the walk found too few modules"
    offenders = {
        str(path.relative_to(PACKAGE_ROOT.parent)): uses
        for path in modules
        if (uses := _global_rng_uses(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_the_legacy_list_covers_numpys_global_rng():
    import numpy as np

    bound = {
        name for name in dir(np.random)
        if isinstance(
            getattr(getattr(np.random, name), "__self__", None),
            np.random.RandomState,
        )
    }
    assert bound, "numpy binds no function to its global RandomState"
    assert bound <= GLOBAL_RNG_FUNCTIONS


@pytest.mark.parametrize(
    "source",
    [
        "np.random.seed(0)",
        "x = numpy.random.rand(3)",
        "from numpy.random import shuffle",
        "from numpy.random import default_rng, choice as pick",
        "def f(items):\n    return np.random.permutation(items)\n",
        "draw = np.random.normal",
    ],
    ids=["np-call", "numpy-call", "from-import", "from-import-alias",
         "function-body", "uncalled"],
)
def test_every_global_rng_spelling_is_caught(source):
    assert _global_rng_uses(source)


@pytest.mark.parametrize(
    "source",
    [
        "rng = np.random.default_rng(np.random.SeedSequence([0, 1]))",
        "rng = numpy.random.Generator(numpy.random.PCG64(7))",
        "from numpy.random import SeedSequence, Generator, Philox, SFC64",
        "def f(rng: np.random.Generator):\n    return rng.random(3)\n",
        "import random\nvalue = random.random()",
        "values = rng.normal(size=3)",
    ],
    ids=["seeded-default-rng", "bit-generator", "from-import-modern",
         "generator-method", "stdlib-random", "generator-normal"],
)
def test_seeded_generators_are_not_flagged(source):
    assert not _global_rng_uses(source)


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute an expression spells, string
    annotations included."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                names |= _names(ast.parse(child.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _retry_owners(source: str) -> list[str]:
    """``line:MatcherGuard`` of every guard construction and
    ``line:Class.field`` of every dataclass field typed ``GuardConfig``."""
    owners = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "MatcherGuard" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            owners.append(f"{node.lineno}:MatcherGuard")
        elif isinstance(node, ast.ClassDef) and any(
            "dataclass" in _names(decorator)
            for decorator in node.decorator_list
        ):
            owners.extend(
                f"{item.lineno}:{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "GuardConfig" in _names(item.annotation)
            )
    return owners


def test_one_retry_owner():
    modules = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert len(modules) > 50, "the walk found too few modules"
    found = {
        (_module_name(path), owner.partition(":")[2])
        for path in modules
        for owner in _retry_owners(path.read_text(encoding="utf-8"))
    }
    assert found == RETRY_OWNERS


@pytest.mark.parametrize(
    "source",
    [
        "guard = MatcherGuard(config)",
        "self._guard = guard_module.MatcherGuard(config=c, instruments=i)",
        "@dataclass(frozen=True)\nclass C:\n    guard: GuardConfig = field()\n",
        "@dataclasses.dataclass\nclass C:\n    retry: GuardConfig | None = None\n",
        "@dataclass\nclass C:\n    retry: 'GuardConfig' = None\n",
        "@dataclass\nclass C:\n    retry: Optional[config.GuardConfig] = None\n",
    ],
    ids=["call", "attribute-call", "frozen-field", "optional-field",
         "string-annotation", "qualified-annotation"],
)
def test_every_retry_owner_spelling_is_caught(source):
    assert _retry_owners(source)


@pytest.mark.parametrize(
    "source",
    [
        "guard.call(fn, batch, 1)",
        "state = MatcherGuard.state",
        "@dataclass\nclass C:\n    guard_stats: GuardStats = None\n",
        "class C:\n    guard: GuardConfig = None\n",
        "def f(guard: GuardConfig):\n    return guard\n",
        "config = GuardConfig(max_retries=2)",
    ],
    ids=["guard-call", "attribute-read", "other-field-type",
         "plain-class", "parameter", "config-value"],
)
def test_neighbouring_guard_uses_are_not_flagged(source):
    assert not _retry_owners(source)


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
#: Every CLI matcher but the embedding one, whose first prediction
#: imports ``scipy.sparse``.
SCIPY_FREE_MATCHERS = ("logistic", "mlp", "rules", "boosted")
CLI_EXCLUDED = (
    "repro.evaluation.runner",
    "repro.evaluation.tables",
    "repro.baselines",
    "repro.core.summarize",
)

SERVING_PROCESS = """
import importlib
import json
import pickle
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
from repro.service.request import ExplainRequest, request_key
from repro.service.service import compute_explanation_payload

dataset = repro.load_dataset("S-BR", seed=0, size_cap=60)
matcher = pickle.loads(spec.matcher_blob)
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


def test_serving_process_never_loads_scipy(beer_dataset, tmp_path):
    # Each scipy-free CLI matcher in its own fresh interpreter.
    found = {}
    for name in SCIPY_FREE_MATCHERS:
        matcher_class = _MATCHERS[name]
        blob = tmp_path / f"{name}.pkl"
        blob.write_bytes(pickle.dumps(matcher_class().fit(beer_dataset)))
        report = _run_fresh(SERVING_PROCESS, str(blob), json.dumps(_PRELOAD))
        found[name] = {
            "matcher module": matcher_class.__module__ in report["shard"],
            "excluded": _within(report["shard"], SHARD_EXCLUDED),
            "generations": report["generations"],
            "scipy": report["scipy"],
        }
    # A started shard, with all its fork server preloads, holds only the
    # serving stack and the matchers; both explainers really ran both
    # generations, so the scipy check covers them.
    assert found == {
        name: {
            "matcher module": True,
            "excluded": [],
            "generations": {
                "lime": ["double", "single"],
                "shap": ["double", "single"],
            },
            "scipy": [],
        }
        for name in SCIPY_FREE_MATCHERS
    }
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
