"""The lazy package namespaces of ``src/repro``.

Every package ``__init__`` declares each public name once, in the table
it passes to :func:`repro._lazy.lazy_exports`, and imports nothing else
at module level.  These tests read every table from source and check,
in a fresh interpreter, that the lazy namespace serves the same names
the eager imports did:

* importing every package runs no submodule beyond the eagerly bound
  ones;
* every ``__all__`` name resolves to the defining module's object;
* ``dir(pkg)`` lists ``__all__``, and ``from repro import *`` works;
* an unknown name raises :class:`AttributeError` naming the package,
  and a submodule name imports the submodule;
* a name that is also a sibling submodule is bound eagerly, because the
  import system would otherwise shadow it with the submodule.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from tests.test_import_boundaries import PACKAGE_ROOT, _run_fresh

INITS = sorted(PACKAGE_ROOT.rglob("__init__.py"))


def _package(init: Path) -> str:
    return ".".join(init.relative_to(PACKAGE_ROOT.parent).parent.parts)


def _table(init: Path) -> dict[str, str]:
    """The ``{name: defining module}`` literal passed to ``lazy_exports``."""
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            table = node.args[1]
            assert isinstance(table, ast.Dict), f"{init}: the table is not a literal"
            names = [key.value for key in table.keys]
            duplicates = sorted({n for n in names if names.count(n) > 1})
            assert not duplicates, f"{_package(init)} declares {duplicates} twice"
            return dict(zip(names, (value.value for value in table.values)))
    raise AssertionError(f"{init} does not call lazy_exports")


def _submodules(init: Path) -> set[str]:
    """The names of the modules and packages beside *init*."""
    return {
        path.stem if path.suffix == ".py" else path.name
        for path in init.parent.iterdir()
        if (path.suffix == ".py" and path.stem != "__init__")
        or (path / "__init__.py").exists()
    }


TABLES = {_package(init): _table(init) for init in INITS}

FRESH_PROCESS = """
import importlib
import inspect
import json
import sys

tables = json.loads(sys.argv[1])
report = {
    "loaded": {}, "bound": {}, "mismatched": {}, "missing_from_dir": {}, "unknown": {}
}
for package, table in tables.items():
    before = set(sys.modules)
    namespace = vars(importlib.import_module(package))
    report["loaded"][package] = sorted(
        m for m in set(sys.modules) - before if m.startswith("repro")
    )
    report["bound"][package] = sorted(
        name for name in table
        if name in namespace and not inspect.ismodule(namespace[name])
    )
for package, table in tables.items():
    module = sys.modules[package]
    report["mismatched"][package] = sorted(
        name for name, source in table.items()
        if getattr(module, name)
        is not getattr(importlib.import_module(source, package), name)
    )
    report["missing_from_dir"][package] = sorted(set(module.__all__) - set(dir(module)))
    try:
        getattr(module, "no_such_export")
    except AttributeError as error:
        report["unknown"][package] = str(error)
namespace = {}
exec("from repro import *", namespace)
report["star"] = sorted(set(sys.modules["repro"].__all__) - set(namespace))
report["all"] = {package: sys.modules[package].__all__ for package in tables}
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    return _run_fresh(FRESH_PROCESS, json.dumps(TABLES))


def test_every_package_is_lazy():
    assert len(TABLES) == 16, sorted(TABLES)
    for init in INITS:
        package = _package(init)
        eager = []
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                eager.append(ast.unparse(node))
            elif isinstance(node, ast.ImportFrom) and node.module != "repro._lazy":
                # The only other import binds a name its submodule shadows.
                names = [alias.name for alias in node.names]
                if node.module != f"{package}.{names[0]}" or len(names) > 1:
                    eager.append(ast.unparse(node))
        assert eager == [], package


def test_importing_a_package_runs_no_submodule_unless_bound_eagerly(report):
    assert report["loaded"]["repro"] == ["repro", "repro._lazy"]
    for package, loaded in report["loaded"].items():
        if not report["bound"][package]:
            assert set(loaded) <= {"repro._lazy", *TABLES}, package


def test_every_export_is_the_defining_modules_object(report):
    assert report["mismatched"] == {package: [] for package in TABLES}


def test_all_keeps_the_table_order(report):
    expected = {package: list(table) for package, table in TABLES.items()}
    expected["repro"].append("__version__")
    assert report["all"] == expected


def test_dir_lists_every_export(report):
    assert report["missing_from_dir"] == {package: [] for package in TABLES}


def test_star_import_binds_every_top_level_name(report):
    assert report["star"] == []


def test_unknown_name_error_names_the_package(report):
    assert report["unknown"] == {
        package: f"module {package!r} has no attribute 'no_such_export'"
        for package in TABLES
    }


def test_exports_named_like_a_submodule_are_bound_eagerly(report):
    clashes = {
        _package(init): sorted(set(TABLES[_package(init)]) & _submodules(init))
        for init in INITS
    }
    assert clashes["repro.evaluation"] == ["attribute_eval", "interest_eval"]
    assert {p: names for p, names in clashes.items() if names} == {
        p: names for p, names in report["bound"].items() if names
    }


SUBMODULE_ATTRIBUTE = """
import json

import repro

print(json.dumps(repro.core.landmark.LandmarkExplainer is repro.LandmarkExplainer))
"""


def test_submodule_attribute_imports_the_submodule():
    assert _run_fresh(SUBMODULE_ATTRIBUTE) is True


SUBMODULE_FIRST = """
import inspect
import json

import repro.evaluation.attribute_eval
import repro.evaluation.interest_eval
from repro.evaluation import attribute_eval, interest_eval

print(json.dumps([inspect.isfunction(f) for f in (attribute_eval, interest_eval)]))
"""


def test_submodule_import_does_not_shadow_the_function():
    assert _run_fresh(SUBMODULE_FIRST) == [True, True]
