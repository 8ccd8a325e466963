"""Production modules never import the test doubles in ``repro.testing``.

Fault injection lives outside the serving stack: a drill or test
signals a process or mangles a TCP stream, and no serving module
carries a hook for it.  This walks every module under ``src/repro``
with :mod:`ast` and fails when one outside ``repro/testing/`` imports
``repro.testing`` in any spelling (absolute, relative, or
``from repro import testing``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = "repro.testing"


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_modules(source: str, module: str, is_package: bool) -> set[str]:
    """Every absolute module name *source* may import, one per spelling."""
    package = module if is_package else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
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


def _violations(path: Path) -> list[str]:
    module = _module_name(path)
    imported = _imported_modules(
        path.read_text(encoding="utf-8"), module, path.name == "__init__.py"
    )
    return sorted(name for name in imported if _is_forbidden(name))


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
