"""The committed API reference matches what ``scripts/gen_api.py`` renders.

A public name removed, renamed or re-documented without regenerating
``docs/api.md`` fails here; the fix is ``PYTHONPATH=src python
scripts/gen_api.py``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def gen_api():
    spec = importlib.util.spec_from_file_location(
        "gen_api", ROOT / "scripts" / "gen_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_reference_equals_render(gen_api):
    committed = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    assert committed == gen_api.render(), (
        "docs/api.md is stale: run PYTHONPATH=src python scripts/gen_api.py"
    )


def test_help_prints_usage_and_writes_nothing(gen_api, capsys, monkeypatch):
    monkeypatch.setattr(gen_api, "OUTPUT", ROOT / "does-not-exist.md")
    with pytest.raises(SystemExit) as info:
        gen_api.main(["--help"])
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out
    assert not gen_api.OUTPUT.exists()


def test_stray_argument_is_an_error(gen_api, capsys, monkeypatch):
    monkeypatch.setattr(gen_api, "OUTPUT", ROOT / "does-not-exist.md")
    with pytest.raises(SystemExit) as info:
        gen_api.main(["stray"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not gen_api.OUTPUT.exists()
