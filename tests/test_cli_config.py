"""Every config-backed flag reaches its config field, and nothing else.

Each command that builds configs is run with the data loading (and the
consumers that do not load data) stubbed to stop it, so the configs the
command built from its flags can be compared with the class defaults.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import cli
from repro.config import (
    FAST,
    EngineConfig,
    ExperimentConfig,
    ServiceConfig,
    ShardConfig,
    StoreConfig,
    add_config_arguments,
    config_from_namespace,
)

#: The configs each command builds from its flags.
COMMANDS = {
    "explain": (),
    "experiment": (EngineConfig,),
    "serve": (ServiceConfig, ShardConfig, StoreConfig, EngineConfig),
    "precompute": (ServiceConfig, ShardConfig, StoreConfig, EngineConfig),
    "bulk": (StoreConfig, EngineConfig),
    "serve-shard": (StoreConfig,),
}


class _Stop(Exception):
    pass


def _stop(*args, **kwargs):
    raise _Stop()


def _built(monkeypatch, argv: list[str]) -> dict[type, object]:
    """The configs ``main(argv)`` builds before it loads any data."""
    built: dict[type, object] = {}

    def record(cls, args):
        built[cls] = config = config_from_namespace(cls, args)
        return config

    def runner(config, **kwargs):
        built[ExperimentConfig] = config
        raise _Stop()

    monkeypatch.setattr(cli, "config_from_namespace", record)
    monkeypatch.setattr(cli, "load_dataset", _stop)
    monkeypatch.setattr("repro.evaluation.runner.ExperimentRunner", runner)
    monkeypatch.setattr("repro.service.ShardServer", _stop)
    with pytest.raises(_Stop):
        cli.main(argv)
    return built


def _flagged(cls, path=()):
    """``(path, field)`` of every flagged field, nested configs included."""
    for field in dataclasses.fields(cls):
        if dataclasses.is_dataclass(field.default_factory):
            yield from _flagged(field.default_factory, path + (field.name,))
        elif "flag" in field.metadata:
            yield path + (field.name,), field


def _offered(command: str) -> set[str]:
    parser = cli._build_parser()
    commands = next(
        action for action in parser._actions if action.dest == "command"
    )
    return {
        option
        for action in commands.choices[command]._actions
        for option in action.option_strings
    }


def _non_default(field):
    """A valid value unequal to *field*'s default."""
    if field.default is None:
        return 3 if field.type.startswith("int") else 1.5
    if isinstance(field.default, int):
        return field.default + 1
    return field.default * 1.5


def _with(config, path, value):
    head, *rest = path
    inner = _with(getattr(config, head), rest, value) if rest else value
    return dataclasses.replace(config, **{head: inner})


CASES = [
    pytest.param(
        command, cls, path, field,
        id=f"{command}{field.metadata['flag']}",
    )
    for command, classes in COMMANDS.items()
    for cls in classes
    for path, field in _flagged(cls)
    if field.metadata["flag"] in _offered(command)
]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_minimal_argv_builds_the_class_defaults(monkeypatch, command):
    built = _built(monkeypatch, [command])
    for cls in COMMANDS[command]:
        assert built[cls] == cls(), cls.__name__
    if command == "experiment":
        assert built[ExperimentConfig] == FAST


@pytest.mark.parametrize("command, cls, path, field", CASES)
def test_flag_reaches_its_field(monkeypatch, command, cls, path, field):
    value = _non_default(field)
    built = _built(
        monkeypatch, [command, field.metadata["flag"], str(value)]
    )
    assert built[cls] == _with(cls(), path, value)
    if command == "experiment":
        assert built[ExperimentConfig] == dataclasses.replace(
            FAST, engine=built[EngineConfig]
        )


def test_cases_cover_the_named_paths():
    ids = {case.id for case in CASES}
    assert {"experiment--max-retries", "bulk--call-timeout",
            "serve--shards", "precompute--workers"} <= ids
    assert not any(case.startswith("explain-") for case in ids)


def test_bool_option_is_refused():
    import argparse

    from repro.config import option
    from repro.exceptions import ConfigurationError

    @dataclasses.dataclass(frozen=True)
    class Switched:
        verbose: bool = option(False, "--verbose", "a switch")

    with pytest.raises(ConfigurationError, match="--verbose"):
        add_config_arguments(argparse.ArgumentParser(), Switched)


@pytest.mark.parametrize("argv, message", [
    (["serve", "--shards", "0"], "n_shards must be >= 1"),
    (["serve", "--shards", "-2"], "n_shards must be >= 1"),
    (["serve", "--workers", "0"], "n_workers must be >= 1"),
    (["precompute", "--workers", "0"], "n_workers must be >= 1"),
])
def test_invalid_value_fails_before_any_data(monkeypatch, capsys, argv,
                                             message):
    def loaded(*args, **kwargs):
        raise AssertionError("data loaded before the configs were checked")

    monkeypatch.setattr(cli, "load_dataset", loaded)
    monkeypatch.setitem(cli._MATCHERS, "logistic", loaded)
    assert cli.main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
