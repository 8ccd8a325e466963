"""Wire codes decode back into the error taxonomy.

Errors cross process boundaries as ``(code, message)``: the matcher
server answers the remote backend client that way, and a shard answers
its supervisor.  :func:`repro.exceptions.error_fields` is the one
encoder and :func:`repro.exceptions.error_from_code` the one decoder;
each caller keeps its own fallback for codes it cannot place.
"""

from __future__ import annotations

import json

import pytest

from repro import exceptions
from repro.backends.client import _server_error
from repro.exceptions import (
    BackendError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    error_code,
    error_fields,
    error_from_code,
)
from repro.service.supervisor import _shard_error

TAXONOMY = [
    cls for cls in (getattr(exceptions, name) for name in exceptions.__all__)
    if isinstance(cls, type) and issubclass(cls, ReproError)
]
SUBCLASSES = [cls for cls in TAXONOMY if cls is not ReproError]


def _ids(cls) -> str:
    return cls.__name__


def test_every_subclass_is_covered():
    assert len(SUBCLASSES) == len(TAXONOMY) - 1 >= 20
    assert len({cls.code for cls in TAXONOMY}) == len(TAXONOMY)


@pytest.mark.parametrize("cls", TAXONOMY, ids=_ids)
def test_decoder_round_trips_every_code(cls):
    error = error_from_code(error_code(cls("boom")), "boom")
    assert type(error) is cls
    assert str(error) == "boom"


@pytest.mark.parametrize("code", ["no_such_code", None, 7, ""])
def test_decoder_leaves_unknown_codes_to_the_caller(code):
    assert error_from_code(code, "boom") is None


@pytest.mark.parametrize("cls", SUBCLASSES, ids=_ids)
def test_backend_client_round_trips_every_code(cls):
    error = _server_error(error_code(cls("boom")), "boom")
    assert error_code(error) == cls.code
    assert isinstance(error, cls)
    assert str(error) == "matcher server: boom"


@pytest.mark.parametrize("code", ["internal", "no_such_code", None])
def test_backend_client_falls_back_to_backend_error(code):
    error = _server_error(code, "boom")
    assert type(error) is BackendError
    assert str(error) == "matcher server: boom"


@pytest.mark.parametrize("cls", SUBCLASSES, ids=_ids)
def test_supervisor_round_trips_every_code(cls):
    error = _shard_error(error_code(cls("boom")), "boom", None)
    assert error_code(error) == cls.code
    assert isinstance(error, cls)
    assert str(error) == "boom"


def test_supervisor_carries_retry_after_on_overload():
    error = _shard_error("overloaded", "busy", 2.5)
    assert isinstance(error, ServiceOverloadedError)
    assert error.retry_after == 2.5
    assert _shard_error("overloaded", "busy", None).retry_after == 1.0


def test_supervisor_keeps_unknown_codes():
    error = _shard_error("from_the_future", "boom", None)
    assert type(error) is ServiceError
    assert error_code(error) == "from_the_future"
    assert type(_shard_error("internal", "boom", None)) is ReproError


def _wire_fields(cls) -> dict:
    """*cls* encoded for the wire, as it arrives after a JSON hop."""
    if cls is ServiceOverloadedError:
        error = cls("boom", retry_after=2.5)
    else:
        error = cls("boom")
    return json.loads(json.dumps(error_fields(error)))


@pytest.mark.parametrize("cls", TAXONOMY, ids=_ids)
def test_encoder_fields(cls):
    fields = _wire_fields(cls)
    assert fields["ok"] is False
    assert fields["code"] == cls.code
    assert fields["error"] == "boom"
    assert ("retry_after" in fields) == (cls is ServiceOverloadedError)


@pytest.mark.parametrize("cls", TAXONOMY, ids=_ids)
def test_encoder_round_trips_through_the_supervisor(cls):
    fields = _wire_fields(cls)
    error = _shard_error(
        fields["code"], fields["error"], fields.get("retry_after")
    )
    assert type(error) is cls
    assert error_code(error) == cls.code
    if cls is ServiceOverloadedError:
        assert error.retry_after == 2.5


# ``internal`` (the base class) becomes BackendError on the backend
# client by design; see test_backend_client_falls_back_to_backend_error.
@pytest.mark.parametrize("cls", SUBCLASSES, ids=_ids)
def test_encoder_round_trips_through_the_backend_client(cls):
    fields = _wire_fields(cls)
    error = _server_error(
        fields["code"], fields["error"], fields.get("retry_after")
    )
    assert type(error) is cls
    assert error_code(error) == cls.code
    if cls is ServiceOverloadedError:
        assert error.retry_after == 2.5
