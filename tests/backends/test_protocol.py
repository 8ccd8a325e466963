"""Frame-level behaviour of the backend wire protocol."""

from __future__ import annotations

import pickle
import socket
import struct

import numpy as np
import pytest

from repro.backends.protocol import (
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    read_frame,
    send_frame,
)
from repro.exceptions import BackendProtocolError

_HEADER = struct.Struct("!4sI")


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        message = {"op": "ping", "id": 7, "names": ["x", "y"]}
        send_frame(a, message)
        assert read_frame(b) == message

    def test_numpy_payload_survives(self, pair):
        a, b = pair
        scores = np.linspace(0.0, 1.0, 17)
        send_frame(a, {"id": 1, "ok": True, "result": scores})
        np.testing.assert_array_equal(read_frame(b)["result"], scores)

    def test_frames_are_ordered_and_delimited(self, pair):
        a, b = pair
        for index in range(5):
            send_frame(a, {"id": index})
        assert [read_frame(b)["id"] for _ in range(5)] == list(range(5))

    def test_bad_magic_is_protocol_error(self, pair):
        a, b = pair
        a.sendall(b"HTTP/1.1 200 OK\r\n\r\n" + b"\x00" * 16)
        with pytest.raises(BackendProtocolError, match="bad frame magic"):
            read_frame(b)

    def test_oversized_length_is_protocol_error(self, pair):
        a, b = pair
        a.sendall(_HEADER.pack(FRAME_MAGIC, MAX_FRAME_BYTES + 1))
        with pytest.raises(BackendProtocolError, match="exceeds cap"):
            read_frame(b)

    def test_undecodable_payload_is_protocol_error(self, pair):
        a, b = pair
        garbage = b"\x80\x05not-a-pickle"
        a.sendall(_HEADER.pack(FRAME_MAGIC, len(garbage)) + garbage)
        with pytest.raises(BackendProtocolError, match="undecodable"):
            read_frame(b)

    def test_non_dict_payload_is_protocol_error(self, pair):
        a, b = pair
        payload = pickle.dumps([1, 2, 3], protocol=4)
        a.sendall(_HEADER.pack(FRAME_MAGIC, len(payload)) + payload)
        with pytest.raises(BackendProtocolError, match="expected dict"):
            read_frame(b)

    def test_clean_eof_is_connection_error(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionError):
            read_frame(b)

    def test_mid_frame_eof_is_connection_error(self, pair):
        a, b = pair
        a.sendall(FRAME_MAGIC[:2])  # half a header, then gone
        a.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            read_frame(b)

    def test_refuses_to_send_oversized_frames(self, pair):
        a, _ = pair
        message = {"blob": b"x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(BackendProtocolError, match="refusing to send"):
            send_frame(a, message)
