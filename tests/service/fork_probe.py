"""A fork-server preload that reports what a forked child imports.

A test appends this module to ``repro.service.transport._PRELOAD``
before the first pipe shard boots the fork server.  Imported once in
the server, it snapshots ``sys.modules`` in every child at the fork and
wraps the child's ``Connection.send``, so each message the shard sends
its supervisor first prints one line to the inherited stdout::

    fork-probe [<pid>, "<message kind>", [<modules imported since the fork>]]

No serving module carries a hook for it.
"""

from __future__ import annotations

import json
import os
import sys
from multiprocessing import connection


def _arm() -> None:
    at_fork = frozenset(sys.modules)
    send = connection.Connection.send

    def reporting_send(self, obj):
        new = sorted(set(sys.modules) - at_fork)
        print(
            "fork-probe " + json.dumps([os.getpid(), obj["kind"], new]),
            flush=True,
        )
        send(self, obj)

    connection.Connection.send = reporting_send


os.register_at_fork(after_in_child=_arm)
