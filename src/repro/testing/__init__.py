"""Test doubles for exercising the fault-tolerance machinery.

Importable from the library (not just the test suite) so the CI
fault-injection smoke job and downstream users can run chaos drills
against their own configurations.  :mod:`repro.testing.faults` injects
matcher-side faults; :mod:`repro.testing.chaos` supplies the
infrastructure side (damaged store files, mid-request kills, slow
clients, overload bursts, a stream-mangling TCP proxy), all seeded and
reproducible.

Every fault comes from outside the code under test — a wrapped matcher,
a signal, a damaged file or a proxy on the wire — so no production
module imports this package (``tests/test_import_boundaries.py``).
"""

from repro.testing.chaos import (
    SlowClient,
    chaos_rng,
    flip_bytes,
    kill_after,
    overload_burst,
    overwrite_with_garbage,
    truncate_file,
)
from repro.testing.faults import FaultSchedule, FlakyMatcher, SlowMatcher

__all__ = [
    "FaultSchedule",
    "FlakyMatcher",
    "SlowClient",
    "SlowMatcher",
    "chaos_rng",
    "flip_bytes",
    "kill_after",
    "overload_burst",
    "overwrite_with_garbage",
    "truncate_file",
]
