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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FaultSchedule": ".faults",
    "FlakyMatcher": ".faults",
    "SlowClient": ".chaos",
    "SlowMatcher": ".faults",
    "chaos_rng": ".chaos",
    "flip_bytes": ".chaos",
    "kill_after": ".chaos",
    "overload_burst": ".chaos",
    "overwrite_with_garbage": ".chaos",
    "truncate_file": ".chaos",
})
