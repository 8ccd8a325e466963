"""The failure ledger: structured accounting of what a run could not do.

A full evaluation grid explains hundreds of (record × method × landmark
side) cells; a single bad record or flaky matcher call must degrade the
run, not lose it.  Whenever the runner isolates a failure it appends a
:class:`FailureEntry` — record id, method, side, exception class, a stable
traceback digest and the guard's attempt count — instead of crashing.  The
ledger feeds ``MethodMetrics.n_skipped`` / ``n_degraded``, footnotes the
rendered tables, is journaled into checkpoints, and is saved with the run
JSON so a degraded run is never mistaken for a clean one.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import asdict, dataclass, field

#: Entry kinds.
KIND_SKIPPED = "skipped"      #: a record could not be explained at all
KIND_DEGRADED = "degraded"    #: double-entity generation fell back to single
KIND_CELL = "cell_failed"     #: a whole (label, method) cell's evaluation died

#: ``record_id`` of entries that describe a whole cell, not one record.
CELL_RECORD_ID = -1


def traceback_digest(error: BaseException, length: int = 12) -> str:
    """A short stable fingerprint of an exception's traceback.

    Two failures with the same digest died on the same code path, which is
    what you want to know when a ledger holds hundreds of entries.
    """
    text = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:length]


@dataclass(frozen=True)
class FailureEntry:
    """One isolated failure (or degradation) of an explanation run."""

    dataset: str
    label: int
    method: str
    #: ``pair_id`` of the affected record; :data:`CELL_RECORD_ID` for
    #: cell-level failures.
    record_id: int
    #: Landmark side the failure occurred on, when known ("" otherwise).
    side: str
    #: One of :data:`KIND_SKIPPED` / :data:`KIND_DEGRADED` / :data:`KIND_CELL`.
    kind: str
    #: Exception class name (e.g. ``MatcherTimeoutError``).
    error: str
    #: First line of the exception message.
    message: str
    #: :func:`traceback_digest` of the failure.
    digest: str
    #: Matcher-guard attempts spent on the failing call (1 = no retries).
    attempts: int = 1

    @classmethod
    def from_exception(
        cls,
        dataset: str,
        label: int,
        method: str,
        record_id: int,
        error: BaseException,
        kind: str = KIND_SKIPPED,
    ) -> "FailureEntry":
        """Build an entry from a caught exception.

        Reads the ``landmark_side`` / ``guard_attempts`` attributes the
        landmark pipeline and the matcher guard attach to exceptions they
        re-raise, when present.
        """
        message = str(error).splitlines()[0] if str(error) else ""
        return cls(
            dataset=dataset,
            label=label,
            method=method,
            record_id=record_id,
            side=str(getattr(error, "landmark_side", "")),
            kind=kind,
            error=type(error).__name__,
            message=message,
            digest=traceback_digest(error),
            attempts=int(getattr(error, "guard_attempts", 1)),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FailureEntry":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def describe(self) -> str:
        where = (
            "cell" if self.record_id == CELL_RECORD_ID else f"#{self.record_id}"
        )
        side = f"/{self.side}" if self.side else ""
        return (
            f"{self.dataset}/{self.label}/{self.method}{side} {where}: "
            f"{self.kind} after {self.attempts} attempt(s) "
            f"[{self.error}: {self.message}] ({self.digest})"
        )


@dataclass
class FailureLedger:
    """An append-only collection of :class:`FailureEntry` rows."""

    entries: list[FailureEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def add(self, entry: FailureEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries) -> None:
        self.entries.extend(entries)

    def count(self, kind: str | None = None) -> int:
        """Entries of one *kind* (or all of them)."""
        if kind is None:
            return len(self.entries)
        return sum(1 for entry in self.entries if entry.kind == kind)

    def to_payload(self) -> list[dict]:
        return [entry.to_dict() for entry in self.entries]

    @classmethod
    def from_payload(cls, payload) -> "FailureLedger":
        return cls(entries=[FailureEntry.from_dict(item) for item in payload or []])

    def summary(self) -> str:
        """One log-friendly line."""
        if not self.entries:
            return "failure ledger: empty"
        return (
            f"failure ledger: {len(self.entries)} entries "
            f"({self.count(KIND_SKIPPED)} skipped, "
            f"{self.count(KIND_DEGRADED)} degraded, "
            f"{self.count(KIND_CELL)} cell failures)"
        )
