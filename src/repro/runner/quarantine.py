"""Quarantine file: where malformed input records go to be audited.

A 2.2e7-row GPS corpus always contains garbage — truncated lines,
sensor NaNs, clock glitches.  Aborting a 40-minute run on row
18,201,337 is the wrong trade; dropping the row silently is worse.  The
quarantine CSV is the middle path: every rejected record lands here
with its source, 1-based data-row number, machine-readable reason, and
the raw text, so the run completes *and* the loss is fully auditable
(and re-ingestable after repair).

The writer implements the :data:`repro.data.io.BadRowSink` protocol —
pass ``quarantine.sink("trips.csv")`` as ``on_bad_row`` to
:func:`repro.data.io.iter_trips`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from types import TracebackType
from typing import IO, Any, Optional, Set, Tuple, Type, Union

from repro.data.io import BadRowSink, QuarantinedRow

PathLike = Union[str, Path]

QUARANTINE_FIELDS = ["source", "row_number", "reason", "raw"]

#: What identifies a quarantined row: ``(source, row_number, raw)``.
RowKey = Tuple[str, str, str]


class Quarantine:
    """Append-only CSV of rejected input records.

    The file (and its header) is created lazily on the first rejected
    row, so a clean run leaves no quarantine file behind — its absence
    is itself the audit result.  Use as a context manager or call
    :meth:`close` explicitly.

    Durability guarantees (a long-lived ``repro serve`` or streaming
    ingest process made both of these load-bearing):

    * every :meth:`add` flushes, so a process killed mid-run — the one
      failure mode ``__exit__`` cannot catch — loses no recorded rows;
    * reopening after :meth:`close` appends instead of truncating.  The
      old ``"w"``-mode reopen silently destroyed every previously
      quarantined row the first time a sink was used again;
    * a row the file already holds is not written again, so a resumed
      run that re-reads input rows (the batch CLI re-ingests
      everything; a stream replays its uncommitted epoch) records each
      bad row exactly once.  :attr:`count` still counts every row
      reported to this object.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.count = 0
        self._file: Optional[IO[str]] = None
        self._writer: Optional[Any] = None  # csv writer object
        self._header_written = False
        self._held: Set[RowKey] = set()

    def sink(self, source: str) -> BadRowSink:
        """A :data:`BadRowSink` recording rows under ``source``."""

        def on_bad_row(row: QuarantinedRow) -> None:
            self.add(source, row)

        return on_bad_row

    def add(self, source: str, row: QuarantinedRow) -> None:
        if self._writer is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                with open(self.path, newline="", encoding="utf-8") as f:
                    self._held.update(
                        (r["source"], r["row_number"], r["raw"])
                        for r in csv.DictReader(f)
                    )
            # "a" keeps rows from a previous open of this same
            # quarantine; the header is only emitted once per file.
            self._file = open(
                self.path, "a", newline="", encoding="utf-8"
            )
            self._writer = csv.writer(self._file)
            if not self._header_written and self._file.tell() == 0:
                self._writer.writerow(QUARANTINE_FIELDS)
            self._header_written = True
        self.count += 1
        key = (source, str(row.row_number), row.raw)
        if key in self._held:
            return
        self._held.add(key)
        self._writer.writerow(
            [source, row.row_number, row.reason, row.raw]
        )
        self._file.flush()  # type: ignore[union-attr]

    def flush(self) -> None:
        """Push any buffered rows to the OS (no-op when never opened)."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
            self._writer = None

    def __enter__(self) -> "Quarantine":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        # Close on success *and* error paths alike: an exception after
        # rows were buffered must still land them on disk.
        self.close()
        return False
